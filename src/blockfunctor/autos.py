"""Automorphism groups and isomorphism search by generator-image backtracking.

Candidate images are pruned by element order and conjugacy class size.
The search then prunes by prefix: once g1..gi have images, the map is
closed on <g1..gi> (resuming from the closure on <g1..g(i-1)>) and a
conflict drops the whole subtree; a generator that already lies in the
prefix group has its image fixed, so only that one candidate is tried.
Pruning is exact, so the maps are found in the same depth-first order
as by closing every full candidate tuple.  Accepted maps are verified
bijections on the whole group.  Searches are complete and deterministic.

Out(L, u) is C / N with C = C_Aut(L)(c_u) and N the conjugations by u
and by C_L(u): every pair automorphism fixes u after composing with an
inner one, and the inner automorphisms that fix u are those in N.  C is
never listed element by element.  It is computed on L alone, as a
strong generating set by a stabilizer-chain backtrack along the
generators l1..lk of L: each generator found answers one first-hit
search whose maps are closed on L and accepted only if they commute with
conjugation by u, and its basic orbits give |C| before any closure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import max_order
from .errors import DomainError, SizeBoundError
from .permutation import Permutation, conjugate
from .permgroup import (
    GroupHom,
    PermGroup,
    Subgroup,
    close_map,
    orbit,
    small_generating_set,
)


@dataclass(frozen=True)
class MarkedPair:
    """A group generated by a marked subgroup P and a marked element s.

    The element must normalize the subgroup and together they must
    generate the whole group.
    """

    group: PermGroup
    subgroup: Subgroup
    element: Permutation

    def __post_init__(self):
        if not self.group.contains(self.element):
            raise DomainError("marked element is not a member of the marked group")
        pset = self.subgroup.element_set()
        for x in self.subgroup.generators:
            if not self.group.contains(x):
                raise DomainError("marked subgroup is not inside the marked group")
            if conjugate(self.element, x) not in pset:
                raise DomainError("marked element does not normalize the subgroup")
        span = self.group.subgroup(
            tuple(self.subgroup.generators)
            + ((self.element,) if not self.element.is_identity() else ())
        )
        if span.order != self.group.order:
            raise DomainError("marked subgroup and element do not generate the group")


def _candidate_lists(A, B, sequence, restrictions):
    """Per-generator candidate images in B, filtered by invariants."""
    by_invariant = B.elements_by_invariant()
    lists = []
    for i, g in enumerate(sequence):
        pool = by_invariant.get(A.invariant(g), ())
        if restrictions[i] is not None:
            pool = [y for y in pool if y in restrictions[i]]
        if not pool:
            return None
        lists.append(pool)
    return lists


def _search_maps(A, B, sequence, restrictions, limit=None, commuting=None):
    """The isomorphisms A -> B respecting the restrictions, in depth-first
    order of the candidate images; the search stops after ``limit`` maps.

    With ``commuting`` an element c normalizing A and B, a full map m is kept
    only if m(c x c^-1) = c m(x) c^-1 for each x of the sequence; since
    both sides are homomorphisms in x, the relation then holds on all of A.
    """
    if A.order != B.order:
        return []
    if A.order == 1:
        return [{A.identity: B.identity}]
    lists = _candidate_lists(A, B, sequence, restrictions)
    if lists is None:
        return []
    allowed = [set(pool) for pool in lists]
    found = []
    pairs = []

    def recurse(i, m):
        if i == len(sequence):
            if (
                len(m) == A.order
                and len(set(m.values())) == B.order
                and (commuting is None or all(
                    m[conjugate(commuting, x)] == conjugate(commuting, m[x])
                    for x in sequence
                ))
            ):
                found.append(m)
            return len(found) == limit
        g = sequence[i]
        fixed = m.get(g)
        if fixed is not None:
            return fixed in allowed[i] and recurse(i + 1, m)
        for cand in lists[i]:
            pairs.append((g, cand))
            closed = close_map(A, B, pairs, start=m)
            stop = closed is not None and recurse(i + 1, closed)
            pairs.pop()
            if stop:
                return True
        return False

    recurse(0, {A.identity: B.identity})
    # recurse refers to itself through its closure; unbinding it frees the
    # search state now instead of at the next full garbage collection
    del recurse
    return found


def _profile(group: PermGroup):
    return sorted((c.rep.order(), c.size) for c in group.conjugacy_data())


def find_group_isomorphism(A: PermGroup, B: PermGroup):
    """An isomorphism A -> B as a GroupHom, or None."""
    if A.order != B.order or _profile(A) != _profile(B):
        return None
    sequence = list(small_generating_set(A.degree, A.elements()))
    maps = _search_maps(A, B, sequence, [None] * len(sequence), limit=1)
    if not maps:
        return None
    m = maps[0]
    return GroupHom(A, B, [(g, m[g]) for g in sequence] or [(A.identity, B.identity)])


def _pair_sequence(mp: MarkedPair):
    """Generating sequence [s] + generators of P (s omitted when trivial)."""
    seq = [] if mp.element.is_identity() else [mp.element]
    seq.extend(mp.subgroup.generators)
    return seq


def find_pair_isomorphism(a: MarkedPair, b: MarkedPair):
    """An isomorphism f of the marked groups with f(P) = Q and f(s)
    conjugate to t, or None when no such isomorphism exists."""
    if a.group.order != b.group.order:
        return None
    if a.subgroup.order != b.subgroup.order:
        return None
    if a.element.order() != b.element.order():
        return None
    if _profile(a.group) != _profile(b.group):
        return None
    sequence = _pair_sequence(a)
    restrictions = []
    if not a.element.is_identity():
        t_class = b.group.conjugacy_data()[b.group.class_index_of(b.element)]
        restrictions.append(set(t_class.elements))
    qset = b.subgroup.element_set()
    restrictions.extend([qset] * len(a.subgroup.generators))
    maps = _search_maps(a.group, b.group, sequence, restrictions, limit=1)
    if not maps:
        return None
    m = maps[0]
    pairs = [(g, m[g]) for g in sequence] or [(a.group.identity, b.group.identity)]
    return GroupHom(a.group, b.group, pairs)


def _basic_orbit(x, maps):
    """The orbit of x under the automorphisms given as element maps."""
    return orbit(x, lambda y: [m[y] for m in maps])


def pair_automorphism_maps(mp: MarkedPair):
    """Strong generators of C = C_Aut(L)(c_u), as element maps on L.

    An automorphism of the carrier L<u> that fixes u maps L onto itself
    (L is its normal Sylow subgroup) and commutes there with conjugation
    by u; conversely every automorphism of L that commutes with c_u
    extends by fixing u.  So C is searched on L alone: a candidate map is
    closed on L, and a full map is accepted only if it commutes with c_u
    on the generators l1..lk of L.  The candidate image lists are those of
    the carrier (element order and carrier class size), restricted to L.
    The base is l1..lk.  Level i is the subgroup fixing l1..l(i-1), and
    its basic orbit is the set of images of li under that subgroup.  The
    levels are filled from the deepest one up.  At level i every
    candidate image of li outside the orbit of the generators found so
    far is tested by one first-hit search with l1..l(i-1) fixed; a hit is
    a new strong generator and grows the orbit, a miss is not in the
    orbit.  So |C| is the product of the basic orbit lengths, and
    SizeBoundError is raised as soon as that product passes the
    configured bound, before any group is built.
    """
    L = mp.subgroup.group
    u = mp.element
    bound = max_order()
    commuting = None if u.is_identity() else u
    sequence = list(L.generators)
    lists = _candidate_lists(mp.group, mp.group, sequence, [L.element_set()] * len(sequence))
    free = [set(pool) for pool in lists]
    maps = []
    order = 1
    for i in reversed(range(len(sequence))):
        x = sequence[i]
        fixed = [{y} for y in sequence[:i]]
        basic = _basic_orbit(x, maps)
        for cand in lists[i]:
            if cand in basic:
                continue
            hit = _search_maps(L, L, sequence, fixed + [{cand}] + free[i + 1:], 1, commuting)
            if not hit:
                continue
            maps.append(hit[0])
            basic = _basic_orbit(x, maps)
            if order * len(basic) > bound:
                raise SizeBoundError(
                    f"automorphism search, pair class (|L|={L.order}, "
                    f"ord u={u.order()}): C_Aut(L)(c_u) has more than "
                    f"{bound} elements, over the configured bound {bound}"
                )
        order *= len(basic)
    return maps
