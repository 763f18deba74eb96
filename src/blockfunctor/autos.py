"""Automorphism groups and isomorphism search by generator-image backtracking.

Candidate images are pruned by element order and conjugacy class size.
The search then prunes by prefix: once g1..gi have images, the map is
closed on <g1..gi> (resuming from the closure on <g1..g(i-1)>) and a
conflict drops the whole subtree; a generator that already lies in the
prefix group has its image fixed, so only that one candidate is tried.
Pruning is exact, so the maps are found in the same depth-first order
as by closing every full candidate tuple.  Accepted maps are verified
bijections on the whole group.  Searches are complete and deterministic.

Aut(L, u) is never listed element by element.  It is computed as a
strong generating set by a stabilizer-chain backtrack whose base is the
pair's generating sequence [u, l1..lk]: each generator found answers one
first-hit search, its basic orbits give the order, and the action on the
element labels is closed from the generators alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import max_order
from .errors import DomainError, InternalCheckError, SizeBoundError
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


def _invariant(group: PermGroup, x: Permutation):
    return (x.order(), group.class_size_of(x))


def _candidate_lists(A, B, sequence, restrictions):
    """Per-generator candidate images in B, filtered by invariants."""
    by_invariant = {}
    for y in B.elements():
        by_invariant.setdefault(_invariant(B, y), []).append(y)
    lists = []
    for i, g in enumerate(sequence):
        pool = by_invariant.get(_invariant(A, g), [])
        if restrictions[i] is not None:
            pool = [y for y in pool if y in restrictions[i]]
        if not pool:
            return None
        lists.append(pool)
    return lists


def _search_maps(A, B, sequence, restrictions, limit=None):
    """The isomorphisms A -> B respecting the restrictions, in depth-first
    order of the candidate images; the search stops after ``limit`` maps."""
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
            if len(m) == A.order and len(set(m.values())) == B.order:
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
    """Strong generators of Aut(L, u), the automorphisms of the marked
    group that send s to a conjugate of s, as full element maps.

    The base is the pair's generating sequence x1..xk = [s, l1..lk] (s
    omitted when trivial).  Level i is the subgroup fixing x1..x(i-1), and
    its basic orbit is the set of images of xi under that subgroup.  The
    levels are filled from the deepest one up.  At level i every candidate
    image of xi outside the orbit of the generators found so far is tested
    by one first-hit search with x1..x(i-1) fixed; a hit is a new strong
    generator and grows the orbit, a miss is not in the orbit.  So each
    generator found at level i fixes x1..x(i-1), and |Aut(L, u)| is the
    product of the basic orbit lengths.  SizeBoundError is raised as soon
    as that product passes the configured bound, since no group of that
    order can be built.  Preservation of the marked subgroup is asserted
    on the generators rather than imposed during the search.
    """
    G = mp.group
    bound = max_order()
    if G.order > bound:
        raise SizeBoundError(
            f"automorphism search refused for order {G.order} > {bound}"
        )
    sequence = _pair_sequence(mp)
    restrictions = []
    if not mp.element.is_identity():
        s_class = G.conjugacy_data()[G.class_index_of(mp.element)]
        restrictions.append(set(s_class.elements))
    restrictions.extend([None] * len(mp.subgroup.generators))
    lists = _candidate_lists(G, G, sequence, restrictions)
    maps = []
    order = 1
    for i in reversed(range(len(sequence))):
        x = sequence[i]
        fixed = [{y} for y in sequence[:i]]
        basic = _basic_orbit(x, maps)
        for cand in lists[i]:
            if cand in basic:
                continue
            hit = _search_maps(
                G, G, sequence, fixed + [{cand}] + restrictions[i + 1:], limit=1
            )
            if not hit:
                continue
            maps.append(hit[0])
            basic = _basic_orbit(x, maps)
            if order * len(basic) > bound:
                raise SizeBoundError(
                    f"Aut(L, u) of the pair class (|L|={mp.subgroup.order}, "
                    f"ord u={mp.element.order()}) has more than {bound} elements, "
                    f"over the configured bound {bound}"
                )
        order *= len(basic)
    pset = mp.subgroup.element_set()
    for m in maps:
        for x in mp.subgroup.generators:
            if m[x] not in pset:
                raise InternalCheckError(
                    "pair automorphism moved the marked subgroup"
                )
    return maps


@dataclass(frozen=True)
class ElementAction:
    """A group of automorphisms realized as permutations of element labels."""

    group: PermGroup
    labels: tuple
    index: dict

    def perm_from_map(self, m) -> Permutation:
        return Permutation(self.index[m[x]] for x in self.labels)

    def apply(self, perm: Permutation, x: Permutation) -> Permutation:
        return self.labels[perm.images[self.index[x]]]


def action_from_maps(mp: MarkedPair, maps) -> ElementAction:
    """Aut(L, u) acting on the element labels of the marked group, closed
    from the strong generators returned by pair_automorphism_maps.

    The closed order must equal the product of the basic orbit lengths
    along the base, which holds exactly when the maps are a strong
    generating set for that base.
    """
    labels = mp.group.elements()
    index = {x: i for i, x in enumerate(labels)}
    group = PermGroup(
        len(labels), [Permutation(index[m[x]] for x in labels) for m in maps]
    )
    sequence = _pair_sequence(mp)
    expected = 1
    for i, x in enumerate(sequence):
        stabilizer = [m for m in maps if all(m[y] == y for y in sequence[:i])]
        expected *= len(_basic_orbit(x, stabilizer))
    if group.order != expected:
        raise InternalCheckError(
            f"Aut(L, u) closed from its generators has order {group.order}, "
            f"not the basic orbit product {expected}"
        )
    return ElementAction(group=group, labels=labels, index=index)


def inner_automorphism_subgroup(G: PermGroup, action: ElementAction) -> Subgroup:
    """Inn(G) inside an automorphism action on the elements of G."""
    perms = [
        action.perm_from_map({x: conjugate(g, x) for x in action.labels})
        for g in G.generators
    ]
    return action.group.subgroup(perms)
