"""Automorphism groups and isomorphism search by generator-image backtracking.

Candidate images are pruned by element order and conjugacy class size.
The search then prunes by prefix: once g1..gi have images, the map is
closed on <g1..gi> (resuming from the closure on <g1..g(i-1)>) and a
conflict drops the whole subtree; a generator that already lies in the
prefix group has its image fixed, so only that one candidate is tried.
Pruning is exact, so the maps are found in the same depth-first order
as by closing every full candidate tuple.  Accepted maps are verified
bijections on the whole group.  Searches are complete and deterministic.
The search works on element maps, and a map leaves this module in one
form only, as a label map (_label_map): the labels in the target group
(PermGroup.position) of the images of the source's elements, in label
order.

A pair (L, u) is a group L with an element u normalizing it, and the
pair isomorphism search runs on L alone.  Only the action c_u of u on L
matters, so u may lie outside L and may centralize L without being 1.
The closure of a partial map is also closed under x -> u x u^-1 with
image u' m(x) u'^-1, so a map that breaks the intertwining relation
conflicts as soon as its prefix does.  An isomorphism of pairs is an
isomorphism L -> L' found this way.  Aut(L) is computed without that
twist, as a strong generating set by a stabilizer-chain backtrack along
the generators l1..lk of L: each generator found answers one first-hit
search and is a permutation of the labels of L, and the basic orbits on
labels give |Aut(L)| before any closure.
C = C_Aut(L)(c_u) is not searched for: it is the centralizer of c_u in
Aut(L) (ddelta.PairClass.aut).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .config import max_order
from .errors import DomainError, SizeBoundError
from .permutation import Permutation, conjugate, conjugation
from .permgroup import (
    PermGroup,
    close_map,
    orbit,
)


@dataclass(frozen=True)
class MarkedPair:
    """A pair (L, u): a group L and an element u normalizing it.

    Two pairs are isomorphic when some isomorphism f: L -> L' satisfies
    f(u x u^-1) = u' f(x) u'^-1 on L.
    """

    subgroup: PermGroup
    element: Permutation

    def __post_init__(self):
        if self.element.degree != self.subgroup.degree:
            raise DomainError("marked element does not act on the points of the subgroup")
        pset = self.subgroup.element_set()
        for x in self.subgroup.generators:
            if conjugate(self.element, x) not in pset:
                raise DomainError("marked element does not normalize the subgroup")

    @cached_property
    def action(self) -> Permutation:
        """c_u, the action of u on L by conjugation, on the labels of L."""
        return self.subgroup.label_perm(conjugation(self.element))

    @cached_property
    def action_order(self) -> int:
        """The order of c_u."""
        return self.action.order()


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

    With ``commuting`` = (c, d), c normalizing A and d normalizing B, every
    partial map is closed under x -> c x c^-1 with image d m(x) d^-1 as
    well, so a conflict with m(c x c^-1) = d m(x) d^-1 drops the subtree
    and every full map found intertwines the two conjugations on A.
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
            if len(m) == A.order and len(set(m.values())) == B.order:
                found.append(m)
            return len(found) == limit
        g = sequence[i]
        fixed = m.get(g)
        if fixed is not None:
            return fixed in allowed[i] and recurse(i + 1, m)
        for cand in lists[i]:
            pairs.append((g, cand))
            closed = close_map(A, B, pairs, start=m, twist=commuting)
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


def _label_map(A: PermGroup, B: PermGroup, m) -> tuple:
    """The labels in B of the images under the element map m of the
    elements of A, in label order: the form in which every map the
    search found leaves this module."""
    position = B.position
    return tuple([position(m[x]) for x in A.elements()])


def find_group_isomorphism(A: PermGroup, B: PermGroup):
    """An isomorphism A -> B as the label map of the element map that the
    search closed and checked to be a bijection, or None.  The search
    runs along the generators of A."""
    if A.order != B.order or _profile(A) != _profile(B):
        return None
    sequence = list(A.generators)
    maps = _search_maps(A, B, sequence, [None] * len(sequence), limit=1)
    return _label_map(A, B, maps[0]) if maps else None


def find_pair_isomorphism(a: MarkedPair, b: MarkedPair):
    """An isomorphism f: L -> L' with f(u x u^-1) = u' f(x) u'^-1, as the
    label map of the element map on L that the search closed and checked
    to be a bijection, or None when there is none."""
    L, M = a.subgroup, b.subgroup
    if L.order != M.order or a.action_order != b.action_order:
        return None
    if _profile(L) != _profile(M):
        return None
    # c_u and c_u' have one order, so both or neither are trivial
    twist = None if a.action_order == 1 else (a.element, b.element)
    sequence = list(L.generators)
    maps = _search_maps(L, M, sequence, [None] * len(sequence), 1, twist)
    return _label_map(L, M, maps[0]) if maps else None


def pair_automorphism_maps(L: PermGroup):
    """Strong generators of Aut(L), the automorphisms of the pair (L, 1),
    as permutations of the labels of L.

    The candidate images of the generators l1..lk of L are the elements
    of L with the same order and L-class size.  The base is l1..lk.
    Level i is the subgroup fixing l1..l(i-1), and its basic orbit is the
    set of labels of the images of li under that subgroup.  The levels
    are filled from the deepest one up.  At level i every candidate image
    of li outside the orbit of the generators found so far is tested by
    one first-hit search with l1..l(i-1) fixed; a hit is a new strong
    generator and grows the orbit, a miss is not in the orbit.  So
    |Aut(L)| is the product of the basic orbit lengths, and
    SizeBoundError is raised as soon as that product passes the
    configured bound, before any group is built.
    """
    bound = max_order()
    sequence = list(L.generators)
    lists = _candidate_lists(L, L, sequence, [None] * len(sequence))
    free = [set(pool) for pool in lists]
    gens = []

    def step(y):
        return [g.images[y] for g in gens]

    order = 1
    for i in reversed(range(len(sequence))):
        x = L.position(sequence[i])
        fixed = [{y} for y in sequence[:i]]
        basic = orbit(x, step)
        for cand in lists[i]:
            if L.position(cand) in basic:
                continue
            hit = _search_maps(L, L, sequence, fixed + [{cand}] + free[i + 1:], 1)
            if not hit:
                continue
            gens.append(Permutation(_label_map(L, L, hit[0])))
            basic = orbit(x, step)
            if order * len(basic) > bound:
                raise SizeBoundError(
                    f"automorphism search, pair class (|L|={L.order}, "
                    f"ord u=1): C_Aut(L)(c_u) has more than "
                    f"{bound} elements, over the configured bound {bound}"
                )
        order *= len(basic)
    return gens
