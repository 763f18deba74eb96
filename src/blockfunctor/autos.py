"""Automorphism groups and isomorphism search by generator-image backtracking.

The search runs on labels (permgroup): the generators, their candidate
images and every partial map are labels, and products are read from the
tables of the two groups.  Candidate images are pruned by element order
and conjugacy class size.  The search then prunes by prefix: once
g1..gi have images, the map is closed on <g1..gi> (resuming from the
closure on <g1..g(i-1)>) and a conflict drops the whole subtree; a
generator that already lies in the prefix group has its image fixed, so
only that one candidate is tried.  Pruning is exact, so the maps are
found in the same depth-first order as by closing every full candidate
tuple.  Accepted maps are verified bijections on the whole group.
Searches are complete and deterministic.  A map is a label map: the
labels in the target group of the images of the source's elements, in
label order.  The candidates are tried in ascending label order, which
is the order of their image tuples, since elements() is sorted by them;
so the first hits, and every witness and strong generator taken from
them, are the maps an element search in image order finds.

A pair (L, u) is a group L with an element u normalizing it, and the
pair isomorphism search runs on L alone.  Only the action c_u of u on L
matters, so u may lie outside L and may centralize L without being 1.
The closure of a partial map is also closed under x -> u x u^-1 with
image u' m(x) u'^-1, on labels the cached actions c_u and c_u' of the
two pairs (MarkedPair.action), so a map that breaks the intertwining
relation conflicts as soon as its prefix does.  An isomorphism of pairs is an
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
from .permutation import Permutation
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
        try:
            self._induced
        except DomainError:
            raise DomainError("marked element does not normalize the subgroup") from None

    @cached_property
    def _induced(self) -> tuple:
        """c_u on the labels of L as PermGroup.induced gives it."""
        return self.subgroup.induced(self.element)

    @cached_property
    def action(self) -> Permutation:
        """c_u, the action of u on L by conjugation, on the labels of L;
        made on first read, since a psi pair (fusion.psi_pair) never reads
        it."""
        return Permutation(self._induced)

    @cached_property
    def action_order(self) -> int:
        """The order of c_u."""
        return self.action.order()


def _candidate_lists(A, B, sequence, restrictions):
    """Per-generator candidate image labels in B, ascending, filtered by
    the invariants of the labels of the generators in A."""
    pools = {}
    for y, key in enumerate(B.invariants):
        pools.setdefault(key, []).append(y)
    invariants = A.invariants
    lists = []
    for g, allowed in zip(sequence, restrictions):
        pool = pools.get(invariants[g], ())
        if allowed is not None:
            pool = [y for y in pool if y in allowed]
        if not pool:
            return None
        lists.append(pool)
    return lists


def _search_maps(A, B, sequence, restrictions, limit=None, commuting=None):
    """The isomorphisms A -> B respecting the restrictions, as label maps
    (close_map), in depth-first order of the candidate images; the search
    stops after ``limit`` maps.  The sequence holds labels of A and each
    restriction is None or a set of labels of B.

    With ``commuting`` = (c, d), label permutations of A and B that are
    automorphisms, every partial map is closed under x -> c[x] with image
    d[m(x)] as well, so a conflict with m(c[x]) = d[m(x)] drops the
    subtree and every full map found intertwines c with d.
    """
    if A.order != B.order:
        return []
    if A.order == 1:
        return [[0]]
    lists = _candidate_lists(A, B, sequence, restrictions)
    if lists is None:
        return []
    allowed = [set(pool) for pool in lists]
    found = []
    pairs = []

    def recurse(i, m):
        if i == len(sequence):
            if -1 not in m and len(set(m)) == B.order:
                found.append(m)
            return len(found) == limit
        g = sequence[i]
        fixed = m[g]
        if fixed >= 0:
            return fixed in allowed[i] and recurse(i + 1, m)
        for cand in lists[i]:
            pairs.append((g, cand))
            closed = close_map(A, B, pairs, start=m, twist=commuting)
            stop = closed is not None and recurse(i + 1, closed)
            pairs.pop()
            if stop:
                return True
        return False

    start = [-1] * A.order
    start[0] = 0
    recurse(0, start)
    # recurse refers to itself through its closure; unbinding it frees the
    # search state now instead of at the next full garbage collection
    del recurse
    return found


def _profile(group: PermGroup):
    return sorted(group.invariants[c.labels[0]] for c in group.conjugacy_data())


def _generator_labels(group: PermGroup) -> list:
    """The labels of the generators of a group, the sequence that every
    search on it runs along."""
    return [group.position(g) for g in group.generators]


def find_group_isomorphism(A: PermGroup, B: PermGroup):
    """An isomorphism A -> B as the label map that the search closed and
    checked to be a bijection, or None.  The search runs along the
    generators of A."""
    if A.order != B.order or _profile(A) != _profile(B):
        return None
    sequence = _generator_labels(A)
    maps = _search_maps(A, B, sequence, [None] * len(sequence), limit=1)
    return tuple(maps[0]) if maps else None


def find_pair_isomorphism(a: MarkedPair, b: MarkedPair):
    """An isomorphism f: L -> L' with f(u x u^-1) = u' f(x) u'^-1, as the
    label map on L that the search closed and checked to be a bijection,
    or None when there is none."""
    L, M = a.subgroup, b.subgroup
    if L.order != M.order or a.action_order != b.action_order:
        return None
    if _profile(L) != _profile(M):
        return None
    # c_u and c_u' have one order, so both or neither are trivial
    twist = None if a.action_order == 1 else (a.action.images, b.action.images)
    sequence = _generator_labels(L)
    maps = _search_maps(L, M, sequence, [None] * len(sequence), 1, twist)
    return tuple(maps[0]) if maps else None


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
    sequence = _generator_labels(L)
    lists = _candidate_lists(L, L, sequence, [None] * len(sequence))
    free = [set(pool) for pool in lists]
    gens = []

    def step(y):
        return [g.images[y] for g in gens]

    order = 1
    for i in reversed(range(len(sequence))):
        x = sequence[i]
        fixed = [{y} for y in sequence[:i]]
        basic = orbit(x, step)
        for cand in lists[i]:
            if cand in basic:
                continue
            hit = _search_maps(L, L, sequence, fixed + [{cand}] + free[i + 1:], 1)
            if not hit:
                continue
            gens.append(Permutation(hit[0]))
            basic = orbit(x, step)
            if order * len(basic) > bound:
                raise SizeBoundError(
                    f"automorphism search, pair class (|L|={L.order}, "
                    f"ord u=1): C_Aut(L)(c_u) has more than "
                    f"{bound} elements, over the configured bound {bound}"
                )
        order *= len(basic)
    return gens
