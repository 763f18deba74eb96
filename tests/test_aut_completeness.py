"""Aut(L, u) from strong generators against the full enumeration.

The stabilizer-chain backtrack keeps one automorphism per new basic orbit
point, so each of its searches is a first-hit search.  That every search
is exact is shown in test_search_equivalence; here the group closed from
the generators must be the whole of Aut(L, u): its element set must equal
the set of every automorphism listed by ``oracles.leaf_only_search`` over
the same candidate lists.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DATA_DIR
from blockfunctor import autos
from blockfunctor.autos import MarkedPair, action_from_maps, pair_automorphism_maps
from blockfunctor.config import max_order
from blockfunctor.ddelta import PairClassRegistry
from blockfunctor.errors import SizeBoundError
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.permgroup import group_from_generators
from blockfunctor.permutation import Permutation

FIXTURES = ("s3", "c3", "a4", "s4", "f20", "f20b", "f21", "g72", "g56")


def candidate_lists(mp):
    """The candidate lists pair_automorphism_maps draws its images from."""
    G = mp.group
    restrictions = []
    if not mp.element.is_identity():
        restrictions.append(set(G.conjugacy_data()[G.class_index_of(mp.element)].elements))
    restrictions.extend([None] * len(mp.subgroup.generators))
    return autos._candidate_lists(G, G, autos._pair_sequence(mp), restrictions)


def enumerated_automorphisms(mp, lists):
    """Every automorphism of the leaf-only search, as label permutations."""
    G = mp.group
    index = {x.images: i for i, x in enumerate(G.elements())}
    maps = oracles.leaf_only_search(
        G.identity.images,
        G.identity.images,
        G.order,
        G.order,
        [g.images for g in autos._pair_sequence(mp)],
        [[y.images for y in pool] for pool in lists],
    )
    return {tuple(index[m[x]] for x in index) for m in maps}


def closed_automorphisms(mp):
    action = action_from_maps(mp, pair_automorphism_maps(mp))
    return {g.images for g in action.group.elements()}


@pytest.mark.parametrize("name", FIXTURES + ("f75",))
def test_generators_close_to_every_pair_automorphism(name, monkeypatch):
    if name == "f75":
        # Aut(L, u) of the class (25, 3) has order 600
        monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "2000")
    loaded = load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))
    registry = PairClassRegistry()
    registry.classify_group(loaded.group, loaded.p)
    assert registry.classes
    for cls in registry.classes:
        mp = cls.realization
        assert closed_automorphisms(mp) == enumerated_automorphisms(mp, candidate_lists(mp))


def permutations_of(n):
    return st.permutations(range(n)).map(Permutation)


@st.composite
def small_groups(draw):
    n = draw(st.integers(1, 7))
    gens = [draw(permutations_of(n)), draw(permutations_of(n))]
    try:
        return group_from_generators(n, gens)
    except SizeBoundError:
        assume(False)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_groups())
def test_automorphism_group_order_matches_enumeration(G):
    mp = MarkedPair(G, G.full_subgroup(), G.identity)
    lists = candidate_lists(mp)
    # the oracle closes every candidate tuple; keep its cost small
    assume(math.prod(len(pool) for pool in lists) <= 2000)
    expected = enumerated_automorphisms(mp, lists)
    if len(expected) > max_order():
        with pytest.raises(SizeBoundError):
            pair_automorphism_maps(mp)
    else:
        assert closed_automorphisms(mp) == expected
