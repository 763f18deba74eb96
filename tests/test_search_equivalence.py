"""The pruned generator-image search against the leaf-only oracle.

Every call the pipeline makes to the search while classifying pairs,
computing Aut(L), running the fusion route and comparing groups is
recorded, then repeated with ``oracles.leaf_only_search`` over the same
candidate lists.  Pruning is exact only if both return the same first
map, so the same witness, isomorphism and strong generator of Aut(L).
The pair isomorphism search runs on L and closes every partial map
under conjugation by (u, u'), so the relation m(u x u^-1) = u' m(x) u'^-1
prunes the search; the oracle closes only complete tuples and checks
that relation on every element of L.  The searches for Aut(L) run
without that twist.

The package searches on labels: each recorded call is read back into
image tuples through the elements of A and B, and a twist, the actions
of u and u' on labels, through the marked pairs of the registry that
carry them, so that the oracle conjugates by u and u' itself.
"""

import itertools

import pytest

import oracles
from conftest import DATA_DIR
from blockfunctor import autos
from blockfunctor.ddelta import PairClassRegistry
from blockfunctor.fusion import build_fusion
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.multiplicity import compare, mult_table_fusion, mult_table_pairs

FIXTURES = ("s3", "c3", "a4", "s4", "f20", "f20b", "f21", "g72", "g56")


def load(name):
    return load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))


@pytest.fixture
def searches(monkeypatch):
    """Every search call made while the test runs, with its result."""
    calls = []
    search = autos._first_map

    def recording(A, B, sequence, lists, twist=None):
        found = search(A, B, sequence, lists, twist)
        calls.append((A, B, sequence, lists, twist, found))
        return found

    monkeypatch.setattr(autos, "_first_map", recording)
    return calls


def marked_elements(*registries):
    """(subgroup, action on its labels) -> the marked element, for every
    realization and member of the registries: how a recorded twist on
    labels is read back into elements."""
    out = {}
    for registry in registries:
        for cls in registry.classes:
            for marked in [cls.realization] + [m.pair for m in cls.members]:
                out[id(marked.subgroup), marked.action.images] = marked.element
    return out


def assert_same_as_leaf_only(calls, elements_of_twist=None):
    assert calls
    for A, B, sequence, lists, twist, found in calls:
        a_images = [x.images for x in A.elements()]
        b_images = [y.images for y in B.elements()]
        if twist is not None:
            c, d = twist
            twist = (elements_of_twist[id(A), c].images, elements_of_twist[id(B), d].images)
        expected = oracles.leaf_only_search(
            A.identity.images,
            B.identity.images,
            A.order,
            B.order,
            [a_images[g] for g in sequence],
            [[b_images[y] for y in pool] for pool in lists],
            limit=1,
            commuting=twist,
        )
        got = [] if found is None else [dict(zip(a_images, [b_images[j] for j in found]))]
        assert got == expected


@pytest.mark.parametrize("name", FIXTURES + ("f75",))
def test_every_pair_class_search_matches_leaf_only(name, searches):
    loaded = load(name)
    registry = PairClassRegistry()
    registry.classify_group(loaded.group, loaded.p)
    classified = len(searches)
    for cls in registry.classes:
        cls.aut  # runs pair_automorphism_maps once per distinct L
    # C is a centralizer in Aut(L), so the searches behind it are those
    # for Aut(L) on the realizations, with no twist (an L whose generators
    # have no other candidate images, such as C2, needs no search)
    aut_calls = searches[classified:]
    assert aut_calls
    assert all(A is B and twist is None for A, B, *_, twist, _ in aut_calls)
    assert {call[0].element_set() for call in aut_calls} <= {
        cls.realization.subgroup.element_set() for cls in registry.classes
    }
    if name != "s4":
        mult_table_fusion(build_fusion(loaded.group, loaded.p), registry)
    assert_same_as_leaf_only(searches, marked_elements(registry))


def test_compare_searches_match_leaf_only(searches):
    by_prime = {}
    for name in FIXTURES:
        loaded = load(name)
        by_prime.setdefault(loaded.p, []).append(loaded)
    verdicts = 0
    registries = []
    for p, groups in sorted(by_prime.items()):
        registry = PairClassRegistry()
        registries.append(registry)
        tables = [mult_table_pairs(g.group, p, registry) for g in groups]
        for left, right in itertools.permutations(tables, 2):
            compare(left, right)
            verdicts += 1
    assert verdicts == 14
    assert_same_as_leaf_only(searches, marked_elements(*registries))


def test_an_image_fixed_by_the_prefix_must_still_be_a_candidate(searches):
    # g2 = g1^2 lies in <g1>, so its image is fixed; the candidate list
    # [g1] admits it only when g1 goes to g1^2
    C3 = load("c3").group
    g1 = C3.position(C3.generators[0])
    g2 = C3.table[g1][g1]
    lists = autos._candidate_lists(C3, C3, [g1, g2])
    assert lists == [sorted([g1, g2])] * 2
    found = autos._first_map(C3, C3, [g1, g2], [lists[0], [g1]])
    assert found[g1] == g2
    assert autos._first_map(C3, C3, [g1, g2], [[g1], [g1]]) is None
    assert_same_as_leaf_only(searches)
