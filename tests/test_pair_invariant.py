"""Keyed pair classification against the linear scan it replaced.

The registry tests a new pair for isomorphism only against the classes
with the same key.  That is exact when the key is an isomorphism
invariant, so it must give the same class ids, members and witnesses as
``oracles.LinearScanRegistry``, which tries every class on the faithful
quotients; a witness is compared on labels, where P and its translations
agree.  Every two class realizations that are isomorphic as pairs must
have equal keys.
Relabeling the points of a group must leave its classes unchanged.
The normalizer memo must give the brute-force normalizer, also to a new
Subgroup object with the same elements.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DATA_DIR
from blockfunctor.autos import find_pair_isomorphism
from blockfunctor.ddelta import PairClassRegistry
from blockfunctor.errors import SizeBoundError
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.permgroup import (
    PermGroup,
    is_prime,
    normalizer,
    p_subgroup_classes,
)
from blockfunctor.permutation import Permutation, conjugate

FIXTURES = ("s3", "c3", "a4", "s4", "f20", "f20b", "f21", "g72", "g56")


def load(name):
    return load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))


def relabeled(G, points):
    """G with point i renamed points[i]."""
    pi = Permutation(points)
    return PermGroup(G.degree, [conjugate(pi.inverse(), g) for g in G.generators])


def reversed_points(G):
    return relabeled(G, tuple(reversed(range(G.degree))))


def table(registry):
    """Class ids with their keys and members: pair, and the witness, the
    permutation sending the label of l in L to the label of its image in
    P."""
    return [
        (
            cls.class_id,
            cls.key,
            [(m.pair.subgroup.element_set(), m.pair.element, m.witness) for m in cls.members],
        )
        for cls in registry.classes
    ]


def assignment(assignments):
    return [(cls.class_id, cls.members.index(member)) for cls, member in assignments]


def assert_same_as_linear_scan(groups, p):
    """Classify the groups in order into one keyed registry and into one
    linear-scan registry; both must agree class by class."""
    keyed = PairClassRegistry()
    scanned = oracles.LinearScanRegistry()
    for G in groups:
        assert assignment(keyed.classify_group(G, p)) == assignment(
            scanned.classify_group(G, p)
        )
    assert table(keyed) == table(scanned)


@pytest.mark.parametrize("name", FIXTURES + ("f75",))
def test_keyed_classification_matches_the_linear_scan(name):
    loaded = load(name)
    assert_same_as_linear_scan([loaded.group], loaded.p)


def compare_pairs():
    """Every ordered pair of distinct same-prime fixtures, and every
    fixture against a relabeled copy of itself."""
    loaded = [load(name) for name in FIXTURES]
    for left, right in itertools.permutations(loaded, 2):
        if left.p == right.p:
            yield left.p, left.group, right.group
    for one in loaded:
        yield one.p, one.group, reversed_points(one.group)


def test_compare_pairs_in_one_registry_match_the_linear_scan():
    cases = list(compare_pairs())
    assert len(cases) == 14 + len(FIXTURES)
    for p, left, right in cases:
        assert_same_as_linear_scan([left, right], p)


def test_isomorphic_realizations_have_equal_keys():
    realizations = []
    for name in FIXTURES:
        loaded = load(name)
        for G in (loaded.group, reversed_points(loaded.group)):
            registry = PairClassRegistry()
            registry.classify_group(G, loaded.p)
            realizations.extend((cls.realization, cls.key) for cls in registry.classes)
    hits = 0
    for (a, key_a), (b, key_b) in itertools.combinations(realizations, 2):
        if find_pair_isomorphism(a, b) is not None:
            hits += 1
            assert key_a == key_b
    # each class of each fixture meets at least its relabeled copy
    assert hits >= len(realizations) // 2


def permutations_of(n):
    return st.permutations(range(n)).map(Permutation)


@st.composite
def relabeled_small_groups(draw):
    """A group on at most 7 points from 2 random generators, a prime,
    and the same group with its points relabeled at random."""
    n = draw(st.integers(1, 7))
    gens = [draw(permutations_of(n)), draw(permutations_of(n))]
    try:
        G = PermGroup(n, gens)
    except SizeBoundError:
        assume(False)
    # keep the cost of classification small
    assume(G.order <= 168)
    primes = [q for q in range(2, G.order + 1) if G.order % q == 0 and is_prime(q)]
    p = draw(st.sampled_from(primes or [2]))
    return G, p, relabeled(G, tuple(draw(st.permutations(range(n)))))


def class_shape(registry):
    return sorted((cls.key, len(cls.members)) for cls in registry.classes)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(relabeled_small_groups())
def test_relabeling_the_points_keeps_the_classes(case):
    G, p, H = case
    first, second = PairClassRegistry(), PairClassRegistry()
    first.classify_group(G, p)
    second.classify_group(H, p)
    assert class_shape(first) == class_shape(second)
    assert sorted((c.subgroup_order, c.element_order) for c in first.classes) == sorted(
        (c.subgroup_order, c.element_order) for c in second.classes
    )
    # in a shared registry the copy founds no class and meets each class
    # as often as the original did
    counts = [len(cls.members) for cls in first.classes]
    first.classify_group(H, p)
    assert [len(cls.members) for cls in first.classes] == [2 * n for n in counts]


@pytest.mark.parametrize("name", FIXTURES)
def test_normalizer_memo_matches_brute_force(name):
    G = load(name).group
    elements = {g.images for g in G.elements()}
    primes = [q for q in range(2, G.order + 1) if G.order % q == 0 and is_prime(q)]
    for p in primes:
        for P in p_subgroup_classes(G, p):
            expected = oracles.normalizer_elements(
                elements, {x.images for x in P.elements()}
            )
            first = normalizer(G, P)
            assert {g.images for g in first.elements()} == expected
            assert normalizer(G, P) is first
            # a new Subgroup object with the same elements
            other = G.subgroup(reversed(P.elements()))
            assert other is not P
            assert normalizer(G, other) is first
