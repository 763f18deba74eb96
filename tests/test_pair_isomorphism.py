"""Pair isomorphism on L against the carrier route it replaced.

``find_pair_isomorphism`` searches for f: L -> L' closed under
x -> u x u^-1 with image u' f(x) u'^-1.  ``oracles.carrier_pair_isomorphism``
searches the carriers L<u> and L'<u'> for an isomorphism taking L onto L'
and u into the class of u'.  On the faithful quotients of every pair orbit,
for every two quotients with the same class key, one must find a map
exactly when the other does, and every map found on L must intertwine
conjugation by u with conjugation by u' on all of L.  The cases are the
nine fixtures, F75, the groups with no normal Sylow subgroup at every
prime dividing their order, and random groups against a relabeled copy.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DATA_DIR
from blockfunctor.autos import find_pair_isomorphism
from blockfunctor.ddelta import (
    PairClass,
    PairClassRegistry,
    SharedGroups,
    pair_class_key,
    pair_orbit_reps,
)
from blockfunctor.errors import SizeBoundError
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.permgroup import PermGroup, is_prime
from blockfunctor.permutation import Permutation, conjugate

FIXTURES = ("s3", "c3", "a4", "s4", "f20", "f20b", "f21", "g72", "g56", "f75")
# groups with no normal Sylow subgroup, by degree and generators
NONNORMAL = {
    "s4": (4, ("(1,2,3,4)", "(1,2)")),
    "s5": (5, ("(1,2,3,4,5)", "(1,2)")),
    "a5": (5, ("(1,2,3)", "(1,2,3,4,5)")),
    "psl27": (7, ("(1,2,3,4,5,6,7)", "(3,5)(6,7)")),
    "a6": (6, ("(1,2,3)", "(2,3,4,5,6)")),
    "s3xs3": (6, ("(1,2,3)", "(1,2)", "(4,5,6)", "(4,5)")),
}


def primes_of(n):
    return [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]


def nonnormal_cases():
    for name, (degree, cycles) in NONNORMAL.items():
        G = PermGroup(degree, [Permutation.parse(degree, c) for c in cycles])
        for p in primes_of(G.order):
            yield f"{name}-p{p}", G, p


def fixture_cases():
    for name in FIXTURES:
        loaded = load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))
        yield name, loaded.group, loaded.p


CASES = list(fixture_cases()) + list(nonnormal_cases())


def quotients(G, p):
    return [oracles.faithful_quotient(pair) for pair in pair_orbit_reps(G, p)]


def assert_intertwines(m, a, b):
    """The label map m sends L onto L', and m(u x u^-1) = u' m(x) u'^-1 on
    all of L."""
    L, M = a.subgroup, b.subgroup
    assert len(m) == L.order and sorted(m) == list(range(M.order))
    image = dict(zip(L.elements(), (M.elements()[j] for j in m)))
    assert all(
        image[conjugate(a.element, x)] == conjugate(b.element, y) for x, y in image.items()
    )


def check_same_key_pairs(left, right):
    """Compare both routes on every (a, b) from left x right with equal
    keys; returns the numbers of hits and misses."""
    keys = {id(b): pair_class_key(b) for b in right}
    hits = misses = 0
    for a in left:
        key = pair_class_key(a)
        for b in right:
            if keys[id(b)] != key:
                continue
            f = find_pair_isomorphism(a, b)
            assert (f is None) == (oracles.carrier_pair_isomorphism(a, b) is None)
            if f is None:
                misses += 1
            else:
                assert_intertwines(f, a, b)
                hits += 1
    return hits, misses


@pytest.mark.parametrize("name,G,p", CASES, ids=[c[0] for c in CASES])
def test_pair_isomorphism_matches_the_carrier_route(name, G, p):
    marked = quotients(G, p)
    hits, misses = check_same_key_pairs(marked, marked)
    # every quotient meets at least itself
    assert hits >= len(marked)
    # a key is not a complete invariant: here some two quotients share a
    # key and are not isomorphic, so the routes are compared on misses too
    if name in ("g72", "g56"):
        assert misses > 0


@pytest.mark.parametrize("name,G,p", CASES, ids=[c[0] for c in CASES])
def test_classes_on_p_match_the_translation_route(name, G, p):
    # a class realized on its founding member's P has the key, the order
    # of u, C and N of the same class realized on the translations of P
    registry = PairClassRegistry()
    registry.classify_group(G, p)
    for cls in registry.classes:
        quotient = oracles.faithful_quotient(cls.members[0].pair)
        translated = PairClass(cls.class_id, quotient, pair_class_key(quotient), SharedGroups())
        assert translated.key == cls.key
        assert translated.element_order == cls.element_order
        assert translated.aut.element_set() == cls.aut.element_set()
        assert translated.inner.element_set() == cls.inner.element_set()


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
    # keep the cost of the carrier searches small
    assume(G.order <= 168)
    p = draw(st.sampled_from(primes_of(G.order) or [2]))
    pi = Permutation(draw(st.permutations(range(n))))
    H = PermGroup(n, [conjugate(pi.inverse(), g) for g in G.generators])
    return G, p, H


@settings(max_examples=40, derandomize=True, deadline=None)
@given(relabeled_small_groups())
def test_relabeled_pairs_match_the_carrier_route(case):
    G, p, H = case
    left, right = quotients(G, p), quotients(H, p)
    hits, _ = check_same_key_pairs(left, right)
    # each quotient of G is isomorphic to its relabeled copy
    assert hits >= len(left)
