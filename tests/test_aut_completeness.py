"""C = C_Aut(L)(c_u) as a centralizer in Aut(L), against full enumerations.

Aut(L) comes from a stabilizer-chain backtrack that keeps one
automorphism per new basic orbit point, so each of its searches is a
first-hit search, and C is the stabilizer of c_u under conjugation in
Aut(L).  That every search is exact is shown in test_search_equivalence;
here the group closed from the generators must be the whole of C.  On
the pair classes of the fixtures its element set must equal that of
every automorphism of L commuting with conjugation by u, found by
closing every tuple of images in L of the generators of L.  On random
small groups G, marked (G, 1) so that C = Aut(G), it must equal the set
of every automorphism listed by ``oracles.leaf_only_search`` over the
search's own candidate lists.  On the classes of the fixtures, F75 and
random small groups it must equal the C that
``oracles.twisted_centralizer`` finds by a search closed under the twist.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DATA_DIR
from blockfunctor.autos import MarkedPair, pair_automorphism_maps
from blockfunctor.config import max_order
from blockfunctor.ddelta import PairClass, PairClassRegistry, SharedGroups
from blockfunctor.errors import SizeBoundError
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.permgroup import PermGroup, is_prime
from blockfunctor.permutation import Permutation

FIXTURES = ("s3", "c3", "a4", "s4", "f20", "f20b", "f21", "g72", "g56")


def candidate_lists(mp):
    """The candidate lists pair_automorphism_maps draws its images from
    on a marking (G, 1), as elements."""
    G = mp.subgroup
    return oracles.element_candidates(G, G, G.generators, [None] * len(G.generators))


def enumerated_automorphisms(G, gens, lists):
    """Every automorphism of G from the leaf-only search over images of
    gens drawn from lists, as maps on image tuples."""
    return oracles.leaf_only_search(
        G.identity.images,
        G.identity.images,
        G.order,
        G.order,
        [g.images for g in gens],
        [[y.images for y in pool] for pool in lists],
    )


def as_label_perms(G, maps):
    index = {x.images: i for i, x in enumerate(G.elements())}
    return {tuple(index[m[x]] for x in index) for m in maps}


def closed_automorphisms(mp):
    """C closed by the package on the sorted elements of L."""
    return {g.images for g in PairClass(0, mp, (), SharedGroups()).aut.elements()}


def commuting_automorphisms(mp):
    """Every automorphism of L that commutes with conjugation by u, from
    closing every tuple of images in L of the generators of L."""
    L = mp.subgroup
    u = mp.element.images
    maps = enumerated_automorphisms(L, L.generators, [L.elements()] * len(L.generators))
    commuting = [
        m for m in maps if all(m[oracles.conj(u, x)] == oracles.conj(u, m[x]) for x in m)
    ]
    return as_label_perms(L, commuting)


@pytest.mark.parametrize("name", FIXTURES + ("f75",))
def test_generators_close_to_every_pair_automorphism(name):
    loaded = load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))
    registry = PairClassRegistry()
    registry.classify_group(loaded.group, loaded.p)
    assert registry.classes
    for cls in registry.classes:
        mp = cls.realization
        assert closed_automorphisms(mp) == commuting_automorphisms(mp)


def permutations_of(n):
    return st.permutations(range(n)).map(Permutation)


@st.composite
def small_groups(draw):
    n = draw(st.integers(1, 7))
    gens = [draw(permutations_of(n)), draw(permutations_of(n))]
    try:
        return PermGroup(n, gens)
    except SizeBoundError:
        assume(False)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_groups())
def test_automorphism_group_order_matches_enumeration(G):
    mp = MarkedPair(G, G.identity)
    lists = candidate_lists(mp)
    # the oracle closes every candidate tuple; keep its cost small
    assume(math.prod(len(pool) for pool in lists) <= 2000)
    expected = as_label_perms(G, enumerated_automorphisms(G, G.generators, lists))
    if len(expected) > max_order():
        with pytest.raises(SizeBoundError):
            pair_automorphism_maps(G)
    else:
        assert closed_automorphisms(mp) == expected


@pytest.mark.parametrize("name", FIXTURES + ("f75",))
def test_centralizer_matches_the_twisted_search(name):
    loaded = load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))
    registry = PairClassRegistry()
    registry.classify_group(loaded.group, loaded.p)
    for cls in registry.classes:
        assert cls.aut.element_set() == oracles.twisted_centralizer(cls.realization)


@st.composite
def small_groups_at_a_prime(draw):
    G = draw(small_groups())
    assume(G.order <= 168)  # keep the cost of classification small
    primes = [q for q in range(2, G.order + 1) if G.order % q == 0 and is_prime(q)]
    return G, draw(st.sampled_from(primes or [2]))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(small_groups_at_a_prime())
def test_centralizer_matches_the_twisted_search_on_random_groups(case):
    G, p = case
    registry = PairClassRegistry()
    registry.classify_group(G, p)
    for cls in registry.classes:
        assert cls.aut.element_set() == oracles.twisted_centralizer(cls.realization)


def assert_inner_matches_the_element_walk(G, p):
    """N from the labels that c_u fixes and the table of L, against N
    from an element walk over the class of u under L, on every class."""
    registry = PairClassRegistry()
    registry.classify_group(G, p)
    for cls in registry.classes:
        assert cls.inner.element_set() == oracles.element_walk_inner(cls).element_set()


@pytest.mark.parametrize("name", FIXTURES + ("f75",))
def test_inner_matches_the_element_walk(name):
    loaded = load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))
    assert_inner_matches_the_element_walk(loaded.group, loaded.p)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(small_groups_at_a_prime())
def test_inner_matches_the_element_walk_on_random_groups(case):
    assert_inner_matches_the_element_walk(*case)
