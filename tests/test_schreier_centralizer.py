"""The generators of C_{N_G(P)}(s) that a pair carries, against the
element scan.

Both routes hand image_of_normalizer the Schreier generators of the walk
over the N_G(P)-class of s: pair_orbit_reps for the pair orbits, psi_pair
for the pairs verify-psi builds from triple orbits.  The group they
generate must be the centralizer that oracles.centralizer lists by testing
every element of N_G(P).  The pair orbits are those of the pair-isomorphism
cases (the nine fixtures, F75, and the groups with no normal Sylow
subgroup at every prime); the psi pairs are those of the affine benchmark
groups.
"""

import pytest

import oracles
from conftest import DATA_DIR
from blockfunctor.ddelta import PairClassRegistry, pair_orbit_reps
from blockfunctor.fusion import build_fusion, psi_pair, triple_orbits
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.permgroup import (
    PermGroup,
    class_and_centralizer,
    frobenius_group,
    normalizer,
)
from blockfunctor.permutation import Permutation
from test_pair_isomorphism import CASES

# the groups of the affine benchmark workload: a fixture name, or the
# (p, rank, matrix) of a frobenius group
AFFINE = {
    "G56": "g56",
    "G72": "g72",
    "F156": (13, 1, ((2,),)),
    "F110": (11, 1, ((2,),)),
    "C3^2:C4": (3, 2, ((0, 2), (1, 0))),
    "C11:C5": (11, 1, ((3,),)),
    "C7:C6": (7, 1, ((3,),)),
    "F20": "f20",
    "F21": "f21",
    "A4": "a4",
    "S3": "s3",
}


def load_fixture(name):
    loaded = load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))
    return loaded.group, loaded.p


def assert_generates_the_centralizer(G, pair):
    N = normalizer(G, pair.subgroup)
    expected = oracles.centralizer(N, pair.element).element_set()
    generated = PermGroup(G.degree, pair.centralizer_gens).element_set()
    assert generated == expected


def test_class_and_centralizer_examples():
    s3 = PermGroup(3, [Permutation.parse(3, "(1,2,3)"), Permutation.parse(3, "(1,2)")])
    transposition = Permutation.parse(3, "(1,2)")
    conj_class, gens = class_and_centralizer(s3.generators, transposition)
    assert len(conj_class) == 3
    assert PermGroup(3, gens).element_set() == {s3.identity, transposition}
    # the identity is its own class, and every generator centralizes it
    conj_class, gens = class_and_centralizer(s3.generators, s3.identity)
    assert conj_class == {s3.identity}
    assert set(gens) == set(s3.generators)


@pytest.mark.parametrize("name,G,p", CASES, ids=[case[0] for case in CASES])
def test_pair_orbit_generators_match_the_element_scan(name, G, p):
    pairs = pair_orbit_reps(G, p)
    assert pairs
    for pair in pairs:
        assert_generates_the_centralizer(G, pair)


@pytest.mark.parametrize("name", AFFINE)
def test_psi_pair_generators_match_the_element_scan(name):
    source = AFFINE[name]
    if isinstance(source, str):
        G, p = load_fixture(source)
    else:
        G, p = frobenius_group(*source).group, source[0]
    F = build_fusion(G, p)
    registry = PairClassRegistry()
    registry.classify_group(G, p)
    checked = 0
    for cls in registry.classes:
        if cls.subgroup_order == 1 or not registry.members_for(G, cls):
            continue
        for orbit in triple_orbits(F, cls):
            assert_generates_the_centralizer(G, psi_pair(F, cls, orbit))
            checked += 1
    assert checked
