"""Out(L, u) as C / N against the carrier route it replaced.

The package computes C = C_Aut(L)(c_u) on the labels of L and its normal
subgroup N = <c_u, c_x : x in C_L(u)>, takes the irreducibles of Out as
the characters of C trivial on N, and carries every subgroup of Out by
its preimage in C.  ``oracles.carrier_out`` builds Out as before: Aut(L, u)
closed on the labels of the carrier from a search of every level, Inn
inside it, and the coset action with its projection.  Class by class,
both must give the same |Out|, the same degrees of the irreducibles in
the same order, the same normalizer images (mapped into the carrier
route's Out), the same multiplicities and the same verify-psi stabilizer
orders.  The cases cover the nine fixtures, F75, and groups with no
normal Sylow subgroup, whose classes include non-abelian L.
"""

import pytest

import oracles
from conftest import DATA_DIR
from blockfunctor.chartab import fixed_point_dim
from blockfunctor.ddelta import PairClassRegistry, image_of_normalizer
from blockfunctor.fusion import build_fusion, verify_class
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.multiplicity import mult_table_pairs
from blockfunctor.permgroup import PermGroup
from blockfunctor.permutation import Permutation

FIXTURES = ("s3", "c3", "a4", "s4", "f20", "f20b", "f21", "g72", "g56", "f75")
# D : E fixtures, which have the fusion route and verify-psi
DE = ("s3", "c3", "a4", "f20", "f20b", "f21", "g72", "g56", "f75")
GENERATED = {
    "s5": (5, ("(1,2,3,4,5)", "(1,2)")),
    "a6": (6, ("(1,2,3)", "(2,3,4,5,6)")),
    "psl27": (7, ("(1,2,3,4,5,6,7)", "(3,5)(6,7)")),
}
CASES = [(name, None) for name in FIXTURES] + [
    ("a6", 2), ("s5", 2), ("s5", 3), ("s5", 5), ("psl27", 2), ("psl27", 3), ("psl27", 7),
]


def load_case(name, p):
    if name in GENERATED:
        degree, cycles = GENERATED[name]
        return PermGroup(
            degree, [Permutation.parse(degree, c) for c in cycles]
        ), p
    loaded = load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))
    return loaded.group, loaded.p


@pytest.mark.parametrize("name,p", CASES, ids=[f"{n}-p{p}" if p else n for n, p in CASES])
def test_out_matches_the_carrier_route(name, p, monkeypatch):
    # the carrier route's Aut(L, u) of F75's class (25, 3) has order 600
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "2000")
    G, p = load_case(name, p)
    registry = PairClassRegistry()
    table = mult_table_pairs(G, p, registry)
    outs = {}
    for cls in registry.classes:
        out = outs[cls.class_id] = oracles.carrier_out(cls)
        assert out.out_group.order == cls.out_order == cls.aut.order // cls.inner.order
        assert out.table.degrees == tuple(cls.aut_table.degrees[r] for r in cls.out_rows)
        expected = [0] * len(cls.out_rows)
        for member in registry.members_for(G, cls):
            pair = member.pair
            image = image_of_normalizer(cls, pair, member.witness)
            carrier_image = oracles.carrier_image_of_normalizer(
                out, cls, G, pair.subgroup, pair.element, member.witness
            )
            projected = {out.project_c(c) for c in image.elements()}
            assert projected == carrier_image.element_set()
            assert image.order == cls.inner.order * carrier_image.order
            for irr in range(len(expected)):
                expected[irr] += fixed_point_dim(out.table, irr, carrier_image)
        assert [table.rows[(cls.class_id, irr)] for irr in range(len(expected))] == expected

    if name not in DE:
        return
    F = build_fusion(G, p)
    checked = 0
    for cls in registry.classes:
        if cls.subgroup_order == 1 or not registry.members_for(G, cls):
            continue
        orbits = oracles.section_scan_triple_orbits(F, cls, outs[cls.class_id])
        assert verify_class(F, cls, registry).stabilizer_orders == tuple(
            len(stabilizer) for _, _, found in orbits for _, _, stabilizer in found
        )
        checked += 1
    assert checked > 0


def test_the_cases_include_non_abelian_l(monkeypatch):
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "2000")
    shapes = set()
    for name, p in CASES:
        G, p = load_case(name, p)
        registry = PairClassRegistry()
        registry.classify_group(G, p)
        for cls in registry.classes:
            if not cls.realization.subgroup.is_abelian():
                shapes.add((cls.subgroup_order, cls.element_order, cls.inner.order))
    # D8 with u = 1: Out(D8) = D8 / Inn(D8) has order 2
    assert shapes == {(8, 1, 4)}
