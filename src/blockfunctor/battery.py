"""Built-in fixture groups and the self-test battery.

The golden multiplicity values below were confirmed against an
independent brute-force computation (exhaustive subgroup and pair
enumeration with explicit conjugation orbits and character sums) before
being frozen here; the acceptance suite re-derives them the same way.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import BlockfunctorError, DomainError
from .fusion import build_fusion, frobenius_structure, verify_class
from .multiplicity import (
    compare,
    cross_check_formulas,
    l_multiplicativity_check,
    mult_table_fusion,
    mult_table_pairs,
)
from .ddelta import PairClassRegistry
from .permgroup import PermGroup, frobenius_group
from .permutation import Permutation


def _gens(degree, *cycle_strings):
    return [Permutation.parse(degree, s) for s in cycle_strings]


@lru_cache(maxsize=None)
def s3():
    return PermGroup(3, _gens(3, "(1,2,3)", "(1,2)"))


@lru_cache(maxsize=None)
def s3_shifted():
    # the same group acting on {2,3,4} inside degree 4
    return PermGroup(4, _gens(4, "(2,3,4)", "(2,3)"))


@lru_cache(maxsize=None)
def c3():
    return PermGroup(3, _gens(3, "(1,2,3)"))


@lru_cache(maxsize=None)
def a4():
    return PermGroup(4, _gens(4, "(1,2)(3,4)", "(1,2,3)"))


@lru_cache(maxsize=None)
def s4():
    return PermGroup(4, _gens(4, "(1,2,3,4)", "(1,2)"))


@lru_cache(maxsize=None)
def f20():
    return frobenius_group(5, 1, [[2]]).group


@lru_cache(maxsize=None)
def f20_relabeled():
    # conjugate of the affine presentation by the transposition of 1 and 2
    swap = Permutation.parse(5, "(1,2)")
    gens = [swap.inverse() * g * swap for g in f20().generators]
    return PermGroup(5, gens)


@lru_cache(maxsize=None)
def f21():
    return frobenius_group(7, 1, [[2]]).group


@lru_cache(maxsize=None)
def g72():
    return frobenius_group(3, 2, [[0, 1], [1, 2]]).group


@lru_cache(maxsize=None)
def g56():
    return frobenius_group(2, 3, [[0, 0, 1], [1, 0, 1], [0, 1, 0]]).group


# (name, builder, prime); S4 is the negative fixture for the fusion route
FIXTURES = (
    ("S3", s3, 3),
    ("A4", a4, 2),
    ("F20", f20, 5),
    ("F21", f21, 7),
    ("G72", g72, 3),
    ("G56", g56, 2),
    ("C3", c3, 3),
    ("S4", s4, 2),
)

FROBENIUS_FIXTURES = tuple(
    (name, builder, p) for name, builder, p in FIXTURES if name != "S4"
)

# frozen golden tables, keyed ((|L|, order(u)), irreducible index)
GOLDEN_S3 = {
    ((1, 1), 0): 2,
    ((3, 1), 0): 1,
    ((3, 1), 1): 0,
    ((3, 2), 0): 1,
}
GOLDEN_A4 = {
    ((1, 1), 0): 3,
    ((2, 1), 0): 1,
    ((4, 1), 0): 1,
    ((4, 1), 1): 1,
    ((4, 1), 2): 0,
    ((4, 3), 0): 2,
}


def table_by_class_key(table) -> dict:
    """Rows keyed by ((|L|, order(u)), irr index); keys must be unique."""
    out = {}
    for (cid, irr), value in table.rows.items():
        cls = table.registry.classes[cid]
        key = ((cls.subgroup_order, cls.element_order), irr)
        if key in out:
            raise BlockfunctorError("class key collision; use class ids instead")
        out[key] = value
    return out


def run_selftest():
    """Run the fixture battery; returns (name, ok, detail) triples."""
    results = []

    def check(name, fn):
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    registry = PairClassRegistry()
    tables = {}

    for name, builder, p in FIXTURES:
        def l_row(builder=builder, p=p, name=name):
            table = mult_table_pairs(builder(), p, registry, name)
            tables[name] = table
            trivial = registry.trivial_class()
            assert table.rows[(trivial.class_id, 0)] == table.l
        check(f"l-row identity: {name}", l_row)

    for name, builder, p in FROBENIUS_FIXTURES:
        def cross(builder=builder, p=p, name=name):
            G = builder()
            F = build_fusion(G, p)
            cross_check_formulas(tables[name], mult_table_fusion(F, registry, name))
        check(f"cross-formula equality: {name}", cross)

        def psi(builder=builder, p=p, name=name):
            G = builder()
            F = build_fusion(G, p)
            for cls in registry.classes:
                if cls.subgroup_order == 1 or not registry.members_for(G, cls):
                    continue
                verify_class(F, cls, registry)
        check(f"orbit bijection and stabilizers: {name}", psi)

    def golden_s3():
        assert table_by_class_key(tables["S3"]) == GOLDEN_S3
    check("golden table: S3", golden_s3)

    def golden_a4():
        assert table_by_class_key(tables["A4"]) == GOLDEN_A4
    check("golden table: A4", golden_a4)

    def verdicts():
        shifted = mult_table_pairs(s3_shifted(), 3, registry, "S3-shifted")
        verdict = compare(tables["S3"], shifted)
        assert verdict.stable and verdict.functorial and verdict.defect_isomorphic
        assert not verdict.diff
        against_c3 = compare(tables["S3"], tables["C3"])
        assert not against_c3.stable and against_c3.diff
    check("equivalence verdicts: S3 vs relabeled S3 and C3", verdicts)

    def negative():
        try:
            frobenius_structure(s4(), 2)
        except DomainError:
            return
        raise AssertionError("S4 at p = 2 was not rejected")
    check("negative path: S4 rejected by the fusion route", negative)

    def l_mult():
        samples = [
            (s3(), s3(), 3),
            (s3(), c3(), 3),
            (a4(), c3(), 2),
            (f20(), s3(), 5),
            (f21(), c3(), 7),
        ]
        for G, H, p in samples:
            assert l_multiplicativity_check(G, H, p)
    check("l-multiplicativity on five fixture pairs", l_mult)

    return results
