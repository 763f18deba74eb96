"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import contextlib
import time

import oracles
from conftest import DATA_DIR
from blockfunctor.battery import (
    FIXTURES,
    FROBENIUS_FIXTURES,
    GOLDEN_A4,
    GOLDEN_S3,
    a4,
    c3,
    f20,
    f20_relabeled,
    f21,
    s3,
    s3_shifted,
    s4,
    table_by_class_key,
)
from blockfunctor.chartab import character_table, fixed_point_dim
from blockfunctor.cli import main as cli_main
from blockfunctor.ddelta import PairClassRegistry
from blockfunctor.errors import DomainError
from blockfunctor.fusion import build_fusion, frobenius_structure, verify_class
from blockfunctor.multiplicity import (
    compare,
    cross_check_formulas,
    l_multiplicativity_check,
    mult_table_fusion,
    mult_table_pairs,
)
from blockfunctor.permgroup import PermGroup, sylow_subgroup


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description}")


def test_criterion_1_l_row_identity():
    with criterion(1, "m(trivial class, trivial character) = p-regular class "
                      "count for every fixture, under 60 s"):
        started = time.monotonic()
        registry = PairClassRegistry()
        for name, builder, p in FIXTURES:
            table = mult_table_pairs(builder(), p, registry, name)
            trivial = registry.trivial_class()
            assert table.rows[(trivial.class_id, 0)] == table.l, name
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_2_cross_formula_equality():
    with criterion(2, "fusion route equals pair route on every nontrivial row "
                      "of every Frobenius fixture"):
        registry = PairClassRegistry()
        for name, builder, p in FROBENIUS_FIXTURES:
            G = builder()
            pairs_table = mult_table_pairs(G, p, registry, name)
            fusion_table = mult_table_fusion(build_fusion(G, p), registry, name)
            cross_check_formulas(pairs_table, fusion_table)


def test_criterion_3_orbit_bijection_and_stabilizers():
    with criterion(3, "triple orbits biject with pair orbits and stabilizers "
                      "match for every nontrivial class of every Frobenius "
                      "fixture"):
        registry = PairClassRegistry()
        total_checked = 0
        for name, builder, p in FROBENIUS_FIXTURES:
            G = builder()
            registry.classify_group(G, p)
            F = build_fusion(G, p)
            for cls in registry.classes:
                if cls.subgroup_order == 1 or not registry.members_for(G, cls):
                    continue
                result = verify_class(F, cls, registry)
                assert result.triple_orbits == result.pair_orbits
                total_checked += 1
        assert total_checked >= 15


def _oracle_table(G, p):
    return oracles.multiplicity_oracle(
        G.degree, [g.images for g in G.generators], p
    )


def _package_table_with_labels(table):
    labels_by_out_order = {1: ("triv",), 2: ("triv", "sgn"), 6: ("triv", "sgn", "deg2")}
    out = {}
    for (cid, irr), value in table.rows.items():
        cls = table.registry.classes[cid]
        labels = labels_by_out_order[cls.out_order]
        # sanity of the label map: index 0 is the all-ones row
        assert all(v == 1 for v in cls.aut_table.values[cls.out_rows[0]])
        if len(labels) == 3:
            assert tuple(cls.aut_table.degrees[r] for r in cls.out_rows) == (1, 1, 2)
        out[((cls.subgroup_order, cls.element_order), labels[irr])] = value
    return out


def test_criterion_4_golden_tables():
    with criterion(4, "golden S3 and A4 tables, re-derived by the independent "
                      "brute-force oracle and matched by the package"):
        golden_s3_by_label = {
            ((1, 1), "triv"): 2,
            ((3, 1), "triv"): 1,
            ((3, 1), "sgn"): 0,
            ((3, 2), "triv"): 1,
        }
        golden_a4_by_label = {
            ((1, 1), "triv"): 3,
            ((2, 1), "triv"): 1,
            ((4, 1), "triv"): 1,
            ((4, 1), "sgn"): 1,
            ((4, 1), "deg2"): 0,
            ((4, 3), "triv"): 2,
        }
        # the independent oracle confirms the frozen values
        assert _oracle_table(s3(), 3) == golden_s3_by_label
        assert _oracle_table(a4(), 2) == golden_a4_by_label
        # and the package reproduces them
        registry = PairClassRegistry()
        table_s3 = mult_table_pairs(s3(), 3, registry, "S3")
        table_a4 = mult_table_pairs(a4(), 2, registry, "A4")
        assert _package_table_with_labels(table_s3) == golden_s3_by_label
        assert _package_table_with_labels(table_a4) == golden_a4_by_label
        # frozen constants used elsewhere agree with the oracle too
        assert table_by_class_key(table_s3) == GOLDEN_S3
        assert table_by_class_key(table_a4) == GOLDEN_A4


def test_criterion_5_equivalence_verdicts():
    with criterion(5, "equivalence verdicts: relabeled S3 stable+functorial, "
                      "S3 vs C3 unstable with diff, stable implies matching "
                      "k-l and isomorphic defect groups"):
        registry = PairClassRegistry()
        table_s3 = mult_table_pairs(s3(), 3, registry, "S3")
        table_s3b = mult_table_pairs(s3_shifted(), 3, registry, "S3b")
        table_c3 = mult_table_pairs(c3(), 3, registry, "C3")
        table_f20 = mult_table_pairs(f20(), 5, registry, "F20")
        table_f20b = mult_table_pairs(f20_relabeled(), 5, registry, "F20b")

        same = compare(table_s3, table_s3b)
        assert same.stable and same.functorial and not same.diff

        different = compare(table_s3, table_c3)
        assert not different.stable and different.diff

        relabeled = compare(table_f20, table_f20b)
        assert relabeled.stable and relabeled.functorial

        for left, right, verdict in (
            (table_s3, table_s3b, same),
            (table_f20, table_f20b, relabeled),
        ):
            if verdict.stable:
                assert left.k - left.l == right.k - right.l
                assert verdict.defect_isomorphic


def test_criterion_6_character_table_suite():
    with criterion(6, "orthogonality, degree sums and fixed-point dimension "
                      "identities over at least 20 (group, subgroup) samples"):
        samples = 0
        for name, builder, p in FIXTURES:
            G = builder()
            table = character_table(G)
            q = table.modulus
            k = table.n_classes
            assert sum(d * d for d in table.degrees) == G.order

            # column orthogonality mod q
            for i in range(k):
                for j in range(k):
                    inv_col = G.class_index_of(table.class_reps[j].inverse())
                    total = 0
                    for row in range(k):
                        total = (
                            total + table.values[row][i] * table.values[row][inv_col]
                        ) % q
                    expected = (G.order // table.class_sizes[i]) % q if i == j else 0
                    assert total == expected

            subgroups = [
                G.subgroup([]),
                G.subgroup([G.generators[0]]),
                sylow_subgroup(G, p),
                G,
            ]
            for H in subgroups:
                total = sum(
                    table.degrees[row] * fixed_point_dim(table, row, H)
                    for row in range(k)
                )
                assert total == G.order // H.order
                samples += 1
        assert samples >= 20


def test_criterion_7_l_multiplicativity():
    with criterion(7, "l(G x H) = l(G) l(H) on at least 5 fixture pairs"):
        pairs = [
            (s3(), s3(), 3),
            (s3(), c3(), 3),
            (a4(), c3(), 2),
            (f20(), s3(), 5),
            (f21(), c3(), 7),
            (s3(), PermGroup(1, []), 3),
        ]
        assert len(pairs) >= 5
        for G, H, p in pairs:
            assert l_multiplicativity_check(G, H, p)


def test_criterion_8_negative_path(capsys):
    with criterion(8, "S4 at p=2: fusion route rejected with exit 3, pairs "
                      "table still succeeds, single-block caveat absent"):
        try:
            frobenius_structure(s4(), 2)
            raise AssertionError("S4 was not rejected")
        except DomainError:
            pass

        s4_path = str(DATA_DIR / "s4.grp")
        assert cli_main(["verify-psi", s4_path]) == 3
        capsys.readouterr()

        assert cli_main(["mult", s4_path]) == 0
        out = capsys.readouterr().out
        assert "single-block regime" not in out

        registry = PairClassRegistry()
        table = mult_table_pairs(s4(), 2, registry, "S4")
        trivial = registry.trivial_class()
        assert table.rows[(trivial.class_id, 0)] == table.l
