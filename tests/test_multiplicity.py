import random

import pytest

from blockfunctor import ddelta, fusion
from blockfunctor.battery import (
    GOLDEN_A4,
    GOLDEN_S3,
    a4,
    c3,
    f20,
    f20_relabeled,
    f21,
    g56,
    g72,
    s3,
    s3_shifted,
    s4,
    table_by_class_key,
)
from blockfunctor.ddelta import PairClassRegistry
from blockfunctor.errors import DomainError
from blockfunctor.fusion import build_fusion
from blockfunctor.multiplicity import (
    compare,
    cross_check_formulas,
    invariants_kl,
    l_multiplicativity_check,
    mult_table_fusion,
    mult_table_pairs,
)
from blockfunctor.permgroup import PermGroup, frobenius_group
from blockfunctor.permutation import Permutation, conjugate


def test_invariants_kl_examples():
    assert invariants_kl(s3(), 3) == (3, 2, 1)
    assert invariants_kl(a4(), 2) == (4, 3, 1)
    assert invariants_kl(s3(), 5) == (3, 3, 0)  # p does not divide the order


def test_golden_tables():
    registry = PairClassRegistry()
    assert table_by_class_key(mult_table_pairs(s3(), 3, registry, "S3")) == GOLDEN_S3
    assert table_by_class_key(mult_table_pairs(a4(), 2, registry, "A4")) == GOLDEN_A4


def test_c3_table():
    registry = PairClassRegistry()
    table = mult_table_pairs(c3(), 3, registry, "C3")
    assert table_by_class_key(table) == {
        ((1, 1), 0): 1,
        ((3, 1), 0): 1,
        ((3, 1), 1): 1,
    }


def test_table_for_prime_not_dividing_order():
    registry = PairClassRegistry()
    table = mult_table_pairs(s3(), 5, registry, "S3")
    trivial = registry.trivial_class()
    assert table.rows == {(trivial.class_id, 0): 3}
    assert table.k == table.l == 3
    assert table.defect_order == 1


@pytest.mark.parametrize(
    "builder,p", [(s3, 3), (a4, 2), (f20, 5), (f21, 7), (c3, 3)]
)
def test_cross_formula_equality(builder, p):
    G = builder()
    registry = PairClassRegistry()
    pairs_table = mult_table_pairs(G, p, registry, "G")
    fusion_table = mult_table_fusion(build_fusion(G, p), registry, "G")
    cross_check_formulas(pairs_table, fusion_table)
    assert not fusion_table.includes_trivial
    for (cid, _irr) in fusion_table.rows:
        assert registry.classes[cid].subgroup_order > 1


def test_l_multiplicativity_examples():
    assert l_multiplicativity_check(s3(), s3(), 3)
    assert l_multiplicativity_check(s3(), PermGroup(1, []), 3)
    assert l_multiplicativity_check(a4(), c3(), 2)
    assert l_multiplicativity_check(f20(), s3(), 5)
    assert l_multiplicativity_check(f21(), c3(), 7)


def test_compare_reflexive_on_relabeled_groups():
    registry = PairClassRegistry()
    left = mult_table_pairs(s3(), 3, registry, "S3")
    right = mult_table_pairs(s3_shifted(), 3, registry, "S3-shifted")
    verdict = compare(left, right)
    assert verdict.stable and verdict.functorial and verdict.defect_isomorphic
    assert verdict.diff == ()


def test_compare_s3_c3():
    registry = PairClassRegistry()
    left = mult_table_pairs(s3(), 3, registry, "S3")
    right = mult_table_pairs(c3(), 3, registry, "C3")
    verdict = compare(left, right)
    assert not verdict.stable
    assert not verdict.functorial
    assert verdict.defect_isomorphic  # both Sylow subgroups are C3
    diff_by_shape = {
        (
            registry.classes[cid].subgroup_order,
            registry.classes[cid].element_order,
            irr,
        ): (a, b)
        for cid, irr, a, b in verdict.diff
    }
    assert diff_by_shape == {
        (3, 1, 1): (0, 1),  # the sign row differs
        (3, 2, 0): (1, 0),  # the inversion class exists only for S3
    }


def relabeled(G, seed):
    """The group with its points permuted at random."""
    points = list(range(G.degree))
    random.Random(seed).shuffle(points)
    rename = Permutation(points)
    return PermGroup(G.degree, [conjugate(rename, g) for g in G.generators])


def gens_group(degree, *cycles):
    return PermGroup(degree, [Permutation.parse(degree, c) for c in cycles])


def compare_sides(left, right, p):
    """What compare reports on (left, right), with the tables built in
    that order as the CLI builds them: the verdict, the two values of
    k - l, and the diff rows keyed by (|L|, ord u, irreducible degree),
    since class ids and irreducible indices follow classification order."""
    registry = PairClassRegistry()
    left_table = mult_table_pairs(left, p, registry, "left")
    right_table = mult_table_pairs(right, p, registry, "right")
    verdict = compare(left_table, right_table)
    diff = []
    for cid, irr, a, b in verdict.diff:
        cls = registry.classes[cid]
        degree = cls.aut_table.degrees[cls.out_rows[irr]]
        diff.append(((cls.subgroup_order, cls.element_order, degree), a, b))
    return (
        (verdict.stable, verdict.functorial, verdict.defect_isomorphic),
        (left_table.k - left_table.l, right_table.k - right_table.l),
        sorted(diff),
    )


# the compare benchmark workload's pairs; a group against itself is
# compared with a relabeled copy
COMPARE_PAIRS = {
    "G56-G56": (g56, None, 2),
    "G72-G72": (g72, None, 3),
    "F110-F110": (lambda: frobenius_group(11, 1, [[2]]), None, 11),
    "A6-A6": (lambda: gens_group(6, "(1,2,3)", "(2,3,4,5,6)"), None, 3),
    "F20-F20b": (f20, f20_relabeled, 5),
    "S3-C3": (s3, c3, 3),
    "G72-S3xS3": (g72, lambda: gens_group(6, "(1,2,3)", "(1,2)", "(4,5,6)", "(4,5)"), 3),
}


@pytest.mark.parametrize("name", COMPARE_PAIRS)
def test_compare_is_symmetric(name):
    left_builder, right_builder, p = COMPARE_PAIRS[name]
    left = left_builder()
    right = relabeled(left, 11) if right_builder is None else right_builder()
    verdict, k_minus_l, diff = compare_sides(left, right, p)
    swapped_verdict, swapped_k_minus_l, swapped_diff = compare_sides(right, left, p)
    assert swapped_verdict == verdict
    assert swapped_k_minus_l == k_minus_l[::-1]
    assert swapped_diff == sorted((key, b, a) for key, a, b in diff)
    assert verdict[0] == (not diff)
    if name in ("S3-C3", "G72-S3xS3"):
        assert diff  # the mirror is tested on rows that exist


def test_compare_requires_shared_registry():
    left = mult_table_pairs(s3(), 3, PairClassRegistry(), "S3")
    right = mult_table_pairs(c3(), 3, PairClassRegistry(), "C3")
    with pytest.raises(DomainError):
        compare(left, right)


def test_multiplicities_invariant_under_relabeling():
    registry = PairClassRegistry()
    left = mult_table_pairs(f20(), 5, registry, "F20")
    right = mult_table_pairs(f20_relabeled(), 5, registry, "F20b")
    assert left.rows == right.rows
    verdict = compare(left, right)
    assert verdict.stable and verdict.functorial and verdict.defect_isomorphic


def test_stable_verdict_implies_matching_k_minus_l():
    registry = PairClassRegistry()
    left = mult_table_pairs(g72(), 3, registry, "G72")
    right = mult_table_pairs(g72(), 3, registry, "G72")
    verdict = compare(left, right)
    assert verdict.stable
    assert left.k - left.l == right.k - right.l


def test_s4_pairs_table_still_works():
    registry = PairClassRegistry()
    table = mult_table_pairs(s4(), 2, registry, "S4")
    trivial = registry.trivial_class()
    assert table.rows[(trivial.class_id, 0)] == table.l == 2
    assert table.defect_order == 8


@pytest.mark.parametrize(
    "builders,p",
    [((s3,), 3), ((a4,), 2), ((f20,), 5), ((f21,), 7), ((g72,), 3), ((g56,), 2),
     ((f20, f20_relabeled), 5), ((s3, c3), 3)],
)
def test_one_character_table_per_class_with_members(builders, p, monkeypatch):
    # exactly one table per distinct element set of C among those classes
    built = []
    table_of = ddelta.character_table

    def counting(group):
        built.append(group.element_set())
        return table_of(group)

    monkeypatch.setattr(ddelta, "character_table", counting)
    registry = PairClassRegistry()
    groups = [builder() for builder in builders]
    for G in groups:
        mult_table_pairs(G, p, registry)
        if len(groups) == 1:
            mult_table_fusion(build_fusion(G, p), registry)
    with_members = [
        cls for cls in registry.classes
        if any(registry.members_for(G, cls) for G in groups)
    ]
    # classes with one C share its table, and every table is read
    assert len(built) == len(set(built))
    assert set(built) == {cls.aut.element_set() for cls in with_members}
    assert all(cls.aut_table.group.element_set() == cls.aut.element_set()
               for cls in with_members)


def test_c13_c12_shares_aut_l_and_the_table_of_c(monkeypatch):
    # C13:C12 at 13 (frobenius, p 13, rank 1, matrix 2): the trivial class
    # and 12 classes on one L = C13, each with C = Aut(C13)
    searched, built = [], []
    search, table_of = ddelta.pair_automorphism_maps, ddelta.character_table

    def counting_search(L):
        searched.append(L.element_set())
        return search(L)

    def counting_table(group):
        built.append(group.element_set())
        return table_of(group)

    monkeypatch.setattr(ddelta, "pair_automorphism_maps", counting_search)
    monkeypatch.setattr(ddelta, "character_table", counting_table)
    registry = PairClassRegistry()
    mult_table_pairs(frobenius_group(13, 1, [[2]]), 13, registry)
    shapes = sorted((cls.subgroup_order, cls.element_order) for cls in registry.classes)
    assert shapes == [(1, 1)] + sorted((13, d) for d in (1, 2, 3, 3, 4, 4, 6, 6, 12, 12, 12, 12))
    distinct_l = {cls.realization.subgroup.element_set() for cls in registry.classes}
    assert len(distinct_l) == 2
    # one search per distinct L, and one table per distinct C
    assert sorted(map(len, searched)) == [1, 13] and set(searched) == distinct_l
    assert sorted(map(len, built)) == [1, 12]
    # the fusion route finds pi0: L -> P once for the 12 classes on L, and
    # reads Aut(P) from the same shared Aut(L)
    first_hits = []
    search_maps = fusion._search_maps

    def counting_first_hits(A, B, *args, **kwargs):
        first_hits.append((A.element_set(), B.element_set()))
        return search_maps(A, B, *args, **kwargs)

    monkeypatch.setattr(fusion, "_search_maps", counting_first_hits)
    G = registry.classes[0].members[0].pair.ambient
    mult_table_fusion(build_fusion(G, 13), registry)
    assert len(first_hits) == 1
    assert sorted(map(len, searched)) == [1, 13] and sorted(map(len, built)) == [1, 12]
