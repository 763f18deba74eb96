import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DATA_DIR
from blockfunctor import chartab
from blockfunctor.battery import a4, c3, f20, f21, g56, g72, s3, s4
from blockfunctor.chartab import (
    _charpoly,
    character_prime,
    character_table,
    class_counts,
    fixed_point_dim,
)
from blockfunctor.ddelta import PairClassRegistry
from blockfunctor.errors import DomainError, InternalCheckError
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.permgroup import PermGroup, sylow_subgroup
from blockfunctor.permutation import Permutation


def perm(degree, text):
    return Permutation.parse(degree, text)


ALL_FIXTURES = [s3, c3, a4, s4, f20, f21, g72, g56]


def test_degree_examples():
    c2 = PermGroup(2, [perm(2, "(1,2)")])
    assert character_table(c2).degrees == (1, 1)
    assert character_table(s3()).degrees == (1, 1, 2)
    assert character_table(a4()).degrees == (1, 1, 1, 3)
    assert character_table(s4()).degrees == (1, 1, 2, 3, 3)


def test_prime_selection():
    table = character_table(s3())
    assert table.modulus == 13  # smallest q = 1 (mod 6) above 12
    assert character_prime(6, 6) == 13
    with pytest.raises(DomainError):
        character_prime(6, 6, cap=12)


def test_out_group_table_of_klein_pair():
    # the out group of the (V4, 1) class is the symmetric group on the
    # three involutions; its sign character shows on the transposition class
    registry = PairClassRegistry()
    registry.classify_group(a4(), 2)
    cls = next(
        c for c in registry.classes
        if c.subgroup_order == 4 and c.element_order == 1
    )
    # N is trivial here, so C is Out and every row of its table is kept
    assert cls.inner.order == 1
    table = cls.aut_table
    assert cls.out_rows == (0, 1, 2)
    assert table.degrees == (1, 1, 2)
    q = table.modulus
    transposition_cols = [
        j for j, rep in enumerate(table.class_reps) if rep.order() == 2
    ]
    assert len(transposition_cols) == 1
    col = transposition_cols[0]
    assert table.values[0][col] == 1
    assert table.values[1][col] == q - 1


def test_sum_of_degree_squares():
    for builder in ALL_FIXTURES:
        G = builder()
        table = character_table(G)
        assert sum(d * d for d in table.degrees) == G.order


def test_column_orthogonality():
    for builder in [s3, c3, a4, s4, f20]:
        G = builder()
        table = character_table(G)
        q = table.modulus
        k = table.n_classes
        for i in range(k):
            for j in range(k):
                total = 0
                for row in range(k):
                    inv_col = G.class_index_of(table.class_reps[j].inverse())
                    total = (
                        total + table.values[row][i] * table.values[row][inv_col]
                    ) % q
                expected = (G.order // table.class_sizes[i]) % q if i == j else 0
                assert total == expected


def test_fixed_point_dim_examples():
    G = s3()
    table = character_table(G)
    trivial = G.subgroup([])
    for row in range(3):
        assert fixed_point_dim(table, row, class_counts(G, trivial)) == table.degrees[row]
    A3 = class_counts(G, G.subgroup([perm(3, "(1,2,3)")]))
    assert fixed_point_dim(table, 1, A3) == 1  # sign restricted to A3
    assert fixed_point_dim(table, 2, A3) == 0  # two-dimensional character


def test_fixed_point_dim_refuses_a_subgroup_outside_the_table_group():
    table = character_table(a4())
    odd = s4().subgroup([perm(4, "(1,2)")])
    with pytest.raises(DomainError, match="^element does not belong to the group$"):
        fixed_point_dim(table, 0, class_counts(table.group, odd))
    with pytest.raises(DomainError, match="^element does not belong to the group$"):
        fixed_point_dim(table, 0, class_counts(table.group, s3()))


def test_fixed_point_dim_on_whole_group_detects_trivial_character():
    for builder in [s3, a4, s4, f20, f21]:
        G = builder()
        table = character_table(G)
        full = class_counts(G, G)
        dims = [fixed_point_dim(table, row, full) for row in range(table.n_classes)]
        assert dims.count(1) == 1
        assert set(dims) <= {0, 1}
        assert dims[0] == 1 and table.degrees[0] == 1


def test_fixed_point_dim_monotone_under_enlargement():
    chains = [
        (s3(), [perm(3, "(1,2,3)")]),
        (a4(), [perm(4, "(1,2)(3,4)"), perm(4, "(1,3)(2,4)")]),
        (s4(), [perm(4, "(1,2,3,4)")]),
    ]
    for G, gens in chains:
        table = character_table(G)
        smaller = G.subgroup(gens[:1])
        bigger = G.subgroup(gens)
        full = G
        for row in range(table.n_classes):
            d_small = fixed_point_dim(table, row, class_counts(table.group, smaller))
            d_big = fixed_point_dim(table, row, class_counts(table.group, bigger))
            d_full = fixed_point_dim(table, row, class_counts(table.group, full))
            assert d_full <= d_big <= d_small <= table.degrees[row]


def test_permutation_module_dimension_identity():
    for builder in [s3, a4, s4, f20]:
        G = builder()
        table = character_table(G)
        subgroups = [
            G.subgroup([]),
            G.subgroup([G.generators[0]]),
            sylow_subgroup(G, 2),
            G,
        ]
        for H in subgroups:
            total = sum(
                table.degrees[row] * fixed_point_dim(table, row, class_counts(table.group, H))
                for row in range(table.n_classes)
            )
            assert total == G.order // H.order


def test_determinism_of_fresh_builds():
    first = character_table(g72())
    second = character_table(
        PermGroup(g72().degree, list(g72().generators))
    )
    assert first.modulus == second.modulus
    assert first.degrees == second.degrees
    assert first.values == second.values


def test_rejects_foreign_subgroup():
    table = character_table(s3())
    with pytest.raises(DomainError):
        class_counts(table.group, s4().subgroup([perm(4, "(1,2,3,4)")]))


@st.composite
def matrices_mod_q(draw):
    """A square matrix of size d <= 12 mod a prime q from character_prime,
    with q > d so that Faddeev-LeVerrier can divide by 1..d."""
    d = draw(st.integers(0, 12))
    q = character_prime(draw(st.integers(1, 24)), draw(st.integers(6, 200)))
    entries = st.one_of(st.just(0), st.integers(0, q - 1))
    return [[draw(entries) for _ in range(d)] for _ in range(d)], q


@settings(max_examples=150, derandomize=True, deadline=None)
@given(matrices_mod_q())
def test_hessenberg_charpoly_matches_leverrier(case):
    mat, q = case
    assert _charpoly(mat, q) == oracles.leverrier_charpoly(mat, q)


def assert_linear_path_matches_class_matrices(G):
    assert G.is_abelian()
    linear = chartab._table(G, chartab._linear_rows)
    assert linear == chartab._table(G, chartab._class_matrix_rows)
    assert linear == character_table(G)


def test_linear_characters_match_class_matrices_on_every_abelian_c():
    # every abelian C = C_Aut(L)(c_u) met on the fixtures
    seen = 0
    for name in ("s3", "c3", "a4", "s4", "f20", "f20b", "f21", "g72", "g56", "f75"):
        loaded = load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))
        registry = PairClassRegistry()
        registry.classify_group(loaded.group, loaded.p)
        for cls in registry.classes:
            if cls.aut.is_abelian():
                assert_linear_path_matches_class_matrices(cls.aut)
                seen += 1
    assert seen == 39


@st.composite
def relabeled_cycle_products(draw):
    """A product of cycles on disjoint, shuffled points, generated by a
    product of powers of the cycles followed by the cycles in any order."""
    lengths = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    assume(math.prod(lengths) <= 40)
    degree = sum(lengths)
    points = draw(st.permutations(range(degree)))
    cycles, start = [], 0
    for n in lengths:
        images = list(range(degree))
        block = points[start:start + n]
        for a, b in zip(block, block[1:] + block[:1]):
            images[a] = b
        cycles.append(Permutation(images))
        start += n
    mixed = Permutation.identity(degree)
    for cycle, n in zip(cycles, lengths):
        mixed = mixed * cycle ** draw(st.integers(0, n - 1))
    gens = [mixed] + draw(st.permutations(cycles))
    return PermGroup(degree, gens)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(relabeled_cycle_products())
def test_linear_characters_match_class_matrices_on_random_abelian_groups(G):
    assert_linear_path_matches_class_matrices(G)


@pytest.mark.parametrize("name", [
    "s3", "c3", "a4", "s4", "f20", "f21", "g72", "g56", "s5", "a5", "psl27", "a6", "s3xs3",
])
def test_class_matrices_match_the_permutation_products(name):
    G = load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text())).group
    classes = G.conjugacy_data()
    q = character_prime(G.exponent(), G.order)
    for i in range(len(classes)):
        assert chartab._class_matrix(G, classes, i, q) == oracles.class_matrix(classes, i, q)


@pytest.mark.parametrize("degree,cycles", [
    (1, ()), (1, ("()",)), (2, ()), (2, ("()",)), (2, ("(1,2)",)), (2, ("()", "(1,2)")),
])
def test_groups_of_degree_one_and_two(degree, cycles):
    # itemgetter with one index returns a scalar; these groups must never
    # hand it one
    G = PermGroup(degree, [perm(degree, c) for c in cycles])
    elements = G.elements()
    assert [c_g for _, _, c_g in G.conjugation] == [tuple(range(G.order))] * len(G.generators)
    assert [c.elements for c in G.conjugacy_data()] == [(x,) for x in elements]
    assert [G.class_index_of(x) for x in elements] == list(range(G.order))
    with pytest.raises(DomainError, match="^element does not belong to the group$"):
        G.class_index_of(Permutation.identity(3))
    table = character_table(G)
    assert table.degrees == (1,) * G.order
    assert table == chartab._table(G, chartab._class_matrix_rows)


def corrupt_one_row(monkeypatch):
    """Make both row producers change one value of their last row."""
    for name in ("_linear_rows", "_class_matrix_rows"):
        produce = getattr(chartab, name)

        def corrupted(G, classes, q, produce=produce):
            rows = produce(G, classes, q)
            degree, values = rows[-1]
            rows[-1] = (degree, tuple(values[:-1]) + ((values[-1] + 1) % q,))
            return rows

        monkeypatch.setattr(chartab, name, corrupted)


def test_table_failures_name_the_group(monkeypatch):
    corrupt_one_row(monkeypatch)
    with pytest.raises(InternalCheckError) as failure:
        character_table(s4())
    assert str(failure.value) == (
        "character table, |G|=24, 5 classes: row orthogonality fails mod q"
    )
    registry = PairClassRegistry()
    registry.classify_group(s4(), 2)
    cls = next(
        c for c in registry.classes if (c.subgroup_order, c.element_order) == (4, 3)
    )
    with pytest.raises(InternalCheckError) as failure:
        cls.aut_table
    assert str(failure.value) == (
        "Out(L, u), pair class (|L|=4, ord u=3): character table, |G|=3, "
        "3 classes: row orthogonality fails mod q"
    )
