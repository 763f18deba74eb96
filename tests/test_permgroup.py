import gc
import itertools
import math
import weakref
from collections import Counter
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup

import oracles
from conftest import DATA_DIR
from blockfunctor import permgroup
from blockfunctor.battery import a4, c3, f20, f21, g56, g72, s3, s4
from blockfunctor.config import DEFAULT_MAX_ORDER
from blockfunctor.errors import DomainError, InternalCheckError, SizeBoundError
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.permgroup import (
    PermGroup,
    direct_product,
    frobenius_group,
    normalizer,
    p_part,
    p_subgroup_classes,
    quotient_group,
    sylow_subgroup,
)
from blockfunctor.permutation import Permutation, conjugate


def perm(degree, text):
    return Permutation.parse(degree, text)


SMALL_FIXTURES = [s3, c3, a4, s4, f20, f21]  # orders at most 200


def a5():
    return PermGroup(5, [perm(5, "(1,2,3)"), perm(5, "(1,2,3,4,5)")])


def s5():
    return PermGroup(5, [perm(5, "(1,2,3,4,5)"), perm(5, "(1,2)")])


def psl27():
    return PermGroup(7, [perm(7, "(1,2,3,4,5,6,7)"), perm(7, "(3,5)(6,7)")])


def a6():
    return PermGroup(6, [perm(6, "(1,2,3)"), perm(6, "(2,3,4,5,6)")])


def s3xs3():
    return PermGroup(
        6, [perm(6, c) for c in ("(1,2,3)", "(1,2)", "(4,5,6)", "(4,5)")]
    )


def fixture(name):
    return load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text())).group


def primes_dividing(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def test_group_orders_match_examples():
    assert s3().order == 6
    assert a4().order == 12
    assert f20().order == 20


def test_order_equals_exhaustive_closure_for_small_fixtures():
    for builder in SMALL_FIXTURES:
        G = builder()
        assert G.order <= 200
        raw = oracles.closure(G.degree, [g.images for g in G.generators])
        assert G.order == len(raw)
        # and the chain product agrees with the element count
        chain_product = math.prod(
            (len(t) for _, t in oracles.stabilizer_chain(G)), start=1
        )
        assert G.order == chain_product


def test_strong_generator_structure():
    for builder in SMALL_FIXTURES:
        G = builder()
        for g in G.generators:
            assert G.contains(g)
        chain = oracles.stabilizer_chain(G)
        for point, transversal in chain:
            for image, u in transversal.items():
                assert G.contains(u) and u.images[point] == image
        base = [point for point, _ in chain]
        assert base == sorted(set(base))


def test_membership_agrees_with_the_closure_on_every_permutation():
    for builder in SMALL_FIXTURES:
        G = builder()
        if G.degree > 5:
            continue
        members = set(oracles.closure(G.degree, [g.images for g in G.generators]))
        for images in itertools.permutations(range(G.degree)):
            assert G.contains(Permutation(images)) == (images in members)
        # a member that fixes one more point, and identities of other degrees
        assert not G.contains(Permutation(G.generators[0].images + (G.degree,)))
        for degree in (G.degree - 1, G.degree + 1):
            assert not G.contains(Permutation.identity(degree))


def test_degree_validation():
    with pytest.raises(DomainError):
        PermGroup(0, [])
    with pytest.raises(DomainError):
        PermGroup(3, [perm(4, "(1,2,3,4)")])


def test_trivial_group():
    G = PermGroup(1, [])
    assert G.order == 1
    assert len(G.conjugacy_data()) == 1


def test_conjugacy_classes_examples():
    assert sorted(c.size for c in s3().conjugacy_data()) == [1, 2, 3]
    assert sorted(c.size for c in a4().conjugacy_data()) == [1, 3, 4, 4]


def test_conjugacy_classes_partition_and_separation():
    for builder in SMALL_FIXTURES:
        G = builder()
        classes = G.conjugacy_data()
        assert sum(c.size for c in classes) == G.order
        for c in classes:
            assert G.order % c.size == 0
        # representatives pairwise non-conjugate, checked exhaustively
        reps = [c.rep for c in classes]
        for i, a in enumerate(reps):
            for b in reps[i + 1:]:
                assert all(conjugate(g, a) != b for g in G.elements())


def test_normalizer_examples():
    assert normalizer(s3(), s3().subgroup([perm(3, "(1,2,3)")])).order == 6
    klein = normalizer(a4(), a4().subgroup([perm(4, "(1,2)(3,4)")]))
    assert klein.order == 4
    assert all(x.order() <= 2 for x in klein.elements())
    assert normalizer(a4(), a4().subgroup([])).order == 12


def test_the_normalizer_of_a_normal_subgroup_is_the_group():
    # P = 1 in A6, and the normal Sylow D = C2^3 in G56: the walk over the
    # conjugates of P stops at P, and N_G(P) is G itself, not a copy
    G = a6()
    assert normalizer(G, PermGroup(G.degree, ())) is G
    G = PermGroup(8, g56().generators)  # a fresh copy of the cached fixture
    D = sylow_subgroup(G, 2)
    assert D.order == 8
    assert normalizer(G, D) is G
    assert normalizer(G, D) is G  # from the memo
    assert normalizer(G, G.subgroup(D.generators[:1])) is not G
    # the memo does not hold G, so G is freed without the cycle collector
    ref = weakref.ref(G)
    gc.disable()
    try:
        del G, D
        assert ref() is None
    finally:
        gc.enable()


def test_normalizer_requires_containment():
    with pytest.raises(DomainError):
        normalizer(a4(), s4().subgroup([perm(4, "(1,2)")]))


def test_centralizer_examples():
    assert oracles.centralizer(s3(), perm(3, "(1,2,3)")).order == 3
    assert oracles.centralizer(a4(), perm(4, "(1,2,3)")).order == 3
    assert oracles.centralizer(a4(), a4().identity).order == 12
    with pytest.raises(DomainError):
        oracles.centralizer(a4(), perm(4, "(1,2)"))


def test_p_part_examples():
    assert p_part(72, 3) == 9 and p_part(72, 2) == 8 and p_part(56, 2) == 8
    assert p_part(21, 5) == 1 and p_part(1, 3) == 1


def test_p_subgroup_classes_examples():
    assert [P.order for P in p_subgroup_classes(s3(), 3)] == [1, 3]
    assert [P.order for P in p_subgroup_classes(a4(), 2)] == [1, 2, 4]
    assert [P.order for P in p_subgroup_classes(f20(), 5)] == [1, 5]
    assert [P.order for P in p_subgroup_classes(s4(), 2)] == [1, 2, 2, 4, 4, 4, 8]


@pytest.mark.parametrize("builder,p", [
    (s3, 3), (a4, 2), (s4, 2), (f20, 5),
    (a5, 2), (a5, 5), (s5, 3), (psl27, 7), (s3xs3, 2),
])
def test_p_subgroup_classes_against_exhaustive_enumeration(builder, p):
    G = builder()
    reps = p_subgroup_classes(G, p)
    rep_sets = [frozenset(x.images for x in P.elements()) for P in reps]
    raw_elements = oracles.closure(G.degree, [g.images for g in G.generators])
    # a group of order p^k has a generating set of at most k elements
    exponent = round(math.log(p_part(G.order, p), p))
    classes = set()
    for sub in oracles.all_p_subgroups(G.degree, raw_elements, p, max_gens=exponent):
        conjugates = frozenset(
            frozenset(oracles.conj(g, x) for x in sub) for g in raw_elements
        )
        classes.add(conjugates)
        hits = [i for i, rset in enumerate(rep_sets) if rset in conjugates]
        assert len(hits) == 1
    assert len(reps) == len(classes)


BUILDERS = {
    **{name: (lambda name=name: fixture(name)) for name in
       ("s3", "c3", "a4", "s4", "f20", "f20b", "f21", "g72", "g56", "f75")},
    "s5": s5, "a5": a5, "psl27": psl27, "a6": a6, "s3xs3": s3xs3,
}
ORACLE_CASES = [
    (name, p) for name, builder in BUILDERS.items()
    for p in primes_dividing(builder().order)
]


def assert_matches_layered_oracle(G, p):
    package = [P.element_set() for P in p_subgroup_classes(G, p)]
    assert package == oracles.layered_p_subgroup_classes(G, p)
    return package


@pytest.mark.parametrize("name,p", ORACLE_CASES, ids=[f"{n}-p{p}" for n, p in ORACLE_CASES])
def test_p_subgroup_classes_match_the_layered_extension(name, p):
    G = BUILDERS[name]()
    package = assert_matches_layered_oracle(G, p)
    assert package[0] == {G.identity}
    assert len(package[-1]) == p_part(G.order, p)


@st.composite
def relabeled_small_groups(draw):
    n = draw(st.integers(1, 7))
    gens = [draw(st.permutations(range(n))), draw(st.permutations(range(n)))]
    points = draw(st.permutations(range(n)))
    relabel = [tuple(points[g[points.index(i)]] for i in range(n)) for g in gens]
    try:
        return (
            PermGroup(n, [Permutation(g) for g in gens]),
            PermGroup(n, [Permutation(g) for g in relabel]),
        )
    except SizeBoundError:
        assume(False)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(relabeled_small_groups())
def test_relabeled_random_groups_match_the_layered_extension(groups):
    G, H = groups
    assert G.order == H.order
    for p in primes_dividing(G.order):
        orders = [len(s) for s in assert_matches_layered_oracle(G, p)]
        assert [len(s) for s in assert_matches_layered_oracle(H, p)] == orders


def test_p_subgroup_classes_of_a_sylow_subgroup_of_order_64():
    # S4 x C2^3 at p=2: 567 classes of subgroups of its Sylow subgroup of
    # order 64, counted by the enumeration that closed every element of s
    # plus each x outside s
    c2_cubed = PermGroup(6, [perm(6, c) for c in ("(1,2)", "(3,4)", "(5,6)")])
    G = direct_product(s4(), c2_cubed)
    orders = Counter(P.order for P in p_subgroup_classes(G, 2))
    assert sum(orders.values()) == 567
    assert orders == {1: 1, 2: 23, 4: 122, 8: 226, 16: 163, 32: 31, 64: 1}


@pytest.mark.parametrize("builder,p", [(s4, 2), (a6, 2), (a6, 3), (psl27, 2)])
def test_p_subgroup_classes_walk_once_per_class(builder, p, monkeypatch):
    # one walk lists the subgroups of the Sylow subgroup, and one walk
    # over conjugate label sets names each G-class, however many of its
    # subgroups lie in the Sylow subgroup
    fixture = builder()
    G = PermGroup(fixture.degree, fixture.generators)  # nothing cached yet
    walks = []
    walk = permgroup.orbit

    def counting(seed, step):
        if isinstance(seed, frozenset):
            walks.append(seed)
        return walk(seed, step)

    monkeypatch.setattr(permgroup, "orbit", counting)
    classes = p_subgroup_classes(G, p)
    monkeypatch.undo()
    S = classes[-1]
    exponent = round(math.log(S.order, p))
    subgroups = oracles.all_p_subgroups(G.degree, [x.images for x in S.elements()], p, exponent)
    assert len(classes) < len(subgroups)
    assert len(walks) == 1 + len(classes)


def test_sylow_subgroup_order():
    assert sylow_subgroup(s4(), 2).order == 8
    assert sylow_subgroup(g72(), 3).order == 9


def kernel_and_complement(G, p):
    """The Sylow p-subgroup (the translations) and a complement from the
    oracle search."""
    D = sylow_subgroup(G, p)
    return D, oracles.find_complement(G, D)


def test_frobenius_group_examples():
    G = frobenius_group(3, 1, [[2]])
    assert G.order == 6
    D, E = kernel_and_complement(G, 3)
    assert D.order == 3 and E.order == 2

    G72 = frobenius_group(3, 2, [[0, 1], [1, 2]])
    assert G72.order == 72
    assert kernel_and_complement(G72, 3)[1].order == 8

    G56 = frobenius_group(2, 3, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    assert G56.order == 56
    assert kernel_and_complement(G56, 2)[1].order == 7


def test_frobenius_freeness_by_direct_scan():
    for p, rank, matrix in (
        (3, 1, [[2]]),
        (5, 1, [[2]]),
        (3, 2, [[0, 1], [1, 2]]),
        (2, 3, [[0, 0, 1], [1, 0, 1], [0, 1, 0]]),
    ):
        D, E = kernel_and_complement(frobenius_group(p, rank, matrix), p)
        assert E.order > 1
        for e in E.elements():
            if e.is_identity():
                continue
            for d in D.elements():
                if d.is_identity():
                    continue
                assert conjugate(e, d) != d


def test_frobenius_group_rejections():
    with pytest.raises(DomainError):
        frobenius_group(4, 1, [[3]])  # p not prime
    with pytest.raises(DomainError):
        frobenius_group(3, 2, [[1, 1], [1, 1]])  # singular matrix
    with pytest.raises(DomainError):
        frobenius_group(3, 2, [[1, 1], [0, 1]])  # order divisible by p
    with pytest.raises(DomainError):
        frobenius_group(3, 2, [[2, 0], [0, 1]])  # fixes a nonzero vector


def test_frobenius_group_is_refused_on_its_order_before_it_is_built(monkeypatch):
    matrix = [[0, 1], [1, 2]]  # order 8 on 3^2 translations
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "8")
    with pytest.raises(SizeBoundError, match=(
        r"^frobenius form, p=3, rank 2: the translations alone have order "
        r"3\^2 = 9, over the configured bound 8$"
    )):
        frobenius_group(3, 2, matrix)
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "71")
    with pytest.raises(SizeBoundError, match=(
        r"^frobenius form, p=3, rank 2: order 3\^2 \* 8 = 72, "
        r"over the configured bound 71$"
    )):
        frobenius_group(3, 2, matrix)
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "72")
    assert frobenius_group(3, 2, matrix).order == 72


def frobenius_sweep():
    """Every 1x1 matrix for p <= 13 (composite p included), every 2x2
    matrix over F_2, F_3 and F_5, and every 3x3 matrix over F_2."""
    for p in range(2, 14):
        for a in range(p):
            yield p, 1, [[a]]
    for p in (2, 3, 5):
        for e in itertools.product(range(p), repeat=4):
            yield p, 2, [e[0:2], e[2:4]]
    for e in itertools.product(range(2), repeat=9):
        yield 2, 3, [e[0:3], e[3:6], e[6:9]]


def test_frobenius_group_matches_the_matrix_route(monkeypatch):
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    built = 0
    for p, rank, matrix in frobenius_sweep():
        expected = oracles.matrix_frobenius(p, rank, matrix, DEFAULT_MAX_ORDER)
        if not isinstance(expected[0], str):
            # the closure keeps every generator but an identity matrix
            order, gens = expected
            expected = (order, [x for x in gens if x != oracles.identity(p ** rank)])
            built += 1
        try:
            G = frobenius_group(p, rank, matrix)
            got = (G.order, [g.images for g in G.generators])
        except DomainError as exc:
            got = (type(exc).__name__, str(exc))
        assert got == expected, (p, rank, matrix)
    assert built > 100


def test_quotient_group_examples():
    G = s3()
    Q, proj = quotient_group(G, G.subgroup([perm(3, "(1,2,3)")]))
    assert Q.order == 2
    assert proj[perm(3, "(1,2)")] != Q.identity

    A = a4()
    V = A.subgroup([perm(4, "(1,2)(3,4)"), perm(4, "(1,3)(2,4)")])
    Q2, proj2 = quotient_group(A, V)
    assert Q2.order == 3
    kernel = [x for x, y in proj2.items() if y.is_identity()]
    assert sorted(kernel) == sorted(V.elements())

    Q3, _ = quotient_group(A, A)
    assert Q3.order == 1


def test_quotient_rejects_non_normal():
    with pytest.raises(DomainError):
        quotient_group(s4(), s4().subgroup([perm(4, "(1,2)")]))


def test_direct_product():
    GH = direct_product(s3(), c3())
    assert GH.order == 18
    assert GH.degree == 6


def test_group_hom_detects_non_homomorphism():
    from blockfunctor.permgroup import homomorphism

    G = s3()
    bad = [(perm(3, "(1,2,3)"), perm(3, "(1,2)")), (perm(3, "(1,2)"), perm(3, "(1,2)"))]
    with pytest.raises(InternalCheckError):
        homomorphism(G, G, [(G.position(g), G.position(h)) for g, h in bad])


def test_size_bound(monkeypatch):
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "5")
    with pytest.raises(SizeBoundError, match=(
        r"^group of degree 3 on 2 generators: order exceeds the configured bound 5$"
    )):
        PermGroup(3, [perm(3, "(1,2,3)"), perm(3, "(1,2)")])
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "6")
    assert PermGroup(3, [perm(3, "(1,2,3)"), perm(3, "(1,2)")]).order == 6


def test_size_bound_refuses_at_one_past_the_cap(monkeypatch):
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "119")
    with pytest.raises(SizeBoundError, match=(
        r"^group of degree 5 on 2 generators: order exceeds the configured bound 119$"
    )):
        s5()
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "120")
    assert s5().order == 120


@st.composite
def generator_lists(draw, max_degree=6):
    """Random generators plus the identity, a duplicate and a product of
    two of them, shuffled."""
    n = draw(st.integers(1, max_degree))
    base = [Permutation(draw(st.permutations(range(n)))) for _ in range(draw(st.integers(1, 3)))]
    extras = [
        Permutation.identity(n),
        draw(st.sampled_from(base)),
        draw(st.sampled_from(base)) * draw(st.sampled_from(base)),
    ]
    return n, draw(st.permutations(base + extras))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(generator_lists())
def test_closure_keeps_exactly_the_generators_that_enlarge_the_group(case):
    n, gens = case
    try:
        G = PermGroup(n, gens)
    except SizeBoundError:
        assume(False)
    assert {x.images for x in G.elements()} == oracles.closure(n, [g.images for g in gens])
    # each kept generator lies outside the group of the ones kept before
    # it, and each dropped one inside
    expected = []
    for g in gens:
        if g.images not in oracles.closure(n, [k.images for k in expected]):
            expected.append(g)
    assert G.generators == tuple(expected)


def assert_label_invariants(G):
    """Labels are positions in elements(), the identity is label 0, and
    induced(g) for each element g is the permutation built from a
    position dict."""
    elements = G.elements()
    assert elements[0] == G.identity
    assert [G.position(x) for x in elements] == list(range(G.order))
    index = {x: i for i, x in enumerate(elements)}
    for g in elements:
        expected = Permutation([index[conjugate(g, x)] for x in elements])
        assert G.induced(g) == expected.images


@pytest.mark.parametrize("name", BUILDERS)
def test_labels_of_the_fixtures(name):
    assert_label_invariants(BUILDERS[name]())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(generator_lists())
def test_labels_of_random_groups(case):
    n, gens = case
    try:
        G = PermGroup(n, gens)
    except SizeBoundError:
        assume(False)
    assert_label_invariants(G)


def assert_tables_on_labels(G):
    """The product table, the conjugation steps, the orders, the
    invariants and the classes on labels, against the element oracles on
    image tuples: products and conjugates computed point by point, orders
    by repeated products and classes by conjugating by every element."""
    raw = [x.images for x in G.elements()]
    index = {x: i for i, x in enumerate(raw)}
    assert G.table == tuple(tuple(index[oracles.compose(a, b)] for b in raw) for a in raw)
    assert G.orders == tuple(oracles.perm_order(a) for a in raw)
    assert [g for g, _, _ in G.conjugation] == list(G.generators)
    for g, g_inv, c_g in G.conjugation:
        assert g_inv.images == oracles.inverse(g.images)
        assert c_g == tuple(index[oracles.conj(g.images, x)] for x in raw)
    expected = sorted({tuple(sorted({oracles.conj(g, x) for g in raw})) for x in raw})
    classes = G.conjugacy_data()
    assert [tuple(y.images for y in c.elements) for c in classes] == expected
    assert [c.labels for c in classes] == [tuple(index[y] for y in e) for e in expected]
    assert [c.rep.images for c in classes] == [e[0] for e in expected]
    size_of = {y: len(e) for e in expected for y in e}
    assert G.invariants == tuple(
        (oracles.perm_order(a), size_of[a]) for a in raw
    )
    for i, e in enumerate(expected):
        assert {G.class_index_of(Permutation(y)) for y in e} == {i}


@pytest.mark.parametrize("name", BUILDERS)
def test_tables_on_labels_of_the_fixtures(name):
    assert_tables_on_labels(BUILDERS[name]())


@settings(max_examples=60, derandomize=True, deadline=None)
@given(generator_lists(max_degree=5))
def test_tables_on_labels_of_random_groups(case):
    n, gens = case
    assert_tables_on_labels(PermGroup(n, gens))


def assert_classes_match_the_element_scan_and_sympy(G):
    """Each c_g against the label of the conjugate found by scanning the
    element list, and each class, as a set, against a class of sympy's
    conjugacy_classes()."""
    elements = list(G.elements())
    for g, _, c_g in G.conjugation:
        assert c_g == tuple(elements.index(conjugate(g, x)) for x in elements)
    S = PermutationGroup([SympyPermutation(list(g.images)) for g in G.generators])
    expected = {frozenset(tuple(x.array_form) for x in c) for c in S.conjugacy_classes()}
    classes = G.conjugacy_data()
    assert {frozenset(x.images for x in c.elements) for c in classes} == expected
    assert len(classes) == len(expected)
    for c in classes:
        assert c.labels == tuple(map(G.position, c.elements))


@pytest.mark.parametrize("name", BUILDERS)
def test_classes_match_the_element_scan_and_sympy(name):
    assert_classes_match_the_element_scan_and_sympy(BUILDERS[name]())


@settings(max_examples=40, derandomize=True, deadline=None)
@given(generator_lists(max_degree=5))
def test_classes_of_random_groups_match_the_element_scan_and_sympy(case):
    n, gens = case
    assume(any(not g.is_identity() for g in gens))  # sympy needs a generator
    assert_classes_match_the_element_scan_and_sympy(PermGroup(n, gens))


@pytest.mark.parametrize("name", BUILDERS)
def test_greedy_generators_match_the_reclosing_loop(name):
    G = BUILDERS[name]()
    groups = [G]
    for p in primes_dividing(G.order):
        for P in p_subgroup_classes(G, p):
            groups += [P, normalizer(G, P)]
    for H in groups:
        expected = oracles.greedy_generating_set(H.degree, H.elements())
        assert G.subgroup_from_elements(H.elements()).generators == expected


@pytest.mark.parametrize("name", BUILDERS)
def test_normalizers_of_every_sylow_subgroup_match_the_element_scan(name):
    G = BUILDERS[name]()
    raw = [g.images for g in G.elements()]
    for p in primes_dividing(G.order):
        S = sylow_subgroup(G, p)
        exponent = round(math.log(S.order, p))
        sylow_raw = [x.images for x in S.elements()]
        for sub in oracles.all_p_subgroups(G.degree, sylow_raw, p, max_gens=exponent):
            P = G.subgroup_from_elements([Permutation(x) for x in sub])
            N = normalizer(G, P)
            assert {x.images for x in N.elements()} == oracles.normalizer_elements(raw, sub)


@pytest.mark.parametrize("builder", [c3, s3, a4, s4, f20, g72])
def test_regular_representation_shares_the_labels(builder):
    # the translation route in the oracles decodes a translation at label
    # j to the element at label j
    G = builder()
    L = oracles.regular(G)
    assert L.degree == L.order == G.order
    elements = G.elements()
    for j, x in enumerate(elements):
        # label j of L is the right translation by the element at label j of G
        assert L.elements()[j].images == tuple(G.position(y * x) for y in elements)
    assert len(L.generators) == len(G.generators)


@pytest.mark.parametrize("name", BUILDERS)
def test_identity_is_label_zero(name):
    G = BUILDERS[name]()
    for H in [G] + list(p_subgroup_classes(G, min(primes_dividing(G.order)))):
        assert H.identity is H.elements()[0]
        assert H.identity == Permutation.identity(H.degree)


# f2r11 (2^11 translations) is over the default order bound and is refused
DATA_FILES = sorted(path.stem for path in DATA_DIR.glob("*.grp") if path.stem != "f2r11")


def assert_induced_matches_the_element_scan(G, p):
    """P.induced(g) for every g in N_G(P), for every p-subgroup class
    representative P, against the oracle's scan of conjugates."""
    for P in p_subgroup_classes(G, p):
        for g in normalizer(G, P).elements():
            expected = oracles.label_perm(P, oracles.conjugation(g))
            assert P.induced(g) == expected.images


@pytest.mark.parametrize("name", DATA_FILES)
def test_induced_on_every_p_subgroup_class_of_the_data_files(name):
    loaded = load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))
    assert_induced_matches_the_element_scan(loaded.group, loaded.p)


@pytest.mark.parametrize("builder", [s5, a6])
def test_induced_on_every_2_subgroup_class(builder):
    assert_induced_matches_the_element_scan(builder(), 2)


@pytest.mark.parametrize("name", BUILDERS)
def test_conjugation_steps_are_the_induced_maps(name):
    G = BUILDERS[name]()
    assert [c_g for _, _, c_g in G.conjugation] == [G.induced(g) for g in G.generators]


def test_induced_refuses_an_element_outside_the_normalizer():
    # (1,3) conjugates the non-normal C2 = <(1,2)> of S4 onto <(2,3)>
    P = s4().subgroup([perm(4, "(1,2)")])
    assert P.induced(perm(4, "(3,4)")) == (0, 1)
    with pytest.raises(DomainError, match="does not normalize"):
        P.induced(perm(4, "(1,3)"))


def test_induced_on_a_group_of_degree_one():
    assert PermGroup(1, ()).induced(Permutation.identity(1)) == (0,)


def elementary_abelian(p, rank):
    """C_p^rank on rank disjoint p-cycles."""
    cycle = tuple(range(1, p)) + (0,)
    return PermGroup(p * rank, [
        Permutation(tuple(range(p * i)) + tuple(p * i + j for j in cycle)
                    + tuple(range(p * (i + 1), p * rank)))
        for i in range(rank)
    ])


def gaussian_subgroup_count(p, rank):
    """The subgroups of C_p^rank: the sum over k of the Gaussian binomial
    [rank, k]_p, the number of k-dimensional subspaces of F_p^rank."""
    total = 0
    for k in range(rank + 1):
        count = 1
        for i in range(k):
            count = count * (p ** (rank - i) - 1) // (p ** (i + 1) - 1)
        total += count
    return total


ELEMENTARY_ABELIAN = ((2, 3), (2, 4), (3, 2), (3, 3), (5, 2))  # (p, rank)


def test_gaussian_subgroup_counts():
    counts = [gaussian_subgroup_count(p, rank) for p, rank in ELEMENTARY_ABELIAN]
    assert counts == [16, 67, 6, 28, 8]


LATTICE_CASES = {
    **{f"C{p}^{rank}": (partial(elementary_abelian, p, rank), p, gaussian_subgroup_count(p, rank))
       for p, rank in ELEMENTARY_ABELIAN},
    # D8: 1, five C2, two V4, one C4 and D8 itself
    "D8": (lambda: PermGroup(4, [perm(4, "(1,2,3,4)"), perm(4, "(1,3)")]), 2, 10),
    # Q8: 1, its one involution, three C4 and Q8 itself
    "Q8": (lambda: PermGroup(8, [perm(8, "(1,2,3,4)(5,6,7,8)"),
                                 perm(8, "(1,5,3,7)(2,8,4,6)")]), 2, 6),
    # C4 x C2: 1, three C2, two C4, one V4 and the group itself
    "C4xC2": (lambda: PermGroup(6, [perm(6, "(1,2,3,4)"), perm(6, "(5,6)")]), 2, 8),
}


@pytest.mark.parametrize("name", LATTICE_CASES)
def test_all_subgroups_of_a_p_group(name):
    builder, p, count = LATTICE_CASES[name]
    P = builder()
    subgroups = permgroup._all_subgroups_of(P)
    assert len(subgroups) == count
    raw = [x.images for x in P.elements()]
    as_elements = {frozenset(raw[i] for i in s) for s in subgroups}
    rank = round(math.log(P.order, p))
    assert as_elements == oracles.all_p_subgroups(P.degree, raw, p, max_gens=rank)
