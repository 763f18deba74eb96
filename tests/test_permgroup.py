import math

import pytest

import oracles
from blockfunctor.battery import a4, c3, f20, f21, g72, s3, s4
from blockfunctor.errors import DomainError, InternalCheckError, SizeBoundError
from blockfunctor.permgroup import (
    centralizer,
    direct_product,
    frobenius_group,
    group_from_generators,
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
        chain_product = math.prod((len(t) for _, t in G._chain), start=1)
        assert G.order == chain_product


def test_strong_generator_structure():
    for builder in SMALL_FIXTURES:
        G = builder()
        for g in G.generators:
            assert G.contains(g)
        for point, transversal in G._chain:
            for image, u in transversal.items():
                assert G.contains(u) and u.images[point] == image
        assert len(G.base) == len(G._chain)


def test_degree_validation():
    with pytest.raises(DomainError):
        group_from_generators(0, [])
    with pytest.raises(DomainError):
        group_from_generators(3, [perm(4, "(1,2,3,4)")])


def test_trivial_group():
    G = group_from_generators(1, [])
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
    assert normalizer(a4(), a4().trivial_subgroup()).order == 12


def test_normalizer_requires_containment():
    with pytest.raises(DomainError):
        normalizer(a4(), s4().subgroup([perm(4, "(1,2)")]))


def test_centralizer_examples():
    assert centralizer(s3(), perm(3, "(1,2,3)")).order == 3
    assert centralizer(a4(), perm(4, "(1,2,3)")).order == 3
    assert centralizer(a4(), a4().identity).order == 12
    with pytest.raises(DomainError):
        centralizer(a4(), perm(4, "(1,2)"))


def test_p_part_examples():
    assert p_part(72, 3) == 9 and p_part(72, 2) == 8 and p_part(56, 2) == 8
    assert p_part(21, 5) == 1 and p_part(1, 3) == 1


def test_p_subgroup_classes_examples():
    assert [P.order for P in p_subgroup_classes(s3(), 3)] == [1, 3]
    assert [P.order for P in p_subgroup_classes(a4(), 2)] == [1, 2, 4]
    assert [P.order for P in p_subgroup_classes(f20(), 5)] == [1, 5]
    assert [P.order for P in p_subgroup_classes(s4(), 2)] == [1, 2, 2, 4, 4, 4, 8]


@pytest.mark.parametrize("builder,p", [(s3, 3), (a4, 2), (s4, 2), (f20, 5)])
def test_p_subgroup_classes_against_exhaustive_enumeration(builder, p):
    G = builder()
    reps = p_subgroup_classes(G, p)
    rep_sets = [frozenset(x.images for x in P.elements()) for P in reps]
    raw_elements = oracles.closure(G.degree, [g.images for g in G.generators])
    for sub in oracles.all_p_subgroups(G.degree, raw_elements, p):
        conjugates = {
            frozenset(oracles.conj(g, x) for x in sub) for g in raw_elements
        }
        hits = [i for i, rset in enumerate(rep_sets) if rset in conjugates]
        assert len(hits) == 1


def test_sylow_subgroup_order():
    assert sylow_subgroup(s4(), 2).order == 8
    assert sylow_subgroup(g72(), 3).order == 9


def test_frobenius_group_examples():
    frob = frobenius_group(3, 1, [[2]])
    assert frob.group.order == 6
    assert frob.kernel.order == 3 and frob.complement.order == 2

    frob72 = frobenius_group(3, 2, [[0, 1], [1, 2]])
    assert frob72.group.order == 72
    assert frob72.complement.order == 8

    frob56 = frobenius_group(2, 3, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
    assert frob56.group.order == 56
    assert frob56.complement.order == 7


def test_frobenius_freeness_by_direct_scan():
    for frob in (
        frobenius_group(3, 1, [[2]]),
        frobenius_group(5, 1, [[2]]),
        frobenius_group(3, 2, [[0, 1], [1, 2]]),
        frobenius_group(2, 3, [[0, 0, 1], [1, 0, 1], [0, 1, 0]]),
    ):
        for e in frob.complement.elements():
            if e.is_identity():
                continue
            for d in frob.kernel.elements():
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


def test_quotient_group_examples():
    G = s3()
    Q, proj = quotient_group(G, G.subgroup([perm(3, "(1,2,3)")]))
    assert Q.order == 2
    assert proj.mapping()[perm(3, "(1,2)")] != Q.identity

    A = a4()
    V = A.subgroup([perm(4, "(1,2)(3,4)"), perm(4, "(1,3)(2,4)")])
    Q2, proj2 = quotient_group(A, V)
    assert Q2.order == 3
    kernel = [x for x, y in proj2.mapping().items() if y.is_identity()]
    assert sorted(kernel) == sorted(V.elements())

    Q3, _ = quotient_group(A, A.full_subgroup())
    assert Q3.order == 1


def test_quotient_rejects_non_normal():
    with pytest.raises(DomainError):
        quotient_group(s4(), s4().subgroup([perm(4, "(1,2)")]))


def test_direct_product():
    GH = direct_product(s3(), c3())
    assert GH.order == 18
    assert GH.degree == 6


def test_group_hom_detects_non_homomorphism():
    from blockfunctor.permgroup import GroupHom

    G = s3()
    bad = GroupHom(
        G,
        G,
        [(perm(3, "(1,2,3)"), perm(3, "(1,2)")), (perm(3, "(1,2)"), perm(3, "(1,2)"))],
    )
    with pytest.raises(InternalCheckError):
        bad.mapping()


def test_size_bound(monkeypatch):
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "5")
    with pytest.raises(SizeBoundError):
        group_from_generators(3, [perm(3, "(1,2,3)"), perm(3, "(1,2)")])
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "6")
    assert group_from_generators(3, [perm(3, "(1,2,3)"), perm(3, "(1,2)")]).order == 6
