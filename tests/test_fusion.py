import dataclasses
import random
import re

import pytest

import oracles
from blockfunctor import fusion
from blockfunctor.battery import a4, c3, f20, f21, g56, g72, s3, s4
from blockfunctor.ddelta import PairClassRegistry, pair_orbit_reps
from blockfunctor.errors import DomainError, InternalCheckError
from blockfunctor.fusion import (
    _pair_labels,
    _pair_orbit,
    build_fusion,
    frobenius_structure,
    psi_pair,
    triple_orbits,
    verify_class,
)
from blockfunctor.permgroup import PermGroup, direct_product, sylow_subgroup
from blockfunctor.permutation import Permutation, conjugate

FROBENIUS = [(s3, 3), (a4, 2), (f20, 5), (f21, 7), (g72, 3), (g56, 2), (c3, 3)]


def perm(degree, text):
    return Permutation.parse(degree, text)


def fusion_for(builder, p):
    G = builder()
    return G, build_fusion(G, p)


def test_frobenius_structure_shapes():
    cases = {
        (s3, 3): (3, 2),
        (a4, 2): (4, 3),
        (f20, 5): (5, 4),
        (f21, 7): (7, 3),
        (g72, 3): (9, 8),
        (g56, 2): (8, 7),
        (c3, 3): (3, 1),
    }
    for (builder, p), (d_order, e_order) in cases.items():
        G = builder()
        D = frobenius_structure(G, p)
        E = oracles.find_complement(G, D)
        assert (D.order, E.order) == (d_order, e_order)
        assert build_fusion(G, p).kernel.element_set() == D.element_set()


def test_frobenius_structure_rejects_s4():
    with pytest.raises(DomainError, match="not normal"):
        frobenius_structure(s4(), 2)


def c3_times_c2():
    return direct_product(c3(), PermGroup(2, [perm(2, "(1,2)")]))


def test_frobenius_structure_rejects_trivial_action():
    with pytest.raises(DomainError, match="not free"):
        frobenius_structure(c3_times_c2(), 3)


def affine_group(p, rank, matrices):
    """(F_p)^rank by the given matrices, with no hypothesis checked."""
    vectors = [tuple((v // p ** i) % p for i in range(rank)) for v in range(p ** rank)]
    index = {v: i for i, v in enumerate(vectors)}

    def translation(basis):
        return Permutation(
            index[tuple((v[i] + (1 if i == basis else 0)) % p for i in range(rank))]
            for v in vectors
        )

    def matperm(m):
        return Permutation(
            index[tuple(sum(m[i][j] * v[j] for j in range(rank)) % p for i in range(rank))]
            for v in vectors
        )

    return PermGroup(
        p ** rank,
        [translation(b) for b in range(rank)] + [matperm(m) for m in matrices],
    )


def quaternion_frobenius():
    """(C_3)^2 acted on freely by the quaternion group of order 8."""
    return affine_group(3, 2, [[[0, 2], [1, 0]], [[1, 1], [1, 2]]])


FREE_ACTION_CASES = [
    *(pytest.param(builder, p, True, id=f"{builder.__name__}-{p}") for builder, p in FROBENIUS),
    pytest.param(quaternion_frobenius, 3, True, id="C3^2:Q8"),
    pytest.param(c3_times_c2, 3, False, id="C3xC2"),
    # diag(1, 2) fixes the first basis vector
    pytest.param(lambda: affine_group(3, 2, [[[1, 0], [0, 2]]]), 3, False,
                 id="C3^2:C2-diag(1,2)"),
]


@pytest.mark.parametrize("builder,p,free", FREE_ACTION_CASES)
def test_free_action_verdict_matches_the_complement_scan(builder, p, free):
    # class sizes decide freeness exactly when the oracle complement,
    # scanned element by element, has no fixed point
    G = builder()
    D = sylow_subgroup(G, p)
    fixed = oracles.complement_fixed_point(D, oracles.find_complement(G, D))
    assert (fixed is None) == free
    if free:
        assert frobenius_structure(G, p).element_set() == D.element_set()
        return
    with pytest.raises(DomainError, match="not free") as info:
        frobenius_structure(G, p)
    found = re.fullmatch(
        r"complement action is not free: (\S+) fixes (\S+)", str(info.value)
    )
    assert found is not None
    e, d = (perm(G.degree, text) for text in found.groups())
    assert G.contains(e) and not e.is_identity() and e.order() % p != 0
    assert D.contains(d) and not d.is_identity()
    assert conjugate(e, d) == d


def test_frobenius_structure_rejects_trivial_sylow():
    with pytest.raises(DomainError, match="trivial"):
        frobenius_structure(s3(), 5)


def test_build_fusion_objects():
    _, F = fusion_for(s3, 3)
    assert [obj.subgroup.order for obj in F.objects] == [1, 3]
    assert F.objects[1].aut_f.order == 2

    _, F = fusion_for(a4, 2)
    assert [obj.subgroup.order for obj in F.objects] == [1, 2, 4]
    assert F.objects[2].aut_f.order == 3

    _, F = fusion_for(f20, 5)
    assert [obj.subgroup.order for obj in F.objects] == [1, 5]
    assert F.objects[1].aut_f.order == 4


def test_build_fusion_rejects_bad_input():
    with pytest.raises(DomainError, match="not normal"):
        build_fusion(s4(), 2)
    with pytest.raises(DomainError, match="trivial"):
        build_fusion(s3(), 5)


def _classes_with_members(registry, G):
    return [
        cls
        for cls in registry.classes
        if cls.subgroup_order > 1 and registry.members_for(G, cls)
    ]


def test_triple_orbit_examples():
    registry = PairClassRegistry()
    registry.classify_group(s3(), 3)
    G, F = fusion_for(s3, 3)
    cls = next(
        c for c in registry.classes
        if c.subgroup_order == 3 and c.element_order == 1
    )
    orbits = triple_orbits(F, cls)
    assert len(orbits) == 1
    assert cls.out_order == 2
    assert orbits[0].stabilizer.element_set() == cls.aut.element_set()  # all of Out

    registry = PairClassRegistry()
    registry.classify_group(a4(), 2)
    G, F = fusion_for(a4, 2)
    moved = next(
        c for c in registry.classes
        if c.subgroup_order == 4 and c.element_order == 3
    )
    orbits = triple_orbits(F, moved)
    assert len(orbits) == 2
    # trivial in Out: the stabilizers are N itself
    assert all(o.stabilizer.element_set() == moved.inner.element_set() for o in orbits)

    fixed = next(
        c for c in registry.classes
        if c.subgroup_order == 4 and c.element_order == 1
    )
    orbits = triple_orbits(F, fixed)
    assert len(orbits) == 1
    assert fixed.inner.order == 1
    assert orbits[0].stabilizer.order == 3
    assert fixed.out_order == 6


def test_triple_orbits_need_nontrivial_subgroup():
    registry = PairClassRegistry()
    registry.classify_group(s3(), 3)
    _, F = fusion_for(s3, 3)
    with pytest.raises(DomainError):
        triple_orbits(F, registry.trivial_class())


def test_psi_returns_p_prime_inducing_element():
    registry = PairClassRegistry()
    for builder, p in [(s3, 3), (a4, 2), (f20, 5)]:
        G, F = fusion_for(builder, p)
        registry.classify_group(G, p)
        for cls in _classes_with_members(registry, G):
            u = cls.realization.element
            l_elements = cls.realization.subgroup.elements()
            for orbit in triple_orbits(F, cls):
                pair = psi_pair(F, cls, orbit, Permutation(orbit.rep))
                assert pair.element.order() % p != 0
                # the representative is a label map L -> P
                p_elements = orbit.object.subgroup.elements()
                pi = {x: p_elements[j] for x, j in zip(l_elements, orbit.rep)}
                inverse = {y: x for x, y in pi.items()}
                for x in pair.subgroup.generators:
                    expected = pi[conjugate(u, inverse[x])]
                    assert conjugate(pair.element, x) == expected


@pytest.mark.parametrize("builder,p", FROBENIUS + [(s4, 2)])
def test_pair_orbit_is_every_conjugate_of_the_pair(builder, p):
    # the label walk of a pair's G-orbit, against conjugation by every g
    G = builder()
    for pair in pair_orbit_reps(G, p):
        conjugates = {
            (
                frozenset(G.position(conjugate(g, x)) for x in pair.subgroup.elements()),
                G.position(conjugate(g, pair.element)),
            )
            for g in G.elements()
        }
        assert _pair_orbit(G, pair) == conjugates


def psi_images_are_orbit_invariant(G, F, cls, rng):
    """Conjugate each triple of cls by random elements of G that keep its
    object, twist it by random elements of C, and check that the psi image
    stays in the pair orbit of the base image; returns (pairs moved, of
    those the ones that differ from their base pair)."""
    moved_count = differ = 0
    for orbit in triple_orbits(F, cls):
        base = psi_pair(F, cls, orbit, Permutation(orbit.rep))
        obj = orbit.object
        for _ in range(4):
            g = rng.choice(G.elements())
            if not all(
                conjugate(g, x) in obj.subgroup.element_set()
                for x in obj.subgroup.generators
            ):
                continue  # stay at the same object
            # L is abelian, so Aut(L, u) acts on L through C
            row = rng.choice(cls.aut.elements()).images
            P = obj.subgroup
            twisted = tuple(
                P.position(conjugate(g, P.elements()[orbit.rep[row[i]]]))
                for i in range(len(row))
            )
            moved_orbit = type(orbit)(
                object=obj,
                rep=twisted,
                stabilizer=orbit.stabilizer,
                orbit_size=orbit.orbit_size,
            )
            moved = psi_pair(F, cls, moved_orbit, Permutation(twisted))
            assert _pair_labels(G, moved) in _pair_orbit(G, base)
            assert oracles.pairs_conjugate_scan(G, moved, base)
            moved_count += 1
            differ += _pair_labels(G, moved) != _pair_labels(G, base)
    return moved_count, differ


def test_psi_image_is_orbit_invariant():
    # conjugating the triple and twisting by a pair automorphism does not
    # move the psi image out of its pair orbit
    registry = PairClassRegistry()
    G, F = fusion_for(a4, 2)
    registry.classify_group(G, 2)
    cls = next(
        c for c in registry.classes
        if c.subgroup_order == 4 and c.element_order == 3
    )
    psi_images_are_orbit_invariant(G, F, cls, random.Random(7))


def test_psi_image_is_orbit_invariant_on_c3sq_q8():
    # on A4 every moved psi pair equals its base pair, so a pair orbit
    # that held only its seed would pass there; on C3^2:Q8 some moved
    # pairs differ from their base pair
    registry = PairClassRegistry()
    G, F = fusion_for(quaternion_frobenius, 3)
    registry.classify_group(G, 3)
    rng = random.Random(7)
    moved = differ = 0
    for cls in _classes_with_members(registry, G):
        counts = psi_images_are_orbit_invariant(G, F, cls, rng)
        moved, differ = moved + counts[0], differ + counts[1]
    assert differ > 0, f"all {moved} moved pairs equal their base pair"


def test_non_cyclic_complement_is_found_and_verified():
    from blockfunctor.ddelta import PairClassRegistry
    from blockfunctor.multiplicity import (
        cross_check_formulas,
        mult_table_fusion,
        mult_table_pairs,
    )

    G = quaternion_frobenius()
    assert G.order == 72
    D = frobenius_structure(G, 3)
    E = oracles.find_complement(G, D)
    assert D.order == 9 and E.order == 8
    assert all(x.order() < 8 for x in E.elements())  # quaternion, not cyclic
    F = build_fusion(G, 3)
    assert F.kernel.element_set() == D.element_set()
    registry = PairClassRegistry()
    pairs_table = mult_table_pairs(G, 3, registry, "Q8frob")
    cross_check_formulas(pairs_table, mult_table_fusion(F, registry, "Q8frob"))
    fused = next(
        c for c in registry.classes
        if c.subgroup_order == 9 and c.element_order == 4
    )
    assert len(fused.members) == 3  # the three order-4 complement classes fuse
    for cls in registry.classes:
        if cls.subgroup_order > 1 and registry.members_for(G, cls):
            verify_class(F, cls, registry)


@pytest.mark.parametrize("builder,p", FROBENIUS)
def test_verify_class_passes_on_frobenius_fixtures(builder, p):
    registry = PairClassRegistry()
    G, F = fusion_for(builder, p)
    registry.classify_group(G, p)
    checked = 0
    for cls in _classes_with_members(registry, G):
        result = verify_class(F, cls, registry)
        assert result.triple_orbits == result.pair_orbits
        checked += 1
    if builder is not c3:
        assert checked >= 2


def a4_class_with_fusion(shape):
    """A class of A4 at p = 2 by (|L|, ord u), with its registry and fusion."""
    registry = PairClassRegistry()
    G, F = fusion_for(a4, 2)
    registry.classify_group(G, 2)
    cls = next(c for c in registry.classes if (c.subgroup_order, c.element_order) == shape)
    return F, cls, registry


def inverted_c9_by_c3():
    """(C9 x C3) : C2, the inversion acting freely on the normal Sylow
    3-subgroup D = C9 x C3, which is abelian but not elementary."""
    a = Permutation([(i + 1) % 9 for i in range(9)] + [9, 10, 11])
    b = Permutation(list(range(9)) + [10, 11, 9])
    t = Permutation([-i % 9 for i in range(9)] + [9, 11, 10])
    return PermGroup(12, [a, b, t])


def test_verify_class_passes_with_a_non_elementary_sylow():
    G = inverted_c9_by_c3()
    F = build_fusion(G, 3)
    registry = PairClassRegistry()
    registry.classify_group(G, 3)
    results = [verify_class(F, cls, registry) for cls in _classes_with_members(registry, G)]
    assert len(results) == 8
    assert all(r.triple_orbits == r.pair_orbits for r in results)


def corrupt_orbits(monkeypatch, corrupt):
    """Hand verify_class the triple orbits as corrupt(orbits) returns them."""
    monkeypatch.setattr(fusion, "triple_orbits", lambda F, cls: corrupt(triple_orbits(F, cls)))


def test_verify_class_checks_name_the_class_and_orbit(monkeypatch):
    # (V4, u of order 3): two triple orbits against one pair orbit
    F, cls, registry = a4_class_with_fusion((4, 3))
    cls.members.pop()
    with pytest.raises(InternalCheckError, match=re.escape(
        "fusion route, class 3 (|L|=4, ord u=3), |P|=4: 2 triple orbits vs "
        "1 pair orbits"
    )):
        verify_class(F, cls, registry)

    # the first orbit twice: both land on the first pair orbit
    F, cls, registry = a4_class_with_fusion((4, 3))
    corrupt_orbits(monkeypatch, lambda orbits: [orbits[0], orbits[0]])
    with pytest.raises(InternalCheckError, match=re.escape(
        "fusion route, class 3 (|L|=4, ord u=3), |P|=4: triple orbits 0 and 1 "
        "map to the same pair orbit"
    )):
        verify_class(F, cls, registry)

    # (V4, 1): the stabilizer of the one orbit has order 3 in C = S3
    F, cls, registry = a4_class_with_fusion((4, 1))
    corrupt_orbits(monkeypatch, lambda orbits: [
        dataclasses.replace(o, stabilizer=cls.aut) for o in orbits
    ])
    with pytest.raises(InternalCheckError, match=re.escape(
        "fusion route, class 2 (|L|=4, ord u=1), |P|=4: stabilizer mismatch on "
        "triple orbit 0 (|image| = 3, |stabilizer| = 6)"
    )):
        verify_class(F, cls, registry)

    # a representative sending the first generator of L to the identity
    # closes to a homomorphism with a kernel, which is no bijection onto P
    F, cls, registry = a4_class_with_fusion((4, 1))
    L = cls.realization.subgroup
    first = L.position(L.generators[0])

    def to_identity(orbits):
        rep = list(orbits[0].rep)
        rep[first] = 0
        return [dataclasses.replace(orbits[0], rep=tuple(rep))]

    corrupt_orbits(monkeypatch, to_identity)
    with pytest.raises(InternalCheckError, match=re.escape(
        "fusion route, class 2 (|L|=4, ord u=1), |P|=4, triple orbit 0: "
        "generator images do not define a bijection onto P"
    )):
        verify_class(F, cls, registry)

    # (C9 x C3, 1): both generators of L have order 9 and the same cube up
    # to sign, so sending the first to an element of order 3 breaks that
    # relation, and pi does not close to a homomorphism
    G = inverted_c9_by_c3()
    F = build_fusion(G, 3)
    registry = PairClassRegistry()
    registry.classify_group(G, 3)
    cls = next(c for c in registry.classes if (c.subgroup_order, c.element_order) == (27, 1))
    L = cls.realization.subgroup
    assert [g.order() for g in L.generators] == [9, 9]
    first = L.position(L.generators[0])

    def order_three(orbits):
        P = orbits[0].object.subgroup
        rep = list(orbits[0].rep)
        rep[first] = next(j for j, x in enumerate(P.elements()) if x.order() == 3)
        return [dataclasses.replace(orbits[0], rep=tuple(rep))]

    corrupt_orbits(monkeypatch, order_three)
    with pytest.raises(InternalCheckError, match=re.escape(
        "fusion route, class 7 (|L|=27, ord u=1), |P|=27, triple orbit 0: "
        "generator images do not define a homomorphism"
    )):
        verify_class(F, cls, registry)
