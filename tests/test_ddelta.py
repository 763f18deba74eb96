import dataclasses
import re

import pytest

import oracles
from blockfunctor import chartab, ddelta
from blockfunctor.autos import find_pair_isomorphism
from blockfunctor.battery import a4, c3, f20, f21, g56, g72, s3, s4
from blockfunctor.ddelta import (
    NormalizerPair,
    PairClassRegistry,
    faithful_quotient,
    image_of_normalizer,
    pair_orbit_reps,
)
from blockfunctor.errors import DomainError, InternalCheckError, SizeBoundError
from blockfunctor.multiplicity import invariants_kl
from blockfunctor.permgroup import homomorphism, normalizer
from blockfunctor.permutation import Permutation, conjugate


def perm(degree, text):
    return Permutation.parse(degree, text)


FIXTURES = [(s3, 3), (a4, 2), (f20, 5), (f21, 7), (c3, 3), (s4, 2), (g72, 3), (g56, 2)]


def test_pair_orbit_reps_examples():
    shapes = [
        (pair.subgroup.order, pair.element.order())
        for pair in pair_orbit_reps(s3(), 3)
    ]
    assert shapes == [(1, 1), (1, 2), (3, 1), (3, 2)]

    shapes = [
        (pair.subgroup.order, pair.element.order())
        for pair in pair_orbit_reps(a4(), 2)
    ]
    assert shapes == [(1, 1), (1, 3), (1, 3), (2, 1), (4, 1), (4, 3), (4, 3)]

    shapes = [
        (pair.subgroup.order, pair.element.order())
        for pair in pair_orbit_reps(c3(), 3)
    ]
    assert shapes == [(1, 1), (3, 1)]


@pytest.mark.parametrize("builder,p", [(s3, 3), (a4, 2), (s4, 2)])
def test_pair_orbit_count_against_exhaustive_oracle(builder, p):
    G = builder()
    expected = oracles.orbit_count(G.degree, [g.images for g in G.generators], p)
    assert len(pair_orbit_reps(G, p)) == expected


def test_pairs_for_prime_not_dividing_order():
    reps = pair_orbit_reps(s3(), 5)
    assert len(reps) == 3  # one pair (1, s) per conjugacy class
    registry = PairClassRegistry()
    assignments = registry.classify_group(s3(), 5)
    classes = {cls.class_id for cls, _ in assignments}
    assert len(classes) == 1
    k, l, _ = invariants_kl(s3(), 5)
    assert k == l == len(assignments)


def test_faithful_quotient_shapes():
    pairs = pair_orbit_reps(s3(), 3)
    quotients = [faithful_quotient(pair) for pair in pairs]
    # the carrier L<u> has order |L| ord u
    orders = [(oracles.carrier(q).order, q.element.order()) for q in quotients]
    assert orders == [(1, 1), (1, 1), (3, 1), (6, 2)]


def test_faithful_quotient_has_trivial_cyclic_centralizer():
    for builder, p in FIXTURES:
        for pair in pair_orbit_reps(builder(), p):
            q = faithful_quotient(pair)
            u = q.element
            translations = q.subgroup
            for j in range(1, u.order()):
                power = u ** j
                assert any(
                    power * t != t * power for t in translations.generators
                )


def test_translations_decode_to_the_element_they_translate_by():
    # the witnesses decode a translation t to the element of P at label
    # t(0), which is right only when the identity is label 0
    for builder, p in FIXTURES:
        for pair in pair_orbit_reps(builder(), p):
            labels = pair.subgroup.elements()
            for t in faithful_quotient(pair).subgroup.generators:
                x = labels[t.images[0]]
                assert all(labels[t.images[i]] == y * x for i, y in enumerate(labels))


def test_faithful_quotient_refuses_a_sigma_that_moves_the_identity():
    # a left translation y -> a y commutes with every right translation,
    # which is what the check must exclude; it moves the identity label
    pair = next(
        pr for pr in pair_orbit_reps(s3(), 3)
        if (pr.subgroup.order, pr.element.order()) == (3, 2)
    )
    P = pair.subgroup
    left = P.label_perm(lambda y: P.elements()[1] * y)
    translations = faithful_quotient(pair).subgroup.generators
    assert all(left * t == t * left for t in translations)
    with pytest.raises(InternalCheckError, match=re.escape(
        "faithful quotient, |P|=3, ord s=2: sigma moves the identity label "
        "to (1,2,3), so a power of sigma may centralize the translations"
    )):
        ddelta._check_fixes_identity(pair, left)


def test_classification_counts():
    registry = PairClassRegistry()
    registry.classify_group(s3(), 3)
    assert [
        (c.subgroup_order, c.element_order, len(c.members)) for c in registry.classes
    ] == [(1, 1, 2), (3, 1, 1), (3, 2, 1)]

    registry = PairClassRegistry()
    registry.classify_group(a4(), 2)
    assert [
        (c.subgroup_order, c.element_order, len(c.members)) for c in registry.classes
    ] == [(1, 1, 3), (2, 1, 1), (4, 1, 1), (4, 3, 2)]


def test_classification_is_an_equivalence():
    # same class if and only if the faithful quotients admit a pair isomorphism
    registry = PairClassRegistry()
    for builder, p in [(s3, 3), (a4, 2)]:
        registry.classify_group(builder(), p)
    entries = []
    for cls in registry.classes:
        for member in cls.members:
            entries.append((cls.class_id, faithful_quotient(member.pair)))
    for i, (cid_a, marked_a) in enumerate(entries):
        for cid_b, marked_b in entries[i:]:
            related = find_pair_isomorphism(marked_a, marked_b) is not None
            assert related == (cid_a == cid_b)


def test_registry_is_shared_across_groups():
    registry = PairClassRegistry()
    registry.classify_group(a4(), 2)
    before = len(registry.classes)
    assignments = registry.classify_group(s4(), 2)
    v4_by_a4 = next(
        c for c in registry.classes
        if c.subgroup_order == 4 and c.element_order == 3
    )
    v4_members_s4 = [
        m for c, m in assignments if c.class_id == v4_by_a4.class_id
    ]
    assert v4_members_s4  # the (V4, 3-element) pair of S4 joins A4's class
    assert registry.members_for(a4(), v4_by_a4)
    assert registry.members_for(s4(), v4_by_a4)
    assert before < len(registry.classes)  # S4 also brings new classes (C4, D8)


def test_trivial_class_member_count_equals_l():
    for builder, p in FIXTURES:
        registry = PairClassRegistry()
        registry.classify_group(builder(), p)
        trivial = registry.trivial_class()
        members = registry.members_for(builder(), trivial)
        _, l, _ = invariants_kl(builder(), p)
        assert len(members) == l


def test_out_group_examples():
    registry = PairClassRegistry()
    registry.classify_group(s3(), 3)
    registry.classify_group(a4(), 2)
    by_shape = {
        (c.subgroup_order, c.element_order): c for c in registry.classes
    }
    def out_degrees(cls):
        return tuple(cls.aut_table.degrees[row] for row in cls.out_rows)

    trivial = by_shape[(1, 1)]
    assert trivial.out_order == 1
    assert out_degrees(trivial) == (1,)

    c3_class = by_shape[(3, 1)]
    assert c3_class.out_order == 2
    assert out_degrees(c3_class) == (1, 1)

    klein_moved = by_shape[(4, 3)]
    assert oracles.carrier_out(klein_moved).aut.order == 12
    assert klein_moved.out_order == 1
    # C = N = <c_u>: the automorphisms fixing u are the conjugations by u
    assert klein_moved.aut.order == 3
    assert klein_moved.inner.element_set() == klein_moved.aut.element_set()


def test_witness_intertwining_for_all_members():
    registry = PairClassRegistry()
    for builder, p in FIXTURES:
        registry.classify_group(builder(), p)
    for cls in registry.classes:
        u = cls.realization.element
        for member in cls.members:
            phi = member.phi
            s = member.pair.element
            for tau in cls.realization.subgroup.generators:
                assert phi[conjugate(u, tau)] == conjugate(s, phi[tau])


def test_image_of_normalizer_examples():
    registry = PairClassRegistry()
    assignments = registry.classify_group(s3(), 3)
    for cls, member in assignments:
        image = image_of_normalizer(cls, member.pair, member.phi)
        if (cls.subgroup_order, cls.element_order) == (3, 1):
            assert cls.out_order == 2
            assert image.element_set() == cls.aut.element_set()  # all of Out
        if (cls.subgroup_order, cls.element_order) == (3, 2):
            assert image.element_set() == cls.inner.element_set()  # trivial

    registry = PairClassRegistry()
    assignments = registry.classify_group(a4(), 2)
    klein_fixed = next(
        (cls, m) for cls, m in assignments
        if cls.subgroup_order == 4 and cls.element_order == 1
    )
    cls, member = klein_fixed
    image = image_of_normalizer(cls, member.pair, member.phi)
    assert cls.inner.order == 1
    assert image.order == 3
    assert cls.out_order == 6


def test_fixed_dims_are_witness_independent():
    # i_n . phi is another valid witness for any n in N_G(P, s)
    registry = PairClassRegistry()
    assignments = registry.classify_group(s3(), 3)
    cls, member = next(
        (c, m) for c, m in assignments
        if c.subgroup_order == 3 and c.element_order == 1
    )
    pair = member.pair
    n_ps = [
        g
        for g in normalizer(s3(), pair.subgroup).elements()
        if g * pair.element == pair.element * g
    ]
    base = image_of_normalizer(cls, pair, member.phi)
    base_dims = cls.out_dims(base)
    source = cls.realization.subgroup
    seen_alternative = False
    for n in n_ps:
        pairs = [
            (tau, conjugate(n, member.phi[tau])) for tau in source.generators
        ]
        alt_phi = homomorphism(source, pair.subgroup, pairs)
        if alt_phi == member.phi:
            continue
        seen_alternative = True
        alt = image_of_normalizer(cls, pair, alt_phi)
        assert cls.out_dims(alt) == base_dims
    assert seen_alternative


def test_normalizer_pair_validation():
    with pytest.raises(DomainError):
        NormalizerPair(
            s3(), 3, s3().subgroup([perm(3, "(1,2,3)")]), perm(3, "(1,2,3)"), ()
        )


def a4_class(subgroup_order, element_order):
    """A fresh class of A4 at p=2, with C and N not yet computed."""
    registry = PairClassRegistry()
    registry.classify_group(a4(), 2)
    return next(
        cls for cls in registry.classes
        if (cls.subgroup_order, cls.element_order) == (subgroup_order, element_order)
    )


def as_maps(cls, perms):
    """Label permutations of C as element maps on L."""
    labels = cls.realization.subgroup.elements()
    return [{x: labels[g.images[i]] for i, x in enumerate(labels)} for g in perms]


def test_out_errors_name_the_pair_class(monkeypatch):
    # (V4, u of order 3): C = N = <c_u> has order 3
    cls = a4_class(4, 3)
    with pytest.raises(InternalCheckError, match=re.escape(
        "Out(L, u), pair class (|L|=4, ord u=3): a preimage in C of order 1 "
        "does not contain N of order 3"
    )):
        cls.out_dims(cls.aut.subgroup([]))

    # a C that lost its elements fails the check that N lies in it
    cls = a4_class(4, 3)
    cls.aut = cls.aut.subgroup([])
    with pytest.raises(InternalCheckError, match=re.escape(
        "Out(L, u), pair class (|L|=4, ord u=3): an inner automorphism fixing "
        "u is not in C_Aut(L)(c_u) of order 1"
    )):
        cls.inner

    # an Aut(L) that lost its elements fails the check that c_u lies in it
    monkeypatch.setattr(ddelta, "pair_automorphism_maps", lambda L: [])
    with pytest.raises(InternalCheckError, match=re.escape(
        "Out(L, u), pair class (|L|=4, ord u=3): c_u is not in Aut(L) of order 1"
    )):
        a4_class(4, 3).aut


def test_missing_schreier_generators_are_refused_by_name(monkeypatch):
    # (V4, u of order 3): c_u has 2 conjugates in Aut(V4) = S3, and C has
    # order 3; a walk that returns no Schreier generators closes C to the
    # trivial group, which breaks orbit-stabilizer
    cls = a4_class(4, 3)
    walk = ddelta.class_and_centralizer
    monkeypatch.setattr(
        ddelta, "class_and_centralizer", lambda gens, s: (walk(gens, s)[0], ())
    )
    with pytest.raises(InternalCheckError, match=re.escape(
        "Out(L, u), pair class (|L|=4, ord u=3): C_Aut(L)(c_u) closed from its "
        "Schreier generators has order 1, but c_u has 2 conjugates in Aut(L) "
        "of order 6"
    )):
        cls.aut


def test_non_strong_generators_are_refused_by_name(monkeypatch):
    # (V4, 1): C = Aut(V4) = S3 on the labels; two generators that both
    # move the first base point close to S3 but give the orbit product 3
    cls = a4_class(4, 1)
    L = cls.realization.subgroup
    first = L.position(L.generators[0])
    moving = [g for g in cls.aut.elements() if g.images[first] != first]
    gens = next(
        (a, b) for a in moving for b in moving if cls.aut.subgroup([a, b]).order == 6
    )
    monkeypatch.setattr(ddelta, "pair_automorphism_maps", lambda L: as_maps(cls, gens))
    with pytest.raises(InternalCheckError, match=re.escape(
        "Out(L, u), pair class (|L|=4, ord u=1): C_Aut(L)(c_u) closed from its "
        "generators has order 6, not the basic orbit product 3"
    )):
        a4_class(4, 1).aut


def test_character_table_refusal_names_the_pair_class(monkeypatch):
    cls = a4_class(4, 1)
    monkeypatch.setattr(chartab, "max_order", lambda: 5)
    with pytest.raises(SizeBoundError, match=re.escape(
        "Out(L, u), pair class (|L|=4, ord u=1): character table: the group "
        "has order 6, over the configured bound 5"
    )):
        cls.aut_table


def member_of(G, p, shape, index=0):
    """A class of G at p by (|L|, ord u), with one of its members."""
    registry = PairClassRegistry()
    registry.classify_group(G, p)
    cls = next(c for c in registry.classes if (c.subgroup_order, c.element_order) == shape)
    return cls, cls.members[index]


def corrupted(cls, member, images):
    """A witness sending the generators of L to the given images."""
    L = cls.realization.subgroup
    return homomorphism(L, member.pair.subgroup, list(zip(L.generators, images)))


def swapped(cls, member):
    """The member's witness composed with the automorphism of the
    elementary abelian L that swaps its first two generators."""
    images = [member.phi[g] for g in cls.realization.subgroup.generators]
    images[0], images[1] = images[1], images[0]
    return corrupted(cls, member, images)


def test_witness_checks_name_the_pair_class():
    # (V4, u of order 3): swapping two generators does not commute with c_u
    cls, member = member_of(a4(), 2, (4, 3))
    with pytest.raises(InternalCheckError, match=re.escape(
        "classification, pair class (|L|=4, ord u=3): witness fails the "
        "intertwining relation on (1,2)(3,4)"
    )):
        ddelta._verify_witness(cls, ddelta.ClassMember(member.pair, swapped(cls, member)))
    identity = member.pair.element.identity(4)
    trivial = corrupted(cls, member, [identity, identity])
    with pytest.raises(InternalCheckError, match=re.escape(
        "classification, pair class (|L|=4, ord u=3): witness is not a "
        "bijection onto the subgroup of order 4"
    )):
        ddelta._verify_witness(cls, ddelta.ClassMember(member.pair, trivial))
    # the member P = <(3,4)> of S4, mapped onto <(1,2)> instead
    cls, member = member_of(s4(), 2, (2, 1))
    assert member.pair.subgroup.generators == (perm(4, "(3,4)"),)
    elsewhere = corrupted(cls, member, [perm(4, "(1,2)")])
    with pytest.raises(InternalCheckError, match=re.escape(
        "classification, pair class (|L|=2, ord u=1): witness image is not "
        "the member subgroup of order 2"
    )):
        ddelta._verify_witness(cls, ddelta.ClassMember(member.pair, elsewhere))


def test_witness_closure_failure_names_the_pair_class():
    # (D8, 1): the generators of L have orders 4 and 2, so swapping their
    # images breaks the relations
    cls, member = member_of(s4(), 2, (8, 1))
    a, b = cls.realization.subgroup.generators
    assert (a.order(), b.order()) == (4, 2)
    with pytest.raises(InternalCheckError, match=re.escape(
        "classification, pair class (|L|=8, ord u=1): generator images do not "
        "define a homomorphism"
    )):
        ddelta._witness(cls, member.pair, {a: b, b: a})


def test_normalizer_image_checks_name_the_pair_class():
    # the member P = <(1,2)(3,4)> of S4, with (1,2,3), which does not
    # normalize P, among the generators of N_G(P, s)
    cls, member = member_of(s4(), 2, (2, 1), index=1)
    assert member.pair.subgroup.generators == (perm(4, "(1,2)(3,4)"),)
    pair = dataclasses.replace(
        member.pair,
        centralizer_gens=member.pair.centralizer_gens + (perm(4, "(1,2,3)"),),
    )
    with pytest.raises(InternalCheckError, match=re.escape(
        "normalizer image, pair class (|L|=2, ord u=1): the action of "
        "(1,2,3) leaves the witness image"
    )):
        image_of_normalizer(cls, pair, member.phi)
    # the same member, with a witness onto <(3,4)> instead of P
    with pytest.raises(InternalCheckError, match=re.escape(
        "normalizer image, pair class (|L|=2, ord u=1): witness image is not "
        "the member subgroup of order 2"
    )):
        image_of_normalizer(
            cls, member.pair, corrupted(cls, member, [perm(4, "(3,4)")])
        )
    # (C2^3, u of order 7): C = <c_u>, and a generator swap does not
    # normalize it, so s induces a map outside C
    cls, member = member_of(g56(), 2, (8, 7))
    pair = member.pair
    with pytest.raises(InternalCheckError, match=re.escape(
        "normalizer image, pair class (|L|=8, ord u=7): the map induced by "
        "(2,3,5,4,7,8,6) is not in C_Aut(L)(c_u) of order 7 (intertwining "
        "violation)"
    )):
        image_of_normalizer(cls, pair, swapped(cls, member))
