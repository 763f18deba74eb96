import dataclasses
import re

import pytest

import oracles
from conftest import DATA_DIR
from blockfunctor import chartab, ddelta
from blockfunctor.autos import MarkedPair, find_pair_isomorphism
from blockfunctor.battery import a4, c3, f20, f21, g56, g72, s3, s4
from blockfunctor.ddelta import (
    NormalizerPair,
    PairClassRegistry,
    image_of_normalizer,
    pair_orbit_reps,
)
from blockfunctor.errors import DomainError, InternalCheckError, SizeBoundError
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.multiplicity import invariants_kl
from blockfunctor.permgroup import PermGroup, normalizer, p_subgroup_classes
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


@pytest.mark.parametrize("builder,p", FIXTURES)
def test_pair_orbit_reps_computes_one_element_order_per_class(builder, p, monkeypatch):
    # with the p-subgroup classes and their normalizers built, the pair
    # orbits take one Permutation.order per class of each N_G(P), and one
    # for the check that each pair's s is a p'-element
    fixture = builder()
    G = PermGroup(fixture.degree, fixture.generators)  # nothing cached yet
    normalizers = {id(N): N for N in (normalizer(G, P) for P in p_subgroup_classes(G, p))}
    calls = []
    order = Permutation.order
    monkeypatch.setattr(Permutation, "order", lambda x: calls.append(x) or order(x))
    pairs = pair_orbit_reps(G, p)
    monkeypatch.undo()
    classes = sum(len(N.conjugacy_data()) for N in normalizers.values())
    assert len(calls) == classes + len(pairs)


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
    quotients = [oracles.faithful_quotient(pair) for pair in pairs]
    # the carrier L<u> has order |L| ord u
    orders = [(oracles.carrier(q).order, q.element.order()) for q in quotients]
    assert orders == [(1, 1), (1, 1), (3, 1), (6, 2)]


def test_action_order_is_the_least_power_centralizing_p():
    for builder, p in FIXTURES:
        for pair in pair_orbit_reps(builder(), p):
            s, P = pair.element, pair.subgroup
            order = MarkedPair(P, s).action_order
            centralizing = [
                j for j in range(1, s.order() + 1)
                if all((s ** j) * x == x * (s ** j) for x in P.generators)
            ]
            assert order == centralizing[0]
            # the faithful quotient's sigma has the order of the action
            assert oracles.faithful_quotient(pair).element.order() == order


def test_translations_decode_to_the_element_they_translate_by():
    # the witnesses decode a translation t to the element of P at label
    # t(0), which is right only when the identity is label 0
    for builder, p in FIXTURES:
        for pair in pair_orbit_reps(builder(), p):
            labels = pair.subgroup.elements()
            for t in oracles.faithful_quotient(pair).subgroup.generators:
                x = labels[t.images[0]]
                assert all(labels[t.images[i]] == y * x for i, y in enumerate(labels))


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
    # same class if and only if the faithful quotients on the translations
    # admit a pair isomorphism
    registry = PairClassRegistry()
    for builder, p in [(s3, 3), (a4, 2)]:
        registry.classify_group(builder(), p)
    entries = []
    for cls in registry.classes:
        for member in cls.members:
            entries.append((cls.class_id, oracles.faithful_quotient(member.pair)))
    for i, (cid_a, marked_a) in enumerate(entries):
        for cid_b, marked_b in entries[i:]:
            related = find_pair_isomorphism(marked_a, marked_b) is not None
            assert related == (cid_a == cid_b)


def test_an_element_centralizing_p_joins_the_class_of_the_identity():
    # C3 x C2 at 3: (4,5) centralizes P = <(1,2,3)>, so the pair orbit
    # (P, (4,5)) acts on P as (P, 1) does
    G = load_group(parse_group_file((DATA_DIR / "c6.grp").read_text())).group
    assignments = PairClassRegistry().classify_group(G, 3)
    assert [(m.pair.subgroup.order, m.pair.element) for _, m in assignments][2:] == [
        (3, perm(5, "()")), (3, perm(5, "(4,5)")),
    ]
    cls = assignments[2][0]
    assert assignments[3][0] is cls
    assert cls.element_order == 1
    assert len(cls.members) == 2


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


def witness_map(cls, member):
    """The member's witness read as the element map phi: L -> P."""
    labels = member.pair.subgroup.elements()
    L = cls.realization.subgroup
    return {x: labels[j] for x, j in zip(L.elements(), member.witness.images)}


def test_witness_intertwining_for_all_members():
    registry = PairClassRegistry()
    for builder, p in FIXTURES:
        registry.classify_group(builder(), p)
    for cls in registry.classes:
        u = cls.realization.element
        for member in cls.members:
            phi = witness_map(cls, member)
            s = member.pair.element
            assert set(phi.values()) == member.pair.subgroup.element_set()
            for tau in cls.realization.subgroup.elements():
                assert phi[conjugate(u, tau)] == conjugate(s, phi[tau])


@pytest.mark.parametrize(
    "name", ("s3", "c3", "a4", "s4", "f20", "f20b", "f21", "g72", "g56", "f75")
)
def test_witnesses_are_the_label_form_of_the_oracle_witness(name):
    # a founding member's witness is the identity; any other member's is
    # the first pair isomorphism that the leaf-only search finds over the
    # same candidate lists, written on labels
    loaded = load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))
    registry = PairClassRegistry()
    registry.classify_group(loaded.group, loaded.p)
    checked = 0
    for cls in registry.classes:
        L, u = cls.realization.subgroup, cls.realization.element
        assert cls.members[0].pair is cls.realization
        for member in cls.members:
            P, s = member.pair.subgroup, member.pair.element
            if member is cls.members[0]:
                expected = {x: x for x in L.elements()}
            else:
                sequence = list(L.generators)
                lists = oracles.element_candidates(L, P, sequence)
                found = oracles.leaf_only_search(
                    L.identity.images, P.identity.images, L.order, P.order,
                    [g.images for g in sequence],
                    [[y.images for y in pool] for pool in lists],
                    limit=1, commuting=(u.images, s.images),
                )
                expected = {Permutation(x): Permutation(y) for x, y in found[0].items()}
                checked += 1
            assert member.witness == oracles.label_witness(L, P, expected)
    # every class of C3 at 3 has one member
    assert checked > 0 or name == "c3"


def test_image_of_normalizer_examples():
    registry = PairClassRegistry()
    assignments = registry.classify_group(s3(), 3)
    for cls, member in assignments:
        image = image_of_normalizer(cls, member.pair, member.witness)
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
    image = image_of_normalizer(cls, member.pair, member.witness)
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
    base = image_of_normalizer(cls, pair, member.witness)
    base_dims = cls.out_dims(cls.class_count(base))
    source = cls.realization.subgroup
    phi = witness_map(cls, member)
    seen_alternative = False
    for n in n_ps:
        pairs = [(tau, conjugate(n, phi[tau])) for tau in source.generators]
        alt_w = oracles.label_witness(
            source, pair.subgroup, oracles.element_homomorphism(source, pair.subgroup, pairs)
        )
        if alt_w == member.witness:
            continue
        seen_alternative = True
        alt = image_of_normalizer(cls, pair, alt_w)
        assert cls.out_dims(cls.class_count(alt)) == base_dims
    assert seen_alternative


def test_normalizer_pair_validation():
    G = s3()
    with pytest.raises(DomainError, match="marked element order is divisible by p"):
        NormalizerPair(
            G.subgroup([perm(3, "(1,2,3)")]), perm(3, "(1,2,3)"),
            ambient=G, p=3,
        )
    # the normalization check is MarkedPair's
    with pytest.raises(DomainError, match="marked element does not normalize the subgroup"):
        NormalizerPair(
            G.subgroup([perm(3, "(1,2)")]), perm(3, "(1,2,3)"),
            ambient=G, p=2,
        )
    pair = pair_orbit_reps(G, 3)[-1]
    assert isinstance(pair, MarkedPair)
    assert pair.action_order == 2


def a4_class(subgroup_order, element_order):
    """A fresh class of A4 at p=2, with C and N not yet computed."""
    registry = PairClassRegistry()
    registry.classify_group(a4(), 2)
    return next(
        cls for cls in registry.classes
        if (cls.subgroup_order, cls.element_order) == (subgroup_order, element_order)
    )


def test_out_errors_name_the_pair_class(monkeypatch):
    # (V4, u of order 3): C = N = <c_u> has order 3
    cls = a4_class(4, 3)
    with pytest.raises(InternalCheckError, match=re.escape(
        "Out(L, u), pair class (|L|=4, ord u=3): a preimage in C of order 1 "
        "does not contain N of order 3"
    )):
        cls.class_count(cls.aut.subgroup([]))

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
    walk = ddelta.element_class_and_centralizer
    monkeypatch.setattr(
        ddelta, "element_class_and_centralizer", lambda gens, s: (walk(gens, s)[0], ())
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
    monkeypatch.setattr(ddelta, "pair_automorphism_maps", lambda L: list(gens))
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


def swapped(cls, member):
    """The member's witness composed with the automorphism of the
    elementary abelian L that swaps its first two generators, on labels."""
    L, P = cls.realization.subgroup, member.pair.subgroup
    phi = witness_map(cls, member)
    images = [phi[g] for g in L.generators]
    images[0], images[1] = images[1], images[0]
    return oracles.label_witness(
        L, P, oracles.element_homomorphism(L, P, list(zip(L.generators, images)))
    )


def first_failure(cls, member, w):
    """The first element of L, in label order, on which the witness w
    breaks phi(u x u^-1) = s phi(x) s^-1."""
    L, labels = cls.realization.subgroup, member.pair.subgroup.elements()
    phi = {x: labels[j] for x, j in zip(L.elements(), w.images)}
    u, s = cls.realization.element, member.pair.element
    return next(x for x in L.elements() if phi[conjugate(u, x)] != conjugate(s, phi[x]))


def test_witness_checks_name_the_pair_class():
    # (V4, u of order 3): swapping two generators does not commute with
    # c_u, and the relation first fails on the first generator
    cls, member = member_of(a4(), 2, (4, 3))
    w = swapped(cls, member)
    assert first_failure(cls, member, w) == perm(4, "(1,2)(3,4)")
    with pytest.raises(InternalCheckError, match=re.escape(
        "classification, pair class (|L|=4, ord u=3): witness fails the "
        "intertwining relation on (1,2)(3,4)"
    )):
        ddelta._verify_witness(cls, ddelta.ClassMember(member.pair, w))
    # (C2^3, u of order 7): exchanging the images of two labels that are
    # neither the identity, nor a generator, nor the image of one under
    # c_u keeps the relation on every generator; it is checked on every
    # label, so it fails on the first label it breaks
    cls, member = member_of(g56(), 2, (8, 7))
    L, c_u = cls.realization.subgroup, cls.realization.action
    generators = [L.position(g) for g in L.generators]
    covered = {0, *generators, *(c_u.images[i] for i in generators)}
    k1, k2 = [k for k in range(L.order) if k not in covered][:2]
    images = list(member.witness.images)
    images[k1], images[k2] = images[k2], images[k1]
    w = Permutation(images)
    assert first_failure(cls, member, w) == perm(8, "(1,4)(2,3)(5,8)(6,7)")
    assert first_failure(cls, member, w) not in L.generators
    with pytest.raises(InternalCheckError, match=re.escape(
        "classification, pair class (|L|=8, ord u=7): witness fails the "
        "intertwining relation on (1,4)(2,3)(5,8)(6,7)"
    )):
        ddelta._verify_witness(cls, ddelta.ClassMember(member.pair, w))
    cls, member = member_of(a4(), 2, (4, 3))
    # a witness that does not permute |P| = 4 labels
    for degree in (3, 5):
        with pytest.raises(InternalCheckError, match=re.escape(
            "classification, pair class (|L|=4, ord u=3): witness is not a "
            "bijection onto the subgroup of order 4"
        )):
            ddelta._verify_witness(
                cls, ddelta.ClassMember(member.pair, Permutation.identity(degree))
            )


def test_normalizer_image_checks_name_the_pair_class():
    # the member P = <(1,2)(3,4)> of S4, with (1,2,3), which does not
    # normalize P, among the generators of N_G(P, s)
    cls, member = member_of(s4(), 2, (2, 1), index=1)
    assert member.pair.subgroup.generators == (perm(4, "(1,2)(3,4)"),)
    pair = dataclasses.replace(member.pair)
    # centralizer_gens is made on first read, so this copy is given its own
    object.__setattr__(
        pair, "centralizer_gens", member.pair.centralizer_gens + (perm(4, "(1,2,3)"),)
    )
    with pytest.raises(InternalCheckError, match=re.escape(
        "normalizer image, pair class (|L|=2, ord u=1): the action of "
        "(1,2,3) leaves the witness image"
    )):
        image_of_normalizer(cls, pair, member.witness)
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
