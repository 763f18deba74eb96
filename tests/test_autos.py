import pytest

import oracles
from test_pair_isomorphism import assert_intertwines
from blockfunctor.autos import (
    MarkedPair,
    find_group_isomorphism,
    find_pair_isomorphism,
    pair_automorphism_maps,
)
from blockfunctor.battery import a4, c3, s3, s4
from blockfunctor.ddelta import PairClass, SharedGroups
from blockfunctor.errors import DomainError
from blockfunctor.permgroup import PermGroup
from blockfunctor.permutation import Permutation, conjugate


def perm(degree, text):
    return Permutation.parse(degree, text)


def v4():
    return PermGroup(4, [perm(4, "(1,2)(3,4)"), perm(4, "(1,3)(2,4)")])


def pair_class(mp):
    """A class realized by the marked pair; C and N are built on first read."""
    return PairClass(0, mp, (), SharedGroups())


def automorphism_class(G):
    """The class of (G, 1): C is Aut(G) on the element labels and N is
    Inn(G)."""
    return pair_class(MarkedPair(G, G.identity))


def test_automorphism_group_orders():
    assert automorphism_class(c3()).aut.order == 2
    assert automorphism_class(v4()).aut.order == 6
    assert automorphism_class(a4()).aut.order == 24


def test_inner_automorphisms_are_members_and_divide():
    for G in (s3(), a4(), v4(), c3()):
        cls = automorphism_class(G)
        inn = cls.inner
        center = oracles.center([x.images for x in G.elements()])
        assert inn.order == G.order // len(center)
        assert cls.aut.order % inn.order == 0
        for g in inn.generators:
            assert cls.aut.contains(g)


def test_automorphism_perms_act_on_element_labels():
    cls = automorphism_class(c3())
    nontrivial = next(g for g in cls.aut.elements() if not g.is_identity())
    g = perm(3, "(1,2,3)")
    L = cls.realization.subgroup
    assert L.elements()[nontrivial.images[L.position(g)]] == g.inverse()


def marked(G, sub_gens, s):
    """The pair (L, s) for L = <sub_gens> inside G."""
    return MarkedPair(G.subgroup(sub_gens), s)


def assert_isomorphism(A, B, labels):
    """The label map sends A onto B and respects products."""
    assert len(labels) == A.order and sorted(labels) == list(range(B.order))
    image = dict(zip(A.elements(), (B.elements()[j] for j in labels)))
    assert all(image[x * y] == image[x] * image[y] for x in image for y in image)


def test_find_pair_isomorphism_conjugate_markings():
    G = s3()
    a = marked(G, [perm(3, "(1,2,3)")], perm(3, "(1,2)"))
    b = marked(G, [perm(3, "(1,2,3)")], perm(3, "(2,3)"))
    f = find_pair_isomorphism(a, b)
    assert f is not None
    assert_intertwines(f, a, b)
    # the carrier route's isomorphism of S3 sends u into the class of u'
    F = oracles.carrier_pair_isomorphism(a, b)
    t_class = G.conjugacy_data()[G.class_index_of(b.element)]
    assert F[a.element] in t_class.elements


def test_find_pair_isomorphism_fuses_inverse_classes_in_a4():
    G = a4()
    c = perm(4, "(1,2,3)")
    gens = [perm(4, "(1,2)(3,4)"), perm(4, "(1,3)(2,4)")]
    a = marked(G, gens, c)
    b = marked(G, gens, c * c)
    f = find_pair_isomorphism(a, b)
    assert f is not None
    # the witness maps the marked subgroup onto itself
    assert {b.subgroup.elements()[j] for j in f} == a.subgroup.element_set()
    assert_intertwines(f, a, b)


def test_find_pair_isomorphism_distinguishes_ambient_orders():
    small = c3()
    a = marked(small, [perm(3, "(1,2,3)")], small.identity)
    b = marked(s3(), [perm(3, "(1,2,3)")], perm(3, "(1,2)"))
    assert find_pair_isomorphism(a, b) is None


def test_find_pair_isomorphism_is_symmetric():
    G = a4()
    c = perm(4, "(1,2,3)")
    gens = [perm(4, "(1,2)(3,4)"), perm(4, "(1,3)(2,4)")]
    klein = v4()
    pairs = [
        (marked(G, gens, c), marked(G, gens, c * c)),
        (
            marked(klein, klein.generators, klein.identity),
            marked(klein, klein.generators, klein.identity),
        ),
        (
            marked(s3(), [perm(3, "(1,2,3)")], perm(3, "(1,2)")),
            marked(s3(), [perm(3, "(1,2,3)")], perm(3, "(1,3)")),
        ),
    ]
    for a, b in pairs:
        forward = find_pair_isomorphism(a, b)
        backward = find_pair_isomorphism(b, a)
        assert (forward is None) == (backward is None)


def test_marked_pair_validation():
    G = s3()
    with pytest.raises(DomainError):
        # the marked element must normalize the subgroup
        marked(s4(), [perm(4, "(1,2)")], perm(4, "(2,3,4)"))
    with pytest.raises(DomainError):
        # the marked element must act on the points of the subgroup
        marked(G, [perm(3, "(1,2,3)")], perm(4, "(1,2)"))


def test_pair_automorphism_count_for_a4_marking():
    G = a4()
    gens = [perm(4, "(1,2)(3,4)"), perm(4, "(1,3)(2,4)")]
    mp = marked(G, gens, perm(4, "(1,2,3)"))
    # only the inner automorphisms preserve the class
    assert oracles.carrier_out(pair_class(mp)).aut.order == 12
    # the 3 of them that fix u restrict to C, which is N = <c_u>
    cls = pair_class(mp)
    assert cls.aut.order == 3
    assert cls.inner.element_set() == cls.aut.element_set()
    # the search finds strong generators of Aut(V4) = S3 as permutations
    # of the labels of L, two of them, with no regard to u; C is the
    # centralizer of c_u there
    maps = pair_automorphism_maps(mp.subgroup)
    assert len(maps) == 2
    for m in maps:
        assert_isomorphism(mp.subgroup, mp.subgroup, m.images)
    assert cls.shared.automorphism_group(mp.subgroup, cls.name).order == 6
    labels = mp.subgroup.elements()
    for c in cls.aut.elements():
        m = {x: labels[c.images[i]] for i, x in enumerate(labels)}
        assert all(m[conjugate(mp.element, x)] == conjugate(mp.element, m[x]) for x in m)


def test_find_group_isomorphism():
    c4 = PermGroup(4, [perm(4, "(1,2,3,4)")])
    assert find_group_isomorphism(c4, v4()) is None
    shifted = PermGroup(4, [perm(4, "(2,3,4)"), perm(4, "(2,3)")])
    f = find_group_isomorphism(s3(), shifted)
    assert f is not None
    assert_isomorphism(s3(), shifted, f)
