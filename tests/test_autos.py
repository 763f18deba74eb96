import pytest

import oracles
from blockfunctor.autos import (
    MarkedPair,
    action_from_maps,
    find_group_isomorphism,
    find_pair_isomorphism,
    inner_automorphism_subgroup,
    pair_automorphism_maps,
)
from blockfunctor.battery import a4, c3, s3, s4
from blockfunctor.errors import DomainError
from blockfunctor.permgroup import group_from_generators
from blockfunctor.permutation import Permutation


def perm(degree, text):
    return Permutation.parse(degree, text)


def v4():
    return group_from_generators(4, [perm(4, "(1,2)(3,4)"), perm(4, "(1,3)(2,4)")])


def pair_action(mp):
    """Aut(L, u) on the element labels, closed from its strong generators."""
    return action_from_maps(mp, pair_automorphism_maps(mp))


def automorphism_action(G):
    """Aut(G) on the element labels: the pair automorphisms of (G, 1)."""
    return pair_action(MarkedPair(G, G.full_subgroup(), G.identity))


def test_automorphism_group_orders():
    assert automorphism_action(c3()).group.order == 2
    assert automorphism_action(v4()).group.order == 6
    assert automorphism_action(a4()).group.order == 24


def test_inner_automorphisms_are_members_and_divide():
    for G in (s3(), a4(), v4(), c3()):
        action = automorphism_action(G)
        inn = inner_automorphism_subgroup(G, action)
        center = oracles.center([x.images for x in G.elements()])
        assert inn.order == G.order // len(center)
        assert action.group.order % inn.order == 0
        for g in inn.generators:
            assert action.group.contains(g)


def test_automorphism_perms_act_on_element_labels():
    action = automorphism_action(c3())
    nontrivial = next(g for g in action.group.elements() if not g.is_identity())
    g = perm(3, "(1,2,3)")
    assert action.apply(nontrivial, g) == g.inverse()


def marked(G, sub_gens, s):
    return MarkedPair(G, G.subgroup(sub_gens), s)


def test_find_pair_isomorphism_conjugate_markings():
    G = s3()
    a = marked(G, [perm(3, "(1,2,3)")], perm(3, "(1,2)"))
    b = marked(G, [perm(3, "(1,2,3)")], perm(3, "(2,3)"))
    f = find_pair_isomorphism(a, b)
    assert f is not None
    t_class = G.conjugacy_data()[G.class_index_of(b.element)]
    assert f(a.element) in t_class.elements


def test_find_pair_isomorphism_fuses_inverse_classes_in_a4():
    G = a4()
    c = perm(4, "(1,2,3)")
    gens = [perm(4, "(1,2)(3,4)"), perm(4, "(1,3)(2,4)")]
    a = marked(G, gens, c)
    b = marked(G, gens, c * c)
    f = find_pair_isomorphism(a, b)
    assert f is not None
    # the witness maps the marked subgroup onto itself
    vset = a.subgroup.element_set()
    assert all(f(x) in vset for x in a.subgroup.elements())


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
        MarkedPair(s4(), s4().subgroup([perm(4, "(1,2)")]), perm(4, "(2,3,4)"))
    with pytest.raises(DomainError):
        # subgroup and element together must generate the group
        MarkedPair(G, G.trivial_subgroup(), G.identity)


def test_pair_automorphism_count_for_a4_marking():
    G = a4()
    gens = [perm(4, "(1,2)(3,4)"), perm(4, "(1,3)(2,4)")]
    mp = marked(G, gens, perm(4, "(1,2,3)"))
    # only the inner automorphisms preserve the class
    assert pair_action(mp).group.order == 12


def test_find_group_isomorphism():
    c4 = group_from_generators(4, [perm(4, "(1,2,3,4)")])
    assert find_group_isomorphism(c4, v4()) is None
    shifted = group_from_generators(4, [perm(4, "(2,3,4)"), perm(4, "(2,3)")])
    f = find_group_isomorphism(s3(), shifted)
    assert f is not None and f.is_bijective()
