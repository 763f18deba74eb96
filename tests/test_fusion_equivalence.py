"""The fusion route on label indices against the section scan it replaced.

``triple_orbits`` lists Iso(L, P) as Aut(P) . pi0 from one first-hit
search, walks each double coset once over index tuples and takes each
stabilizer from Schreier generators.  ``oracles.section_scan_triple_orbits``
is the route before that change: an unlimited search for every
isomorphism, a membership test of degree |G| for each, two walks per
double coset and a scan of all of Out for each stabilizer.  On every
pair class of the D : E fixtures and of F75, both must give the same
admissible sets, the same orbit representatives in the same order and
the same orbit sizes.  The oracle takes Out from ``oracles.carrier_out``
(Aut(L, u) on the carrier, modulo Inn); each stabilizer here is a
subgroup of C = C_Aut(L)(c_u) containing N, and its image in that Out
must be the oracle's stabilizer element set.
"""

import pytest

import oracles
from conftest import DATA_DIR
from blockfunctor.ddelta import PairClassRegistry
from blockfunctor.errors import InternalCheckError
from blockfunctor.fusion import admissible_isomorphisms, build_fusion, triple_orbits
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.permgroup import PermGroup
from blockfunctor.permutation import Permutation

# the nine fixtures but S4, whose Sylow 2-subgroup is not normal
DE_FIXTURES = ("s3", "c3", "a4", "f20", "f20b", "f21", "g72", "g56")


def fusion_setup(name, monkeypatch):
    if name == "f75":
        # the oracle's Aut(L, u) of the class (25, 3) has order 600
        monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "2000")
    loaded = load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))
    registry = PairClassRegistry()
    registry.classify_group(loaded.group, loaded.p)
    F = build_fusion(loaded.group, loaded.p)
    classes = [cls for cls in registry.classes if cls.subgroup_order > 1]
    return F, classes


@pytest.mark.parametrize("name", DE_FIXTURES + ("f75",))
def test_triple_orbits_match_the_section_scan(name, monkeypatch):
    F, classes = fusion_setup(name, monkeypatch)
    compared = 0
    for cls in classes:
        out = oracles.carrier_out(cls)
        expected = oracles.section_scan_triple_orbits(F, cls, out)
        by_object = {id(obj): tuples for obj, tuples, _ in expected}
        for obj in F.objects:
            if obj.subgroup.order != cls.subgroup_order:
                continue
            admissible = {
                tuple(obj.subgroup.elements()[j] for j in t)
                for t in admissible_isomorphisms(cls, obj)
            }
            assert admissible == by_object.get(id(obj), set())
        got = []
        for o in triple_orbits(F, cls):
            # the stabilizer is a preimage in C: it contains N, and its
            # image in the carrier route's Out is the oracle's stabilizer
            image = {out.project_c(c) for c in o.stabilizer.elements()}
            assert o.stabilizer.order == cls.inner.order * len(image)
            # the representative is a label map; the oracle's is on elements
            rep = tuple(o.object.subgroup.elements()[j] for j in o.rep)
            got.append((id(o.object), rep, o.orbit_size, image))
        assert got == [
            (id(obj), rep, size, stabilizer)
            for obj, _, orbits in expected
            for rep, size, stabilizer in orbits
        ]
        compared += len(got)
    assert compared > 0


@pytest.mark.parametrize("name", DE_FIXTURES + ("f75",))
def test_isomorphisms_number_aut_p(name, monkeypatch):
    # pins the one-hit search: an unlimited search finds |Aut(P)| maps
    # L -> P whenever it finds one
    F, classes = fusion_setup(name, monkeypatch)
    hits = 0
    for cls in classes:
        for obj in F.objects:
            if obj.subgroup.order != cls.subgroup_order:
                continue
            isomorphisms = oracles.all_isomorphisms(cls, obj)
            if isomorphisms:
                aut_p = cls.shared.automorphism_group(obj.subgroup, cls.name)
                assert len(isomorphisms) == aut_p.order
                hits += 1
    assert hits > 0


def test_a_corrupted_right_action_is_named(monkeypatch):
    F, classes = fusion_setup("a4", monkeypatch)
    cls = next(c for c in classes if c.subgroup_order == 4 and c.element_order == 1)
    cls.inner  # C and N are built before C is replaced
    # swapping the identity with another label is no automorphism
    swap = list(range(cls.subgroup_order))
    swap[0], swap[1] = 1, 0
    monkeypatch.setattr(cls, "aut", PermGroup(cls.subgroup_order, [Permutation(swap)]))
    with pytest.raises(InternalCheckError) as failure:
        triple_orbits(F, cls)
    assert str(failure.value) == (
        f"fusion route, class {cls.class_id} (|L|=4, ord u=1), |P|=4: "
        f"orbit action left the admissible set"
    )
