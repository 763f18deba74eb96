"""The permutation character pi of a class, and the work it saves.

For a class (L, u) a multiplicity table sums over subgroups H of C that
contain N: the normalizer images on the pair route, the triple-orbit
stabilizers on the fusion route.  pi = sum over H of 1_H induced to C is
a character of C / N, and by Frobenius reciprocity its multiplicity on
the irreducible r of Out is the row m_r, so pi(c) = sum over r of
m_r chi_r(c) on every class c of C.  compare decides stability from pi
and builds a character table only for a class whose pi differ; the
generators of N_G(P, s) are walked only when a normalizer image reads
them.
"""

import dataclasses
import io
import re
from contextlib import redirect_stdout

import pytest

from conftest import DATA_DIR
from blockfunctor import ddelta, multiplicity
from blockfunctor.battery import f20, f20_relabeled, g72
from blockfunctor.cli import main
from blockfunctor.ddelta import PairClassRegistry, pair_orbit_reps
from blockfunctor.errors import DomainError, InternalCheckError
from blockfunctor.fusion import build_fusion, verify_class
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.multiplicity import (
    compare,
    cross_check_formulas,
    mult_table_fusion,
    mult_table_pairs,
)
from blockfunctor.permgroup import PermGroup
from blockfunctor.permutation import Permutation

# every fixture that passes mult at the default bound, and the three
# that pass it under a raised bound; C11^2:C2 would build the table of
# GL(2,11), and C5^3:C4 and F2R11 are refused at any bound used here
FIXTURES = ("s3", "c3", "c6", "a4", "s4", "f20", "f20b", "f21", "g56", "g72", "f75")
RAISED = ("f80", "f240", "f351")


def load(name):
    return load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))


def assert_pi_is_the_row_sum(table):
    """pi(c) = sum over the irreducibles r of Out of m_r chi_r(c), on
    every class of C: exactly at the identity, mod q elsewhere."""
    assert table.counts
    for cid, pi in table.pi.items():
        cls = table.registry.classes[cid]
        chars, q = cls.aut_table, cls.aut_table.modulus
        rows = table.class_rows(cid)
        m = [rows[(cid, irr)] for irr in range(len(cls.out_rows))]
        assert len(pi) == chars.n_classes == len(cls.aut.conjugacy_data())
        assert pi[0] == sum(mr * chars.degrees[r] for mr, r in zip(m, cls.out_rows))
        for j, value in enumerate(pi):
            expected = sum(mr * chars.values[r][j] for mr, r in zip(m, cls.out_rows))
            assert value % q == expected % q, (cid, j)


@pytest.mark.parametrize("name", FIXTURES + RAISED)
def test_pi_is_the_row_sum_on_both_routes(name, monkeypatch):
    if name in RAISED:
        monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "25000")
    loaded = load(name)
    registry = PairClassRegistry()
    assert_pi_is_the_row_sum(mult_table_pairs(loaded.group, loaded.p, registry))
    try:
        fusion = build_fusion(loaded.group, loaded.p)
    except DomainError:
        assert name in ("c6", "s4")  # not of the form D : E
        return
    assert_pi_is_the_row_sum(mult_table_fusion(fusion, registry))


def f20_tables():
    registry = PairClassRegistry()
    return mult_table_pairs(f20(), 5, registry), mult_table_pairs(f20_relabeled(), 5, registry)


def without_one_subgroup(table, cid):
    """The table with the last H of one class dropped from its sum."""
    return dataclasses.replace(table, counts={**table.counts, cid: table.counts[cid][:-1]})


def test_dropping_one_subgroup_flips_a_stable_verdict():
    left, right = f20_tables()
    assert compare(left, right).stable
    nontrivial = [cid for cid in right.counts if right.registry.classes[cid].subgroup_order > 1]
    assert nontrivial
    for cid in nontrivial:
        verdict = compare(left, without_one_subgroup(right, cid))
        assert not verdict.stable and not verdict.functorial
        # the rows that the table of C lists are those of the mutated class
        assert verdict.diff and {row[0] for row in verdict.diff} == {cid}


def test_a_stable_verdict_builds_no_table(monkeypatch):
    left, right = f20_tables()

    def refuse(self):
        raise AssertionError(f"{self.name}: table built")

    monkeypatch.setattr(ddelta.PairClass, "aut_table", property(refuse))
    assert compare(left, right).stable
    nontrivial = next(c for c in right.counts if right.registry.classes[c].subgroup_order > 1)
    with pytest.raises(AssertionError, match="table built"):
        compare(left, without_one_subgroup(right, nontrivial))


def test_pi_checks_name_their_class(monkeypatch):
    registry = PairClassRegistry()
    G = g72()
    pairs_table = mult_table_pairs(G, 3, registry)
    fusion_table = mult_table_fusion(build_fusion(G, 3), registry)
    cid = max(fusion_table.counts)
    dropped = without_one_subgroup(fusion_table, cid)
    with pytest.raises(InternalCheckError, match=re.escape(
        f"permutation character mismatch at class {cid}: pair route "
        f"{pairs_table.pi[cid]} vs fusion route {dropped.pi[cid]}"
    )):
        cross_check_formulas(pairs_table, dropped)
    # pi that differ where the rows agree contradict linear independence
    other = dataclasses.replace(pairs_table)
    other.pi = {**pairs_table.pi, cid: dropped.pi[cid]}
    with pytest.raises(InternalCheckError, match=re.escape(
        "permutation characters differ on a class whose rows agree"
    )):
        compare(pairs_table, other)
    # the trivial-class check reads pi, and keeps its message
    monkeypatch.setattr(multiplicity, "invariants_kl", lambda G, p: (9, 1, 8))
    with pytest.raises(InternalCheckError, match=re.escape(
        "multiplicity at the trivial class does not equal the p-regular class count"
    )):
        mult_table_pairs(G, 3, registry)


def counting_walks(monkeypatch):
    walks = []
    walk = ddelta.class_and_centralizer

    def counted(N, s):
        walks.append((N, s))
        return walk(N, s)

    monkeypatch.setattr(ddelta, "class_and_centralizer", counted)
    return walks


def test_pairs_on_a6_walks_no_class(monkeypatch, tmp_path):
    walks = counting_walks(monkeypatch)
    path = tmp_path / "a6.grp"
    path.write_text("name A6\ndegree 6\nprime 2\ngen (1,2,3)\ngen (2,3,4,5,6)\n")
    with redirect_stdout(io.StringIO()) as out:
        assert main(["pairs", str(path)]) == 0
    assert out.getvalue().count("\n") > 10 and walks == []


def test_mult_walks_each_nontrivial_pair_once(monkeypatch):
    walks = counting_walks(monkeypatch)
    G = PermGroup(6, [Permutation.parse(6, "(1,2,3)"), Permutation.parse(6, "(2,3,4,5,6)")])
    registry = PairClassRegistry()
    mult_table_pairs(G, 2, registry)
    pairs = [m.pair for c in registry.classes for m in c.members]
    trivial = [pair for pair in pairs if pair.subgroup.order == 1]
    assert trivial and all("centralizer_gens" not in vars(pair) for pair in trivial)
    assert len(walks) == len(pairs) - len(trivial)
    assert {id(s) for _, s in walks} == {id(p.element) for p in pairs if p.subgroup.order > 1}


def test_verify_psi_walks_no_member(monkeypatch):
    walks = counting_walks(monkeypatch)
    G = g72()
    fusion = build_fusion(G, 3)
    registry = PairClassRegistry()
    registry.classify_group(G, 3)
    checked = 0
    for cls in registry.classes:
        if cls.subgroup_order > 1 and registry.members_for(G, cls):
            checked += verify_class(fusion, cls, registry).triple_orbits
    # one walk per psi pair, and none for the pair orbits it is matched with
    assert len(walks) == checked > 0
    assert all("centralizer_gens" not in vars(m.pair) for c in registry.classes for m in c.members)


def test_a_walk_that_misses_the_class_of_s_is_refused_by_name(monkeypatch):
    G = PermGroup(3, [Permutation.parse(3, "(1,2,3)"), Permutation.parse(3, "(1,2)")])
    pair = pair_orbit_reps(G, 3)[-1]  # (C3, (2,3)), whose class in S3 has 3 elements
    assert pair.element == Permutation.parse(3, "(2,3)")
    walk = ddelta.class_and_centralizer
    monkeypatch.setattr(
        ddelta, "class_and_centralizer", lambda N, s: (set(list(walk(N, s)[0])[1:]), ())
    )
    with pytest.raises(InternalCheckError, match=re.escape(
        "normalizer pair, p=3, |P|=3, s=(2,3): the walk over the N_G(P)-class "
        "of s found 2 conjugates, not its class of 3"
    )):
        pair.centralizer_gens
