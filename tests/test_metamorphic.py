"""Relabeling the points of a group must not change what the CLI reports.

A random permutation of the points gives a new presentation of the same
group.  Class ids and the order of irreducibles may follow the
presentation, so each report is reduced to a summary that does not:

- ``verify-psi``: the multiset of (|L|, ord u, orbits, sorted stabilizer
  orders) over the checked classes, every row passing;
- ``mult --formula both``: k, l, the defect order, the cross-check line
  and the multiset of (|L|, ord u, |Out|, sorted (degree, multiplicity));
- ``compare``: the verdict and both values of k - l.

The draws are derandomized, with a fixed number of examples.
"""

import io
import json
import random
from contextlib import redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR
from blockfunctor.cli import main
from blockfunctor.ddelta import PairClass
from blockfunctor.grpfile import load_group, parse_group_file
from blockfunctor.permutation import Permutation, conjugate

# the D : E fixtures that are not refused: the nine but S4, whose Sylow
# 2-subgroup is not normal, and F75 under a raised bound
DE_FIXTURES = ("s3", "c3", "a4", "f20", "f20b", "f21", "g72", "g56", "f75")
COMPARE_PAIRS = (("f20", "f20b"), ("s3", "c3"), ("g72", "s3"), ("a4", "g56"))


def load(name):
    return load_group(parse_group_file((DATA_DIR / f"{name}.grp").read_text()))


def write_relabeled(tmp_path, name, seed):
    """The fixture with its points permuted at random (seed None keeps
    them), written as a generator file in tmp_path."""
    loaded = load(name)
    G = loaded.group
    points = list(range(G.degree))
    if seed is not None:
        random.Random(seed).shuffle(points)
    rename = Permutation(points)
    gens = [conjugate(rename.inverse(), g) for g in G.generators]
    path = tmp_path / f"{name}-{seed}.grp"
    path.write_text(
        f"name {loaded.name}\ndegree {G.degree}\nprime {loaded.p}\n"
        + "".join(f"gen {g.cycle_string()}\n" for g in gens)
    )
    return str(path)


def report(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv + ["--json"]) == 0
    return json.loads(out.getvalue())


def verify_summary(doc):
    rows = doc["classes"]
    assert rows and all(r["status"] == "PASS" for r in rows)
    return sorted(
        (r["L_order"], r["u_order"], r["triple_orbits"],
         sorted(int(v) for v in r["stabilizer_orders"].split(",")))
        for r in rows
    )


def mult_summary(doc):
    return (
        doc["invariants"],
        doc["cross_check"],
        sorted(
            (c["L_order"], c["u_order"], c["out_order"],
             sorted((r["irr_degree"], r["multiplicity"]) for r in c["rows"]))
            for c in doc["classes"]
        ),
    )


def compare_summary(doc):
    verdict = doc["verdict"]
    return (
        verdict["stable"], verdict["functorial"], verdict["defect_isomorphic"],
        doc["k_minus_l_left"], doc["k_minus_l_right"],
    )


def summaries(path):
    return (
        verify_summary(report(["verify-psi", path])),
        mult_summary(report(["mult", path, "--formula", "both"])),
    )


@lru_cache(maxsize=None)
def fixture_summaries(name):
    return summaries(str(DATA_DIR / f"{name}.grp"))


@pytest.mark.parametrize("name", DE_FIXTURES)
@settings(max_examples=2, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_relabeling_keeps_verify_psi_and_mult(name, seed, tmp_path_factory):
    moved = write_relabeled(tmp_path_factory.mktemp("relabeled"), name, seed)
    assert summaries(moved) == fixture_summaries(name)


@pytest.mark.parametrize("left,right", COMPARE_PAIRS)
@settings(max_examples=3, derandomize=True, deadline=None)
@given(
    left_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    right_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_relabeling_either_side_keeps_the_compare_verdict(
    left, right, left_seed, right_seed, tmp_path_factory
):
    tmp_path = tmp_path_factory.mktemp("relabeled")
    got = compare_summary(report([
        "compare", write_relabeled(tmp_path, left, left_seed),
        write_relabeled(tmp_path, right, right_seed),
    ]))
    assert got == fixture_verdict(left, right)


@pytest.mark.parametrize("name", ("f80", "f240", "f351"))
def test_relabeled_self_compare_is_stable_without_a_table(name, tmp_path, monkeypatch):
    # under a bound over |GL(4,2)| = 20160, a stable verdict reads the
    # permutation characters only and builds no character table of any C
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "25000")

    def refuse(self):
        raise AssertionError(f"{self.name}: character table built")

    monkeypatch.setattr(PairClass, "aut_table", property(refuse))
    doc = report(["compare", str(DATA_DIR / f"{name}.grp"), write_relabeled(tmp_path, name, 5)])
    assert doc["verdict"] == {"stable": True, "functorial": True, "defect_isomorphic": True}
    assert doc["diff"] == []


@lru_cache(maxsize=None)
def fixture_verdict(left, right):
    return compare_summary(report(
        ["compare", str(DATA_DIR / f"{left}.grp"), str(DATA_DIR / f"{right}.grp")]
    ))
