"""Byte-exact CLI reports on every fixture, pinned by committed files.

Each case runs one command in-process and records its exit code, stdout
and stderr.  The desk-scale fixtures are pinned in reports.golden, the
F75 stretch fixture in stretch.golden, and F80, F240 and F351 under a
raised order bound in raised.golden; the last route builds centralizers
in Aut(C2^4) = GL(4,2) and Aut(C3^3) = GL(3,3).  When a report is meant
to change, regenerate the files with

    PYTHONPATH=src python tests/test_reports_golden.py

and review the diff.
"""

import contextlib
import io
import os
import re
import sys

import pytest

from conftest import DATA_DIR
from blockfunctor import ddelta
from blockfunctor.cli import main

GOLDEN = DATA_DIR / "reports.golden"
STRETCH_GOLDEN = DATA_DIR / "stretch.golden"
# the stretch fixtures (f75, f80, f240, f351, f2r11) are left out here
FIXTURES = [
    "a4.grp", "c3.grp", "f20.grp", "f20b.grp", "f21.grp",
    "g56.grp", "g72.grp", "s3.grp", "s4.grp",
]
COMMANDS = (
    ("invariants",),
    ("pairs",),
    ("chartab",),
    ("mult", "--formula", "both"),
    ("verify-psi",),
)
CASES = [
    (command[0], name, *command[1:]) for name in FIXTURES for command in COMMANDS
] + [
    ("compare", "f20.grp", "f20b.grp"),
    ("compare", "s3.grp", "c3.grp"),
]
STRETCH_CASES = [
    ("verify-psi", "f75.grp"),
    ("mult", "f75.grp", "--formula", "both"),
]
RAISED_GOLDEN = DATA_DIR / "raised.golden"
RAISED_BOUND = "25000"  # over |GL(4,2)| = 20160 and |GL(3,3)| = 11232
RAISED_CASES = [
    ("mult", f"{name}.grp", "--formula", "both") for name in ("f80", "f240", "f351")
] + [("verify-psi", f"{name}.grp") for name in ("f80", "f240", "f351")]


def _argv(case):
    return [str(DATA_DIR / arg) if arg.endswith(".grp") else arg for arg in case]


def render(case) -> str:
    """The golden block of one case: header, exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_argv(case))
    return (
        f"=== {' '.join(case)}\nexit {code}\n--- stdout\n{out.getvalue()}"
        f"--- stderr\n{err.getvalue()}"
    )


def _golden_blocks(path=GOLDEN) -> dict:
    with open(path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    blocks = ["=== " + b for b in re.split(r"(?m)^=== ", text) if b]
    return {block.split("\n", 1)[0]: block for block in blocks}


def test_golden_file_covers_exactly_the_cases():
    assert list(_golden_blocks()) == [f"=== {' '.join(case)}" for case in CASES]


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(case))
def test_report_matches_golden(case, monkeypatch):
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    assert render(case) == _golden_blocks()[f"=== {' '.join(case)}"]


def test_stretch_golden_file_covers_exactly_the_cases():
    assert list(_golden_blocks(STRETCH_GOLDEN)) == [
        f"=== {' '.join(case)}" for case in STRETCH_CASES
    ]


@pytest.mark.parametrize("case", STRETCH_CASES, ids=lambda case: "-".join(case))
def test_stretch_report_matches_golden(case, monkeypatch):
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    assert render(case) == _golden_blocks(STRETCH_GOLDEN)[f"=== {' '.join(case)}"]


def test_raised_golden_file_covers_exactly_the_cases():
    assert list(_golden_blocks(RAISED_GOLDEN)) == [
        f"=== {' '.join(case)}" for case in RAISED_CASES
    ]


@pytest.mark.parametrize("case", RAISED_CASES, ids=lambda case: "-".join(case))
def test_raised_bound_report_matches_golden(case, monkeypatch):
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", RAISED_BOUND)
    assert render(case) == _golden_blocks(RAISED_GOLDEN)[f"=== {' '.join(case)}"]


def refuse_tables(monkeypatch):
    def refuse(group):
        raise AssertionError(f"a character table of a group of order {group.order}")

    monkeypatch.setattr(ddelta, "character_table", refuse)


@pytest.mark.parametrize("name", FIXTURES)
def test_verify_psi_builds_no_character_table(name, monkeypatch):
    # verify-psi reports stabilizer orders only, so no table of C is read
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    refuse_tables(monkeypatch)
    case = ("verify-psi", name)
    assert render(case) == _golden_blocks()[f"=== {' '.join(case)}"]


def test_verify_psi_on_f75_builds_no_character_table(monkeypatch):
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    case = ("verify-psi", "f75.grp")
    expected = render(case)
    assert expected.startswith(f"=== {' '.join(case)}\nexit 0\n")
    refuse_tables(monkeypatch)
    assert render(case) == expected


if __name__ == "__main__":
    for path, cases, bound in (
        (GOLDEN, CASES, None),
        (STRETCH_GOLDEN, STRETCH_CASES, None),
        (RAISED_GOLDEN, RAISED_CASES, RAISED_BOUND),
    ):
        os.environ.pop("BLOCKFUNCTOR_MAX_ORDER", None)
        if bound is not None:
            os.environ["BLOCKFUNCTOR_MAX_ORDER"] = bound
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("".join(render(case) for case in cases))
        sys.stdout.write(f"wrote {len(cases)} cases to {path}\n")
