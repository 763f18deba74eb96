"""Byte-exact CLI reports on every fixture, pinned by a committed file.

Each case runs one command in-process and records its exit code, stdout
and stderr.  When a report is meant to change, regenerate the file with

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
from blockfunctor.cli import main

GOLDEN = DATA_DIR / "reports.golden"
# listed, not globbed: test_cli writes a scratch .grp file into DATA_DIR
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


def _golden_blocks() -> dict:
    with open(GOLDEN, encoding="utf-8", newline="") as handle:
        text = handle.read()
    blocks = ["=== " + b for b in re.split(r"(?m)^=== ", text) if b]
    return {block.split("\n", 1)[0]: block for block in blocks}


def test_golden_file_covers_exactly_the_cases():
    assert list(_golden_blocks()) == [f"=== {' '.join(case)}" for case in CASES]


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(case))
def test_report_matches_golden(case, monkeypatch):
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    assert render(case) == _golden_blocks()[f"=== {' '.join(case)}"]


if __name__ == "__main__":
    os.environ.pop("BLOCKFUNCTOR_MAX_ORDER", None)
    with open(GOLDEN, "w", encoding="utf-8", newline="") as handle:
        handle.write("".join(render(case) for case in CASES))
    sys.stdout.write(f"wrote {len(CASES)} cases to {GOLDEN}\n")
