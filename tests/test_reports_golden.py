"""Byte-exact CLI reports on every fixture, pinned by committed files.

Each case runs one command in-process and records its exit code, stdout
and stderr.  The desk-scale fixtures are pinned in reports.golden, the
F75 and C2^6:C7 stretch fixtures in stretch.golden, and F80, F240 and F351 under a
raised order bound in raised.golden; the last route builds centralizers
in Aut(C2^4) = GL(4,2) and Aut(C3^3) = GL(3,3).  The groups with no
normal Sylow subgroup (S5, A5, PSL(2,7), A6, S3xS3) are pinned in
nonnormal.golden.  When a report is meant to change, regenerate the files
with

    PYTHONPATH=src python tests/test_reports_golden.py

and review the diff.  With ``--check`` the script writes nothing: it
renders every case, exits 1 naming the first one that differs from its
file, and needs no pytest, so it runs on an interpreter with nothing
installed.
"""

import contextlib
import io
import os
import re
import sys

from conftest import DATA_DIR
from blockfunctor import ddelta
from blockfunctor.cli import main

GOLDEN = DATA_DIR / "reports.golden"
STRETCH_GOLDEN = DATA_DIR / "stretch.golden"
# the stretch fixtures (f75, c2e6_c7, f80, f240, f351, f2r11) are left out here
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
    ("pairs", "c2e6_c7.grp"),
]
RAISED_GOLDEN = DATA_DIR / "raised.golden"
RAISED_BOUND = "25000"  # over |GL(4,2)| = 20160 and |GL(3,3)| = 11232
RAISED_CASES = [
    ("mult", f"{name}.grp", "--formula", "both") for name in ("f80", "f240", "f351")
] + [("verify-psi", f"{name}.grp") for name in ("f80", "f240", "f351")]
NONNORMAL_GOLDEN = DATA_DIR / "nonnormal.golden"
NONNORMAL_CASES = [
    (command, f"{name}.grp")
    for name in ("s5", "a5", "psl27", "a6", "s3xs3")
    for command in ("invariants", "pairs", "chartab", "mult")
]
# golden file -> its cases and the order bound they run under
GOLDEN_FILES = {
    GOLDEN: (CASES, None),
    STRETCH_GOLDEN: (STRETCH_CASES, None),
    RAISED_GOLDEN: (RAISED_CASES, RAISED_BOUND),
    NONNORMAL_GOLDEN: (NONNORMAL_CASES, None),
}


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


# test -> the cases it runs on, bound in pytest_generate_tests rather than
# by decorators, so that the module imports without pytest
CASES_OF = {
    "test_report_matches_golden": CASES,
    "test_stretch_report_matches_golden": STRETCH_CASES,
    "test_raised_bound_report_matches_golden": RAISED_CASES,
    "test_nonnormal_report_matches_golden": NONNORMAL_CASES,
}


def pytest_generate_tests(metafunc):
    test = metafunc.function.__name__
    if test == "test_verify_psi_builds_no_character_table":
        metafunc.parametrize("name", FIXTURES)
    elif test in CASES_OF:
        cases = CASES_OF[test]
        metafunc.parametrize("case", cases, ids=["-".join(case) for case in cases])


def _headers(cases) -> list:
    return [f"=== {' '.join(case)}" for case in cases]


def test_golden_file_covers_exactly_the_cases():
    assert list(_golden_blocks()) == [f"=== {' '.join(case)}" for case in CASES]


def test_report_matches_golden(case, monkeypatch):
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    assert render(case) == _golden_blocks()[f"=== {' '.join(case)}"]


def test_stretch_golden_file_covers_exactly_the_cases():
    assert list(_golden_blocks(STRETCH_GOLDEN)) == [
        f"=== {' '.join(case)}" for case in STRETCH_CASES
    ]


def test_stretch_report_matches_golden(case, monkeypatch):
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    assert render(case) == _golden_blocks(STRETCH_GOLDEN)[f"=== {' '.join(case)}"]


def test_raised_golden_file_covers_exactly_the_cases():
    assert list(_golden_blocks(RAISED_GOLDEN)) == [
        f"=== {' '.join(case)}" for case in RAISED_CASES
    ]


def test_raised_bound_report_matches_golden(case, monkeypatch):
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", RAISED_BOUND)
    assert render(case) == _golden_blocks(RAISED_GOLDEN)[f"=== {' '.join(case)}"]


def refuse_tables(monkeypatch):
    def refuse(group):
        raise AssertionError(f"a character table of a group of order {group.order}")

    monkeypatch.setattr(ddelta, "character_table", refuse)


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


def test_nonnormal_golden_file_covers_exactly_the_cases():
    assert list(_golden_blocks(NONNORMAL_GOLDEN)) == _headers(NONNORMAL_CASES)


def test_nonnormal_report_matches_golden(case, monkeypatch):
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    assert render(case) == _golden_blocks(NONNORMAL_GOLDEN)[f"=== {' '.join(case)}"]


def _set_bound(bound):
    os.environ.pop("BLOCKFUNCTOR_MAX_ORDER", None)
    if bound is not None:
        os.environ["BLOCKFUNCTOR_MAX_ORDER"] = bound


def check() -> int:
    """0 if every golden file matches its rendered cases; else 1, naming
    the first case that differs."""
    for path, (cases, bound) in GOLDEN_FILES.items():
        _set_bound(bound)
        blocks = _golden_blocks(path)
        for header, case in zip(_headers(cases), cases):
            if render(case) != blocks.get(header):
                sys.stdout.write(f"{path.name}: {header[4:]} differs\n")
                return 1
        if list(blocks) != _headers(cases):
            sys.stdout.write(f"{path.name}: the file holds other cases than the list\n")
            return 1
        sys.stdout.write(f"{path.name}: {len(cases)} cases match\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    for path, (cases, bound) in GOLDEN_FILES.items():
        _set_bound(bound)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("".join(render(case) for case in cases))
        sys.stdout.write(f"wrote {len(cases)} cases to {path}\n")
