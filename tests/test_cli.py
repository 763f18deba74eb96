import json
import os
import subprocess
import sys

import pytest

import blockfunctor
from conftest import DATA_DIR
from blockfunctor import cli
from blockfunctor.cli import main

# the directory this process imported the package from, so that the CLI
# subprocesses run the same code with or without an installed package
PACKAGE_ROOT = os.path.dirname(os.path.dirname(blockfunctor.__file__))


def data(name):
    return str(DATA_DIR / name)


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("BLOCKFUNCTOR_MAX_ORDER", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [PACKAGE_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "blockfunctor.cli", *args],
        capture_output=True,
        env=env,
    )


def test_invariants(capsys):
    assert main(["invariants", data("s3.grp")]) == 0
    out = capsys.readouterr().out
    assert "k\t3" in out
    assert "l\t2" in out
    assert "k_minus_l\t1" in out
    assert "defect_order\t3" in out


def test_pairs_listing(capsys):
    assert main(["pairs", data("a4.grp")]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line and line[0].isdigit()]
    assert len(rows) == 7


def test_chartab(capsys):
    assert main(["chartab", data("s3.grp")]) == 0
    out = capsys.readouterr().out
    assert "modulus\t13" in out
    assert "degrees\t1\t1\t2" in out


def test_mult_both_exits_zero_and_cross_checks(capsys):
    assert main(["mult", data("s3.grp"), "--formula", "both"]) == 0
    out = capsys.readouterr().out
    assert "# cross-check" in out
    assert "single-block regime" in out


def test_mult_fusion_formula(capsys):
    assert main(["mult", data("a4.grp"), "--formula", "fusion"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line and line[0].isdigit()]
    # only classes with nontrivial subgroup appear
    assert all(int(line.split("\t")[1]) > 1 for line in rows)


def test_mult_s4_has_no_single_block_note(capsys):
    assert main(["mult", data("s4.grp")]) == 0
    out = capsys.readouterr().out
    assert "single-block regime" not in out
    assert main(["mult", data("s4.grp"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["single_block_regime"] is False


def test_non_free_action_is_refused_by_the_fusion_route_only(capsys):
    # C3 x C2 at 3: the pair route runs and prints no single-block note,
    # and the fusion route names the complement element and what it fixes
    assert main(["mult", data("c6.grp")]) == 0
    captured = capsys.readouterr()
    assert "single-block regime" not in captured.out
    assert captured.err == ""
    for command in (["mult", "--formula", "both"], ["verify-psi"]):
        assert main([command[0], data("c6.grp"), *command[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "domain error: complement action is not free: (4,5) fixes (1,2,3)\n"
        )


def test_selftest_passes_every_check():
    result = run_cli(["selftest"])
    assert result.returncode == 0
    assert result.stderr == b""
    assert result.stdout.decode().splitlines()[-1] == "27/27 checks passed"


def test_compare_verdict(capsys):
    assert main(["compare", data("s3.grp"), data("c3.grp")]) == 0
    out = capsys.readouterr().out
    assert "stable\tfalse" in out
    assert out.count("\ndiff\t") >= 2

    assert main(["compare", data("f20.grp"), data("f20b.grp")]) == 0
    out = capsys.readouterr().out
    assert "stable\ttrue" in out
    assert "functorial\ttrue" in out
    assert "defect_isomorphic\ttrue" in out


def test_verify_psi_pass(capsys):
    assert main(["verify-psi", data("a4.grp")]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_one_parser_serves_every_call_in_a_process(capsys):
    # a usage error, then one command with and without --json: each
    # output is the one a fresh process prints
    assert cli._build_parser() is cli._build_parser()
    assert main(["invariants"]) == 1
    capsys.readouterr()
    assert main(["invariants", data("s3.grp"), "--json"]) == 0
    as_json = capsys.readouterr().out
    assert main(["invariants", data("s3.grp")]) == 0
    as_tsv = capsys.readouterr().out
    assert as_json.encode() == run_cli(["invariants", data("s3.grp"), "--json"]).stdout
    assert as_tsv.encode() == run_cli(["invariants", data("s3.grp")]).stdout


def test_a_group_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_bytes(b"degree 3\nprime 3\nname S\xff3\ngen (1,2,3)\n")
    assert main(["invariants", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "parse error: line 3: not UTF-8 text (byte 0xff)\n"
    assert captured.out == ""


def test_exit_codes(tmp_path):
    # usage errors
    assert run_cli([]).returncode == 1
    assert run_cli(["unknown-command"]).returncode == 1
    assert run_cli(["invariants", "no-such-file.grp"]).returncode == 1
    # parse error
    bad = tmp_path / "bad.grp"
    bad.write_text("degree 3\nprime 3\ngen (1,9)\n")
    result = run_cli(["invariants", str(bad)])
    assert result.returncode == 2
    assert b"line 3" in result.stderr
    # domain error: the fusion hypotheses fail for S4 at p = 2
    result = run_cli(["verify-psi", data("s4.grp")])
    assert result.returncode == 3
    assert b"not normal" in result.stderr
    result = run_cli(["mult", data("s4.grp"), "--formula", "both"])
    assert result.returncode == 3


def test_env_var_bounds_group_order():
    result = run_cli(
        ["invariants", data("s3.grp")], env_extra={"BLOCKFUNCTOR_MAX_ORDER": "5"}
    )
    assert result.returncode == 3
    assert b"bound" in result.stderr


@pytest.mark.parametrize("value", ["abc", "0"])
def test_env_var_rejects_a_bad_bound(value):
    result = run_cli(
        ["invariants", data("s3.grp")], env_extra={"BLOCKFUNCTOR_MAX_ORDER": value}
    )
    assert result.returncode == 1
    assert result.stderr.startswith(b"usage error: BLOCKFUNCTOR_MAX_ORDER must be ")
    assert b"Traceback" not in result.stderr


def test_c5_squared_by_c3_cross_checks_under_a_raised_bound(capsys, monkeypatch):
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "2000")
    assert main(["mult", data("f75.grp"), "--formula", "both"]) == 0
    out = capsys.readouterr().out
    assert "# cross-check\tfusion route matches on all rows with |L| > 1" in out


@pytest.mark.parametrize("command", [["mult", "--formula", "both"], ["verify-psi"]])
def test_c5_squared_by_c3_needs_no_raised_bound(command, capsys, monkeypatch):
    # Aut(L, u) of the class (25, 3) has order 600, but C = C_Aut(L)(c_u)
    # has order 24, so the default bound is enough
    args = [command[0], data("f75.grp"), *command[1:]]
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    assert main(args) == 0
    default = capsys.readouterr()
    monkeypatch.setenv("BLOCKFUNCTOR_MAX_ORDER", "2000")
    assert main(args) == 0
    raised = capsys.readouterr()
    assert default.err == raised.err == ""
    assert default.out == raised.out


@pytest.mark.parametrize("name", ["f80.grp", "f240.grp"])
def test_aut_over_the_bound_is_refused_by_name(name, capsys, monkeypatch):
    # C = Aut(C2^4) = GL(4, 2) has order 20160
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    assert main(["mult", data(name), "--formula", "both"]) == 3
    assert capsys.readouterr().err == (
        "domain error: automorphism search, pair class (|L|=16, ord u=1): "
        "C_Aut(L)(c_u) has more than 512 elements, over the configured bound 512\n"
    )


def test_c3_cubed_by_c13_classifies_and_refuses_c_by_name(capsys, monkeypatch):
    # C3^3:C13, order 351: its 28 pair orbits classify, but C = Aut(C3^3)
    # = GL(3, 3) of the class (27, 1) has order 11232
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    assert main(["pairs", data("f351.grp")]) == 0
    assert capsys.readouterr().err == ""
    for command in (["verify-psi"], ["mult", "--formula", "both"]):
        assert main([command[0], data("f351.grp"), *command[1:]]) == 3
        assert capsys.readouterr().err == (
            "domain error: automorphism search, pair class (|L|=27, ord u=1): "
            "C_Aut(L)(c_u) has more than 512 elements, over the configured bound 512\n"
        )


def test_oversize_frobenius_form_is_refused_before_it_is_built(capsys, monkeypatch):
    # companion matrix of x^11 + x^2 + 1 over F_2: 2^11 translations
    monkeypatch.delenv("BLOCKFUNCTOR_MAX_ORDER", raising=False)
    assert main(["invariants", data("f2r11.grp")]) == 3
    assert capsys.readouterr().err == (
        "domain error: frobenius form, p=2, rank 11: the translations alone "
        "have order 2^11 = 2048, over the configured bound 512\n"
    )


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_reports_are_byte_deterministic(extra):
    args = ["mult", data("g72.grp"), "--formula", "both", *extra]
    first = run_cli(args, env_extra={"PYTHONHASHSEED": "1"})
    second = run_cli(args, env_extra={"PYTHONHASHSEED": "2"})
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_json_outputs_parse():
    for args in (
        ["invariants", data("s3.grp"), "--json"],
        ["pairs", data("s3.grp"), "--json"],
        ["chartab", data("s3.grp"), "--json"],
        ["mult", data("s3.grp"), "--json"],
        ["compare", data("s3.grp"), data("c3.grp"), "--json"],
        ["verify-psi", data("s3.grp"), "--json"],
    ):
        result = run_cli(args)
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["schema_version"] == "1"
