"""Workload command lists and the output checks that do not depend on
the presentation.

Each command is a ``(key, argv)`` pair.  The key names the expected
summary in ``expected.json``; the summaries keep only what a relabeling
of the points and a change of generators leave fixed.
"""

from __future__ import annotations

import json
import os

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# groups of shape D : E (normal abelian Sylow p-subgroup, free complement)
AFFINE = (
    ("G56", 2), ("G72", 3), ("F156", 13), ("F110", 11), ("C3^2:C4", 3),
    ("C11:C5", 11), ("C7:C6", 7), ("F20", 5), ("F21", 7), ("A4", 2), ("S3", 3),
)
# groups with no normal Sylow p-subgroup
NONNORMAL = (
    ("S4", 2), ("S5", 2), ("S5", 3), ("S5", 5), ("A5", 2), ("A5", 5),
    ("PSL27", 2), ("PSL27", 3), ("PSL27", 7), ("A6", 2), ("A6", 5), ("S3xS3", 2),
)
# (left, right, p); a group against itself means two seeded presentations
COMPARE = (
    ("G56", "G56", 2), ("G72", "G72", 3), ("F110", "F110", 11), ("A6", "A6", 3),
    ("F20", "F20b", 5), ("S3", "C3", 3), ("G72", "S3xS3", 3),
)

WORKLOADS = ("affine", "nonnormal", "compare")


def commands(workload, root, out_dir, seed, variant=0):
    """The workload's command list over freshly written input files.

    Each (seed, variant) gives its own presentations; with seed None the
    canonical presentations are used.
    """
    def case(name, p, role):
        label = f"{workload}-{name}-p{p}-{role}-v{variant}"
        return inputs.write_case(root, out_dir, name, p, seed, label)

    out = []
    if workload == "affine":
        for name, p in AFFINE:
            path = case(name, p, "in")
            out.append((f"mult {name} p{p}", ["mult", path, "--formula", "both", "--json"]))
            out.append((f"verify-psi {name} p{p}", ["verify-psi", path, "--json"]))
    elif workload == "nonnormal":
        for name, p in NONNORMAL:
            path = case(name, p, "in")
            for command in ("invariants", "pairs", "chartab", "mult"):
                out.append((f"{command} {name} p{p}", [command, path, "--json"]))
    elif workload == "compare":
        for left, right, p in COMPARE:
            argv = ["compare", case(left, p, "left"), case(right, p, "right"), "--json"]
            out.append((f"compare {left} {right} p{p}", argv))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def summarize(argv, doc):
    """What a command's JSON report must show on every presentation."""
    command = argv[0]
    if command == "mult":
        inv = doc["invariants"]
        classes = sorted(
            [c["L_order"], c["u_order"], c["out_order"],
             sorted([r["irr_degree"], r["multiplicity"]] for r in c["rows"])]
            for c in doc["classes"]
        )
        return {
            "k": inv["k"], "l": inv["l"], "defect_order": inv["defect_order"],
            "single_block": doc["single_block_regime"],
            "cross_checked": doc["cross_check"] is not None,
            "classes": classes,
        }
    if command == "verify-psi":
        rows = doc["classes"]
        if not rows or any(
            r["status"] != "PASS" or r["triple_orbits"] != r["pair_orbits"] for r in rows
        ):
            return {"failed_rows": rows}
        return sorted(
            [r["L_order"], r["u_order"], r["pair_orbits"],
             sorted(int(v) for v in r["stabilizer_orders"].split(","))]
            for r in rows
        )
    if command == "invariants":
        return doc["invariants"]
    if command == "pairs":
        return sorted(
            [r["P_order"], r["s_order"], r["L_order"], r["u_order"]] for r in doc["orbits"]
        )
    if command == "chartab":
        table = doc["character_table"]
        return {
            "modulus": table["modulus"],
            "degrees": sorted(table["degrees"]),
            "class_sizes": sorted(table["class_sizes"]),
        }
    if command == "compare":
        verdict = doc["verdict"]
        return {
            "verdict": [verdict["stable"], verdict["functorial"], verdict["defect_isomorphic"]],
            "k_minus_l": [doc["k_minus_l_left"], doc["k_minus_l_right"]],
        }
    raise ValueError(f"no summary for command {command!r}")


def _golden_rows(golden):
    """{(|L|, ord u): sorted multiplicities} of a battery golden table."""
    out = {}
    for (key, _irr), value in golden.items():
        out.setdefault(key, []).append(value)
    return {key: sorted(values) for key, values in out.items()}


def _summary_rows(summary):
    return {
        (L, u): sorted(m for _deg, m in rows)
        for L, u, _out, rows in summary["classes"]
    }


def golden_mismatches(expected):
    """Keys whose frozen summary disagrees with the package's golden tables."""
    from blockfunctor import battery

    bad = []
    for key, golden in (("mult S3 p3", battery.GOLDEN_S3), ("mult A4 p2", battery.GOLDEN_A4)):
        if key not in expected or _summary_rows(expected[key]) != _golden_rows(golden):
            bad.append(key)
    return bad


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check(key, argv, output, expected, bad_keys):
    """Whether a command's stdout matches its frozen summary."""
    if key in bad_keys or key not in expected:
        return False
    try:
        return summarize(argv, json.loads(output)) == expected[key]
    except (KeyError, TypeError, ValueError):
        return False
