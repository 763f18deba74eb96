"""Deterministic TSV and JSON report emitters.

Every emitter consumes a plain document dict with a fixed key order and
produces byte-identical output for identical inputs: no set iteration,
no floats, no locale-dependent formatting.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = "1"

SINGLE_BLOCK_NOTE = (
    "single-block regime: normal abelian Sylow p-subgroup with "
    "fixed-point-free complement action; rows are block multiplicities"
)

# the columns of each table, in order: the header line and the keys each
# row is read by
PAIRS_COLUMNS = (
    "orbit_index", "class_id", "P_order", "s_order", "s_rep", "L_order", "u_order",
)
MULT_COLUMNS = (
    "class_id", "L_order", "u_order", "out_order", "irr_index", "irr_degree",
    "multiplicity",
)
DIFF_COLUMNS = ("class_id", "L_order", "u_order", "irr_index", "left", "right")
VERIFY_COLUMNS = (
    "class_id", "L_order", "u_order", "triple_orbits", "pair_orbits",
    "stabilizer_orders", "status", "detail",
)


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _bool(value) -> str:
    return "true" if value else "false"


def _table(columns, rows, prefix=""):
    """The header line and one line per row, each starting with prefix."""
    return [prefix + "\t".join(columns)] + [
        prefix + "\t".join(str(row[key]) for key in columns) for row in rows
    ]


def _header_lines(doc):
    lines = [f"# schema_version\t{doc['schema_version']}",
             f"# command\t{doc['command']}"]
    return lines


def render_invariants_tsv(doc: dict) -> str:
    lines = _header_lines(doc)
    group = doc["group"]
    inv = doc["invariants"]
    lines.append(f"group\t{group['name']}")
    lines.append(f"degree\t{group['degree']}")
    lines.append(f"order\t{group['order']}")
    lines.append(f"p\t{group['p']}")
    for key in ("k", "l", "k_minus_l", "defect_order"):
        lines.append(f"{key}\t{inv[key]}")
    return "\n".join(lines) + "\n"


def render_pairs_tsv(doc: dict) -> str:
    lines = _header_lines(doc)
    group = doc["group"]
    lines.append(f"# group\t{group['name']}")
    lines.append(f"# p\t{group['p']}")
    lines += _table(PAIRS_COLUMNS, doc["orbits"])
    return "\n".join(lines) + "\n"


def render_chartab_tsv(doc: dict) -> str:
    lines = _header_lines(doc)
    group = doc["group"]
    table = doc["character_table"]
    lines.append(f"# group\t{group['name']}")
    lines.append(f"modulus\t{table['modulus']}")
    lines.append("classes\t" + "\t".join(table["class_reps"]))
    lines.append("sizes\t" + "\t".join(str(s) for s in table["class_sizes"]))
    lines.append("degrees\t" + "\t".join(str(d) for d in table["degrees"]))
    for row in table["values"]:
        lines.append("row\t" + "\t".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def render_mult_tsv(doc: dict) -> str:
    lines = _header_lines(doc)
    group = doc["group"]
    inv = doc["invariants"]
    lines.append(f"# group\t{group['name']}")
    lines.append(f"# order\t{group['order']}")
    lines.append(f"# p\t{group['p']}")
    lines.append(f"# formula\t{doc['formula']}")
    for key in ("k", "l", "k_minus_l", "defect_order"):
        lines.append(f"# {key}\t{inv[key]}")
    if doc["single_block_regime"]:
        lines.append(f"# {SINGLE_BLOCK_NOTE}")
    if doc.get("cross_check") is not None:
        lines.append(f"# cross-check\t{doc['cross_check']}")
    lines += _table(
        MULT_COLUMNS, ({**cls, **row} for cls in doc["classes"] for row in cls["rows"])
    )
    return "\n".join(lines) + "\n"


def render_compare_tsv(doc: dict) -> str:
    lines = _header_lines(doc)
    left, right = doc["groups"]
    lines.append(f"group_left\t{left['name']}")
    lines.append(f"group_right\t{right['name']}")
    lines.append(f"p\t{left['p']}")
    verdict = doc["verdict"]
    lines.append(f"stable\t{_bool(verdict['stable'])}")
    lines.append(f"functorial\t{_bool(verdict['functorial'])}")
    lines.append(f"defect_isomorphic\t{_bool(verdict['defect_isomorphic'])}")
    lines.append(f"k_minus_l_left\t{doc['k_minus_l_left']}")
    lines.append(f"k_minus_l_right\t{doc['k_minus_l_right']}")
    lines += _table(DIFF_COLUMNS, doc["diff"], prefix="diff\t")
    return "\n".join(lines) + "\n"


def render_verify_tsv(doc: dict) -> str:
    lines = _header_lines(doc)
    group = doc["group"]
    lines.append(f"# group\t{group['name']}")
    lines.append(f"# p\t{group['p']}")
    lines += _table(VERIFY_COLUMNS, doc["classes"])
    return "\n".join(lines) + "\n"


def render_selftest_tsv(doc: dict) -> str:
    lines = []
    for row in doc["checks"]:
        status = "PASS" if row["ok"] else "FAIL"
        detail = f": {row['detail']}" if row["detail"] else ""
        lines.append(f"{status} {row['name']}{detail}")
    lines.append(f"{doc['passed']}/{doc['total']} checks passed")
    return "\n".join(lines) + "\n"
