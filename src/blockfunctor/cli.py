"""Command line interface.

Exit codes: 0 success, 1 usage, 2 group file parse error, 3 domain error
(violated hypotheses or size bound), 4 internal or theorem-violation
check failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import battery, reports
from .chartab import character_table
from .ddelta import PairClassRegistry
from .errors import (
    DomainError,
    GroupFileError,
    InternalCheckError,
    UsageError,
)
from .fusion import build_fusion, frobenius_structure, verify_class
from .grpfile import load_group, parse_group_file
from .multiplicity import (
    compare,
    cross_check_formulas,
    invariants_kl,
    mult_table_fusion,
    mult_table_pairs,
)
from .permgroup import p_part


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache  # parse_args keeps no state on the parser
def _build_parser() -> _Parser:
    parser = _Parser(prog="blockfunctor", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text, files=1):
        p = sub.add_parser(name, help=help_text)
        for i in range(files):
            p.add_argument(f"file{i}" if files > 1 else "file",
                           help="group description file")
        p.add_argument("--json", action="store_true", help="emit JSON instead of TSV")
        return p

    add("invariants", "class counts and defect order")
    add("pairs", "pair orbit and class listing")
    add("chartab", "exact character table modulo q")
    mult = add("mult", "multiplicity table")
    mult.add_argument(
        "--formula",
        choices=("pairs", "fusion", "both"),
        default="pairs",
        help="which route computes the table (both cross-checks)",
    )
    add("compare", "equivalence verdict for two groups", files=2)
    add("verify-psi", "per-class orbit bijection and stabilizer checks")
    selftest = sub.add_parser("selftest", help="run the built-in fixture battery")
    selftest.add_argument("--json", action="store_true")
    return parser


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    return load_group(parse_group_file(text))


def _emit(text):
    sys.stdout.write(text)


def _group_doc(loaded):
    return {
        "name": loaded.name,
        "degree": loaded.group.degree,
        "order": loaded.group.order,
        "p": loaded.p,
    }


def _invariants_doc(loaded):
    k, l, diff = invariants_kl(loaded.group, loaded.p)
    return {
        "k": k,
        "l": l,
        "k_minus_l": diff,
        "defect_order": p_part(loaded.group.order, loaded.p),
    }


def cmd_invariants(args) -> int:
    loaded = _load(args.file)
    doc = {
        "schema_version": reports.SCHEMA_VERSION,
        "command": "invariants",
        "group": _group_doc(loaded),
        "invariants": _invariants_doc(loaded),
    }
    _emit(reports.render_json(doc) if args.json else reports.render_invariants_tsv(doc))
    return 0


def cmd_pairs(args) -> int:
    loaded = _load(args.file)
    registry = PairClassRegistry()
    assignments = registry.classify_group(loaded.group, loaded.p)
    rows = []
    for index, (cls, member) in enumerate(assignments):
        rows.append(
            {
                "orbit_index": index,
                "class_id": cls.class_id,
                "P_order": member.pair.subgroup.order,
                "s_order": member.pair.element.order(),
                "s_rep": member.pair.element.cycle_string(),
                "L_order": cls.subgroup_order,
                "u_order": cls.element_order,
            }
        )
    doc = {
        "schema_version": reports.SCHEMA_VERSION,
        "command": "pairs",
        "group": _group_doc(loaded),
        "orbits": rows,
    }
    _emit(reports.render_json(doc) if args.json else reports.render_pairs_tsv(doc))
    return 0


def cmd_chartab(args) -> int:
    loaded = _load(args.file)
    table = character_table(loaded.group)
    doc = {
        "schema_version": reports.SCHEMA_VERSION,
        "command": "chartab",
        "group": _group_doc(loaded),
        "character_table": {
            "modulus": table.modulus,
            "class_reps": [rep.cycle_string() for rep in table.class_reps],
            "class_sizes": list(table.class_sizes),
            "degrees": list(table.degrees),
            "values": [list(row) for row in table.values],
        },
    }
    _emit(reports.render_json(doc) if args.json else reports.render_chartab_tsv(doc))
    return 0


def _table_classes_doc(table):
    registry = table.registry
    classes = []
    for cid in table.class_ids():
        cls = registry.classes[cid]
        rows = [
            {
                "irr_index": irr,
                "irr_degree": cls.aut_table.degrees[row],
                "multiplicity": table.rows[(cid, irr)],
            }
            for irr, row in enumerate(cls.out_rows)
            if (cid, irr) in table.rows
        ]
        classes.append(
            {
                "class_id": cid,
                "L_order": cls.subgroup_order,
                "u_order": cls.element_order,
                "out_order": cls.out_order,
                "rows": rows,
            }
        )
    return classes


def cmd_mult(args) -> int:
    loaded = _load(args.file)
    registry = PairClassRegistry()
    cross_check = None
    # the D : E hypotheses decide the single-block note; the fusion route
    # reports their failure only after the pair route has run
    refusal = None
    try:
        if args.formula == "pairs":
            frobenius_structure(loaded.group, loaded.p)
        else:
            fusion = build_fusion(loaded.group, loaded.p)
    except DomainError as exc:
        refusal = exc
    single_block = refusal is None

    if args.formula in ("pairs", "both"):
        table = mult_table_pairs(loaded.group, loaded.p, registry, loaded.name)
    if args.formula in ("fusion", "both"):
        if refusal is not None:
            raise refusal
        if args.formula == "both":
            fusion_table = mult_table_fusion(fusion, registry, loaded.name)
            cross_check_formulas(table, fusion_table)
            cross_check = "fusion route matches on all rows with |L| > 1"
        else:
            registry.classify_group(loaded.group, loaded.p)
            table = mult_table_fusion(fusion, registry, loaded.name)

    doc = {
        "schema_version": reports.SCHEMA_VERSION,
        "command": "mult",
        "group": _group_doc(loaded),
        "formula": args.formula,
        "invariants": _invariants_doc(loaded),
        "single_block_regime": single_block,
        "cross_check": cross_check,
        "classes": _table_classes_doc(table),
    }
    _emit(reports.render_json(doc) if args.json else reports.render_mult_tsv(doc))
    return 0


def cmd_compare(args) -> int:
    left = _load(args.file0)
    right = _load(args.file1)
    if left.p != right.p:
        raise DomainError(
            f"primes differ: {left.p} vs {right.p}; comparison needs one prime"
        )
    registry = PairClassRegistry()
    left_table = mult_table_pairs(left.group, left.p, registry, left.name)
    right_table = mult_table_pairs(right.group, right.p, registry, right.name)
    verdict = compare(left_table, right_table)
    diff_rows = []
    for cid, irr, a, b in verdict.diff:
        cls = registry.classes[cid]
        diff_rows.append(
            {
                "class_id": cid,
                "L_order": cls.subgroup_order,
                "u_order": cls.element_order,
                "irr_index": irr,
                "left": a,
                "right": b,
            }
        )
    doc = {
        "schema_version": reports.SCHEMA_VERSION,
        "command": "compare",
        "groups": [_group_doc(left), _group_doc(right)],
        "verdict": {
            "stable": verdict.stable,
            "functorial": verdict.functorial,
            "defect_isomorphic": verdict.defect_isomorphic,
        },
        "k_minus_l_left": left_table.k - left_table.l,
        "k_minus_l_right": right_table.k - right_table.l,
        "diff": diff_rows,
    }
    _emit(reports.render_json(doc) if args.json else reports.render_compare_tsv(doc))
    return 0


def cmd_verify_psi(args) -> int:
    loaded = _load(args.file)
    fusion = build_fusion(loaded.group, loaded.p)
    registry = PairClassRegistry()
    registry.classify_group(loaded.group, loaded.p)
    rows = []
    failed = False
    for cls in registry.classes:
        if cls.subgroup_order == 1:
            continue
        if not registry.members_for(loaded.group, cls):
            continue
        try:
            result = verify_class(fusion, cls, registry)
            rows.append(
                {
                    "class_id": cls.class_id,
                    "L_order": cls.subgroup_order,
                    "u_order": cls.element_order,
                    "triple_orbits": result.triple_orbits,
                    "pair_orbits": result.pair_orbits,
                    "stabilizer_orders": ",".join(
                        str(v) for v in result.stabilizer_orders
                    ),
                    "status": "PASS",
                    "detail": "-",
                }
            )
        except InternalCheckError as exc:
            failed = True
            rows.append(
                {
                    "class_id": cls.class_id,
                    "L_order": cls.subgroup_order,
                    "u_order": cls.element_order,
                    "triple_orbits": "-",
                    "pair_orbits": "-",
                    "stabilizer_orders": "-",
                    "status": "FAIL",
                    "detail": str(exc).replace("\t", " "),
                }
            )
    doc = {
        "schema_version": reports.SCHEMA_VERSION,
        "command": "verify-psi",
        "group": _group_doc(loaded),
        "classes": rows,
    }
    _emit(reports.render_json(doc) if args.json else reports.render_verify_tsv(doc))
    return 4 if failed else 0


def cmd_selftest(args) -> int:
    results = battery.run_selftest()
    checks = [
        {"name": name, "ok": ok, "detail": detail} for name, ok, detail in results
    ]
    doc = {
        "schema_version": reports.SCHEMA_VERSION,
        "command": "selftest",
        "checks": checks,
        "passed": sum(1 for c in checks if c["ok"]),
        "total": len(checks),
    }
    _emit(reports.render_json(doc) if args.json else reports.render_selftest_tsv(doc))
    return 0 if doc["passed"] == doc["total"] else 4


_HANDLERS = {
    "invariants": cmd_invariants,
    "pairs": cmd_pairs,
    "chartab": cmd_chartab,
    "mult": cmd_mult,
    "compare": cmd_compare,
    "verify-psi": cmd_verify_psi,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (see --help)")
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except GroupFileError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 3
    except InternalCheckError as exc:
        sys.stderr.write(f"internal check failure: {exc}\n")
        return 4


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
