"""Regenerate ``expected.json`` from the canonical presentations.

    python3 perfbench/freeze.py

Run from the root of a source checkout.  Every workload command runs once
on the canonical presentation of its groups; the summaries of the
outputs become the frozen expectations that every seeded presentation
must reproduce.  The S3 and A4 summaries are checked against the golden
tables in ``blockfunctor.battery`` before anything is written.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import workloads

ROOT = os.path.dirname(workloads.HERE)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ.pop("BLOCKFUNCTOR_MAX_ORDER", None)
    from blockfunctor import cli

    out_dir = os.path.join(workloads.HERE, "out", "canonical")
    os.makedirs(out_dir, exist_ok=True)
    expected = {}
    for workload in workloads.WORKLOADS:
        for key, argv in workloads.commands(workload, ROOT, out_dir, None):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"{key}: exit {code}")
            expected[key] = workloads.summarize(argv, json.loads(stdout.getvalue()))
    bad = workloads.golden_mismatches(expected)
    if bad:
        raise SystemExit(f"frozen summaries disagree with the golden tables: {bad}")
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        rows = (f"{json.dumps(key)}: {json.dumps(expected[key])}" for key in sorted(expected))
        handle.write("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(expected)} summaries to {workloads.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
