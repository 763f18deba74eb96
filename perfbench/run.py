"""Benchmark of the blockfunctor command line, one workload per process.

    python3 perfbench/run.py --workload affine --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The run writes seeded input
files under ``perfbench/out/``, imports the package from ``src/`` and
sends the workload's commands through ``blockfunctor.cli.main`` in this
process, as a closed loop with one client: each command starts when the
previous one has returned.  The loop cycles through the command list,
each cycle on fresh presentations of the same groups, and stops before a
command that would end after ``--seconds``; the first cycle always
completes.  Every output is checked against the frozen summaries in
``expected.json``.

With ``--trace 0`` the last line reports the end-to-end metrics:

- ``pass_s``: one pass over the command list, summed from each command's
  median over its samples (one per cycle);
- ``max_cmd_s``: the largest of those per-command medians;
- ``setup_s``: the median of about 30 fresh imports of the package, each
  followed by loading the current cycle's inputs, spread evenly over the
  run between commands;
- ``peak_rss_mb``: peak resident memory of the process.

Commands that exit nonzero or fail their check count in ``failed``.
With ``--trace 1`` the run makes a traced, an untraced and a second
traced pass on the first cycle's inputs and reports the per-layer
metrics; the spans go to ``perfbench/out/trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from statistics import median
from time import perf_counter

import inputs
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 31  # set-ups spread over a timed run
ENV_MAX_ORDER = "BLOCKFUNCTOR_MAX_ORDER"


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(commands):
    """Import the package afresh and load the commands' input files.

    Returns the fresh cli module and the seconds taken.
    """
    for name in [m for m in sys.modules if m.split(".")[0] == "blockfunctor"]:
        del sys.modules[name]
    gc.collect()
    start = perf_counter()
    cli = importlib.import_module("blockfunctor.cli")
    grpfile = sys.modules["blockfunctor.grpfile"]
    for path in sorted({a for _key, argv in commands for a in argv if a.endswith(".grp")}):
        with open(path, encoding="utf-8") as handle:
            grpfile.load_group(grpfile.parse_group_file(handle.read()))
    return cli, perf_counter() - start


class Checker:
    """Counts attempted and failed commands; reports each failing key once."""

    def __init__(self, expected):
        self.expected = expected
        self.bad_keys = workloads.golden_mismatches(expected)
        self.attempted = 0
        self.failed = 0
        self._reported = set()
        for key in self.bad_keys:
            sys.stderr.write(f"perfbench: frozen summary of {key} disagrees with the golden table\n")

    def __call__(self, key, argv, code, stdout, stderr):
        self.attempted += 1
        if code != 0:
            reason = f"exit {code}: {stderr.strip()[-400:]}"
        elif not workloads.check(key, argv, stdout, self.expected, self.bad_keys):
            reason = "output differs from the frozen summary"
        else:
            return
        self.failed += 1
        if key not in self._reported:
            self._reported.add(key)
            sys.stderr.write(f"perfbench: {key}: {reason}\n")


def run_command(cli, argv, tracer=None, index=None):
    """(seconds, exit code, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.command(index, cli.main, argv)
    except Exception:  # noqa: BLE001 - a crash counts as a failed command
        code = None
        err.write(traceback.format_exc())
    return perf_counter() - start, code, out.getvalue(), err.getvalue()


def timed_cycles(commands_for, seconds, check):
    """Per-command samples from cycling through the command list, and
    set-up samples spread evenly over the run, so that both medians are
    taken over the same stretch of time."""
    samples, setup_times = None, []
    start = perf_counter()
    cycle = 0
    while True:
        commands = commands_for(cycle)
        samples = samples or [[] for _ in commands]
        gc.collect()
        for i, (key, argv) in enumerate(commands):
            elapsed = perf_counter() - start
            if samples[i] and elapsed + median(samples[i]) > seconds:
                return samples, setup_times
            if elapsed >= len(setup_times) * seconds / SETUP_SAMPLES:
                cli, setup_s = setup(commands)
                setup_times.append(setup_s)
            elapsed, code, out, err = run_command(cli, argv)
            samples[i].append(elapsed)
            check(key, argv, code, out, err)
        cycle += 1


def one_pass(cli, commands, check, tracer=None):
    """Seconds spent in the commands of one pass."""
    gc.collect()
    total = 0.0
    for i, (key, argv) in enumerate(commands):
        elapsed, code, out, err = run_command(cli, argv, tracer, i)
        total += elapsed
        check(key, argv, code, out, err)
    return total


def traced_run(args, cli, commands, check, env):
    """A traced pass, an untraced pass, a second traced pass, then the
    kernel microbenchmark; the untraced pass sits between the traced ones
    so that a drift in machine speed cancels out of the overhead."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        first = one_pass(cli, commands, check, tracer)
        spans, counters, times = tracer.spans, tracer.totals(), tracer.self_times()
    finally:
        tracer.uninstall()
    untraced = one_pass(cli, commands, check)
    tracer.reset()
    tracer.install()
    try:
        second = one_pass(cli, commands, check, tracer)
        repeat = tracer.totals()
    finally:
        tracer.uninstall()
    if repeat != counters:
        sys.stderr.write(f"perfbench: counters differ between traced passes: {counters} vs {repeat}\n")
    for missing in tracer.missing:
        sys.stderr.write(f"perfbench: traced function {missing} not found\n")

    permutation = sys.modules["blockfunctor.permutation"].Permutation
    pairs = []
    for name in ("G56", "F156"):
        _degree, gens = inputs.canonical(ROOT, name)
        pairs.append((gens[0], gens[-1]))
    kernel = tracing.kernel_ns(permutation, pairs)

    metrics = {f"permutation.{name}": (value, "ns") for name, value in kernel.items()}
    for name in tracing.COUNTERS:
        metrics[name] = (counters[name], "count")
    for name in tracing.CALL_COUNTED:
        metrics[f"{name}_calls"] = (counters.get(f"{name}_calls", 0), "count")
    metrics["chartab.tables"] = (counters.get("chartab.character_table_calls", 0), "count")
    tests = counters["ddelta.iso_tests"]
    metrics["ddelta.iso_hit_ratio"] = (counters["ddelta.iso_hits"] / tests if tests else 0.0, "ratio")
    for name in tracing.TIME_METRICS:
        metrics["cli.self_s" if name == "cli" else f"{name}_s"] = (times[name], "s")
    metrics["trace.overhead_s"] = ((first + second) / 2 - untraced, "s")

    stress = stress_report(args.workload, times)
    print(f"# layer shares of the traced pass {json.dumps(stress['shares'])}")
    print(f"# {stress['claim']}: {'yes' if stress['holds'] else 'NO'}")
    t0 = spans[0][1] if spans else 0.0
    doc = {
        "env": env,
        "workload": args.workload,
        "seed": args.seed,
        "commands": [key for key, _argv in commands],
        "untraced_pass_s": untraced,
        "traced_pass_s": [first, second],
        "counters": counters,
        "counters_repeat": repeat == counters,
        "self_s": times,
        "stress": stress,
        "missing": tracer.missing,
        "span_fields": ["name", "start_s", "end_s", "parent", "command"],
        "spans": [[n, s - t0, e - t0, parent, c] for n, s, e, parent, c in spans],
    }
    with open(os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(doc, handle)
    return metrics, repeat == counters


def stress_report(workload, times):
    """Layer shares of a traced pass, and whether the layer the workload
    is meant to stress dominates as expected."""
    layers = {}
    for name, value in times.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + value
    total = sum(layers.values()) or 1.0
    shares = {name: round(value / total, 4) for name, value in sorted(layers.items())}
    autos = layers.get("autos", 0.0)
    if workload == "affine":
        claim = "autos is the largest layer"
        holds = autos == max(layers.values())
    elif workload == "nonnormal":
        claim = "permgroup.p_subgroup_classes exceeds all autos time"
        holds = times["permgroup.p_subgroup_classes"] > autos
    else:
        claim = "autos.iso_miss exceeds autos.iso_hit"
        holds = times["autos.iso_miss"] > times["autos.iso_hit"]
    return {"shares": shares, "claim": claim, "holds": holds}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (os.path.isdir(os.path.join(SRC, "blockfunctor"))
            and os.path.isdir(os.path.join(ROOT, inputs.FIXTURE_DIR))):
        sys.stderr.write(
            f"perfbench: {ROOT} is not a blockfunctor source checkout "
            f"(src/blockfunctor and {inputs.FIXTURE_DIR} are required)\n"
        )
        return 2
    # the order bound changes what is computed, so runs use the default
    unset_bound = os.environ.pop(ENV_MAX_ORDER, None)
    sys.path.insert(0, SRC)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        f"unset_{ENV_MAX_ORDER}": unset_bound,
    }
    print("# env " + json.dumps(env))

    run_dir = os.path.join(OUT, f"{args.workload}-s{args.seed}")
    os.makedirs(run_dir, exist_ok=True)

    def commands_for(cycle):
        return workloads.commands(args.workload, ROOT, run_dir, args.seed, cycle)

    check = Checker(workloads.load_expected())
    repeat = True
    if args.trace:
        commands = commands_for(0)
        cli, _setup_s = setup(commands)
        metrics, repeat = traced_run(args, cli, commands, check, env)
    else:
        samples, setup_times = timed_cycles(commands_for, args.seconds, check)
        medians = [median(s) for s in samples]
        counts = sorted(len(s) for s in samples)
        metrics = {
            "pass_s": (sum(medians), "s"),
            "max_cmd_s": (max(medians), "s"),
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(
            f"# {args.workload} seed {args.seed}: {len(samples)} commands, "
            f"{counts[0]}-{counts[-1]} samples each; pass_s and max_cmd_s come from "
            f"the per-command medians, setup_s is the median of {len(setup_times)} set-ups"
        )

    result = {
        "correct": check.failed == 0 and repeat,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
