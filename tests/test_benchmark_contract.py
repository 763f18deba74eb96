"""The benchmark's tracer patches package functions by name; every name
it lists must resolve, or its per-layer trace silently goes blind.  Its
kernel microbenchmark must run on the package's Permutation.

The tracer's span table is read from its source without importing it;
the microbenchmark runs from a module compiled from that source, so no
file under the benchmark directory is written.
"""

import ast
import importlib
import types

import pytest

from conftest import TESTS_DIR
from blockfunctor.battery import g56
from blockfunctor.permutation import Permutation

TRACING = TESTS_DIR.parent / "perfbench" / "tracing.py"


def _spans():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    node = next(
        node for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets)
    )
    return ast.literal_eval(node.value)


TARGETS = sorted({target for targets in _spans().values() for target in targets})


def test_span_table_is_not_empty():
    assert TARGETS


@pytest.mark.parametrize("module,attr", TARGETS, ids=lambda part: part)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"blockfunctor.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_kernel_microbenchmark_runs_on_the_kernel():
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         tracing.__dict__)
    gens = g56().generators
    pairs = [(gens[0].images, gens[-1].images), (gens[-1].images, gens[0].images)]
    kernel = tracing.kernel_ns(Permutation, pairs, number=10, repeat=1)
    assert sorted(kernel) == ["hash_ns", "inverse_ns", "product_ns"]
    assert all(value > 0 for value in kernel.values())
