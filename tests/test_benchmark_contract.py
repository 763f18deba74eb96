"""The benchmark's tracer patches package functions by name; every name
it lists must resolve, or its per-layer trace silently goes blind.

The tracer's span table is read from its source without importing it.
"""

import ast
import importlib

import pytest

from conftest import TESTS_DIR

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
