"""The package names that the benchmark's span tracer binds, checked without running it.

``perfbench/spans.py`` wraps functions of the ``htgroth`` modules by name
and patches a few more in place.  A refactor that drops or renames one of
them breaks only the traced benchmark runs, so these tests read the names
out of that file (parsing it, not importing it) and look each one up.
"""

import ast
import importlib
from pathlib import Path

from htgroth import diagrams, jl_red
from htgroth.segments import GrothElement
from htgroth.symbolic import SymExpr

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def spans_constant(name: str):
    """The literal value that ``perfbench/spans.py`` assigns to the module-level ``name``."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no {name}")


def test_every_spanned_function_exists():
    spanned = spans_constant("SPANNED")
    assert set(spanned) <= set(spans_constant("LAYERS"))
    for layer, names in spanned.items():
        module = importlib.import_module(f"htgroth.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"htgroth.{layer}.{name}"
    cli = importlib.import_module("htgroth.cli")
    assert any(name.startswith("cmd_") for name in vars(cli))  # spanned too, found by prefix


def test_every_counted_name_exists():
    # patched in place for counters, or read for the cut-cache statistics
    assert callable(jl_red.cut_tuples)
    assert jl_red.rectangle_cuts.cache_info().maxsize
    assert callable(diagrams.convex_hull)
    assert callable(GrothElement.__add__) and callable(GrothElement.__init__)
    for op in spans_constant("SYMEXPR_OPS"):
        assert op in vars(SymExpr), op
