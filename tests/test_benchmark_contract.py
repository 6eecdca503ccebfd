"""The names the benchmark's layer tracer wraps must exist in the package.

``perfbench/tracer.py`` looks every ``SPANS`` entry up with ``getattr``
when a traced run starts, so a refactor that moves or renames one of
those functions breaks every traced benchmark run. The tracer is read as
text here, not imported, so this check leaves ``perfbench/`` untouched.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_spans():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no SPANS")


@pytest.mark.parametrize("module,attr", traced_spans())
def test_every_traced_span_resolves(module, attr):
    mod = importlib.import_module(f"spectral_rff.{module}")
    assert callable(getattr(mod, attr, None)), f"spectral_rff.{module}.{attr}"


@pytest.mark.parametrize("module", ["model", "training"])
def test_feature_map_is_imported_by_name_where_it_is_traced(module):
    from spectral_rff import features
    mod = importlib.import_module(f"spectral_rff.{module}")
    assert mod.features_for_mode is features.features_for_mode
