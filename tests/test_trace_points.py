"""The benchmark's trace points exist where its span recorder looks.

``perfbench/tracing.py`` wraps every ``LAYER_SPANS`` entry by reading
``owner.__dict__[attr]`` (a method in its class body, a function in the
module that calls it), so renaming, inlining or moving one of those
names breaks the traced benchmark run.  This test reads the list
without running the recorder.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_SPANS


LAYER_SPANS = _layer_spans()


def test_every_layer_has_trace_points():
    assert len(LAYER_SPANS) >= 20
    assert len({(m, a) for m, a, _ in LAYER_SPANS}) == len(LAYER_SPANS)


@pytest.mark.parametrize(
    "module_name, attr_path, span_name",
    LAYER_SPANS,
    ids=[f"{m}:{a}" for m, a, _ in LAYER_SPANS],
)
def test_trace_point_resolves_in_its_owner(module_name, attr_path, span_name):
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = owner.__dict__[part]
    assert attr in owner.__dict__, f"{span_name}: {module_name}.{attr_path}"
    assert callable(owner.__dict__[attr])
