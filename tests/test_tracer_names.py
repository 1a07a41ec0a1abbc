"""The benchmark's span tracer (perfbench/spans.py) looks library names up
by string; a rename that breaks it must fail here, not only in a
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("module_name", sorted(SPANS.FUNCTIONS))
def test_every_traced_function_exists(module_name):
    module = importlib.import_module(f"resolvinv.{module_name}")
    missing = [name for name in SPANS.FUNCTIONS[module_name]
               if not callable(getattr(module, name, None))]
    assert missing == []


@pytest.mark.parametrize("cls_name", SPANS.OPERATOR_CLASSES)
def test_operator_classes_define_the_traced_methods(cls_name):
    from resolvinv import operators

    own = vars(getattr(operators, cls_name))
    assert "spectrum" in own and "resolvent_solve" in own


@pytest.mark.parametrize("cls_name", SPANS.SPECTRUM_CLASSES)
def test_spectrum_classes_define_distance_to(cls_name):
    from resolvinv import geometry

    assert "distance_to" in vars(getattr(geometry, cls_name))
