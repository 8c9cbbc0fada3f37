"""The link benchmark wraps package functions at the module attributes
listed in ``linkbench/spans.py``; each one must still exist."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "linkbench" / "spans.py"


def test_every_patch_point_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("linkbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module.__name__}.{attr}" for module, attrs in spans.PATCH_POINTS
               for attr in attrs if not callable(getattr(module, attr, None))]
    assert spans.PATCH_POINTS and not missing
