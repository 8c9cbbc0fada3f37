"""The link benchmark wraps package functions at the module attributes
listed in ``linkbench/spans.py``; each one must still exist."""
import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "linkbench" / "spans.py"
PACKAGE = ROOT / "src" / "afdmrsma"


def load_spans():
    spec = importlib.util.spec_from_file_location("linkbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_patch_point_resolves_to_a_callable():
    spans = load_spans()
    missing = [f"{module.__name__}.{attr}" for module, attrs in spans.PATCH_POINTS
               for attr in attrs if not callable(getattr(module, attr, None))]
    assert spans.PATCH_POINTS and not missing


def test_every_imported_name_is_read_or_patched():
    # a name a module imports but never reads is dead unless the benchmark
    # patches it there, so imports cannot pile up behind the patch points
    patched = {}
    for module, attrs in load_spans().PATCH_POINTS:
        patched.setdefault(module.__name__.rsplit(".", 1)[-1], set()).update(attrs)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if name not in read and name not in patched.get(path.stem, ()):
                    unused.append(f"{path.stem}: {name}")
    assert not unused
