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


def _bound_names(statement):
    """The names a top-level statement defines: a function, a class or the
    plain names an assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def test_every_private_top_level_name_is_read_in_the_package():
    # a private helper that nothing in the package reads, besides its own
    # definition, is dead code that only the tests would keep alive; names
    # match across modules, and an attribute or an import counts as a read
    defined, reads = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            defined += [(path.stem, name, statement) for name in _bound_names(statement)
                        if name.startswith("_") and not name.startswith("__")]
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.append((statement, node.id))
                elif isinstance(node, ast.Attribute):
                    reads.append((statement, node.attr))
                elif isinstance(node, ast.ImportFrom):
                    reads += [(statement, alias.name) for alias in node.names]
    unread = [f"{module}: {name}" for module, name, statement in defined
              if not any(read == name and where is not statement for where, read in reads)]
    assert defined and not unread


def test_every_private_record_field_is_read_in_the_package():
    # a field of a private NamedTuple record that nothing in the package
    # reads as an attribute (matched by name) is computed for no reader
    fields, reads = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif (isinstance(node, ast.ClassDef) and node.name.startswith("_")
                  and any(getattr(base, "id", None) == "NamedTuple" for base in node.bases)):
                fields += [(path.stem, node.name, statement.target.id)
                           for statement in node.body if isinstance(statement, ast.AnnAssign)]
    unread = [f"{module}: {record}.{name}" for module, record, name in fields
              if name not in reads]
    assert fields and not unread


def test_exponentials_come_from_the_transforms_phase_tables():
    # every complex exponential of the package is made in ``transforms``
    # (its exact-phase tables and chirps), apart from the simulated
    # channel's Doppler ramps, so that no second phase recipe drifts from
    # the one the DAFT uses
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(statement):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "exp"
                        and getattr(node.func.value, "id", None) == "np"):
                    calls.append((path.stem, _bound_names(statement)))
    stray = [f"{module}: {names}" for module, names in calls
             if module != "transforms" and (module, names) != ("channel", ["_tap_ramps"])]
    assert any(module == "transforms" for module, _ in calls) and not stray


def test_the_receiver_decides_what_a_block_receives_with():
    # which planes, search table and kernels an estimator uses is decided in
    # ``receiver`` alone: the harness runs the stages, imports none of the
    # estimators' and equalizer's internals and makes no received plane
    internals = {"_affine_tap_groups", "_equalize_planes", "_ls_freq", "_noise_ratio",
                 "_peak_zone", "_PeakZone", "_pilot_subcarriers", "_tap_mmse",
                 "perfect_estimate", "ChannelEstimate"}
    tree = ast.parse((PACKAGE / "harness.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "receiver"
                for alias in node.names}
    called = {getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert imported and not imported & internals
    assert not called & {"_dft", "_daft"}


def test_one_loop_sends_and_receives_every_block():
    # the two halves of a block are read (called, or handed to a deferred
    # call) by one function of the package, the block loop that every
    # caller shares, so a rule of that loop cannot be written twice
    readers = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(statement):
                name = getattr(node, "id", getattr(node, "attr", None))
                if (name in ("_transmit_block", "_receive_block")
                        and isinstance(node.ctx, ast.Load)):
                    readers.setdefault(name, set()).update(
                        (path.stem, bound) for bound in _bound_names(statement))
    assert readers == {name: {("harness", "_run_blocks")}
                       for name in ("_transmit_block", "_receive_block")}


def test_the_receiver_reads_the_true_channel_only_to_build_a_genie():
    # the receiver estimates the channel from what it receives: in
    # ``receiver`` only the genie builder and the design name a ChannelSpec,
    # the design hands its true channel to the genie builders alone, the
    # receive step takes the noise level and no spec, and no function reads
    # a name only a ChannelSpec has
    tree = ast.parse((PACKAGE / "receiver.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    naming = {name for statement in tree.body if not isinstance(statement, ast.ImportFrom)
              for name in _bound_names(statement)
              if any(getattr(node, "id", None) == "ChannelSpec" for node in ast.walk(statement))}
    assert naming == {"perfect_estimate", "_receiver_design"}
    assert [arg.arg for arg in functions["_receive"].args.args] == [
        "received", "cfg", "design", "noise_var"]
    design = functions["_receiver_design"]
    reads = [node for node in ast.walk(design) if isinstance(node, ast.Name)
             and node.id == "truth" and isinstance(node.ctx, ast.Load)]
    passed = [arg for node in ast.walk(design) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) in ("perfect_estimate", "frequency_diagonal")
              for arg in node.args if isinstance(arg, ast.Name) and arg.id == "truth"]
    assert reads and len(passed) == len(reads)
    spec_only = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not spec_only & {"noise_var", "has_doppler", "with_noise", "normalize"}
