"""Invariants of the package source.

* They must not rest on `assert`, which `python -O` strips.
* The ring operations of the resident kernel and the slot-wise
  reductions of its descriptor do not loop over digits.
* Every boundary the benchmark's tracer wraps exists in the package.
* No module of the package or the tests imports a name it never reads.
* Every function, class and method of the package is read somewhere.
* Only `WittVector.__init__` and `witt.ghosts` write a vector's ghost
  memo `_ghosts`; the vector is otherwise immutable.
* Outside `dvr.py` the package computes on classes of R/pi^t as ring
  elements: it names `QuotElement` only where a Witt vector takes and
  shows its coordinates and where a descriptor takes and parses a.
* The slot layout of the packed kernel is read only by `dvr.py` and
  `poly.py`.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Criteria 3, 6 and 10 compare the closed forms phi_closed and hom_closed
# with their oracles; emptied closed forms must fail them.
SABOTAGED_BATTERY = """
import json
from p2models import models, selftest
models.phi_closed = lambda *args, **kwargs: []
models.hom_closed = lambda *args, **kwargs: []
results = selftest.run_selftest(3, ["3", "6", "10"])
print(json.dumps({r.cid: r.passed for r in results}))
"""


def test_no_assert_statements_in_package():
    found = []
    for path in sorted((SRC / "p2models").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


# RingElement methods that act on the packed integer as a whole
LOOP_FREE = ("__add__", "__sub__", "__neg__", "__mul__", "scale",
             "divide_p_power")
# RingDescriptor kernel methods that reduce every slot at once
KERNEL_LOOP_FREE = ("_canon", "_negate", "_reduce_raw", "_slots_mod")
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
         ast.DictComp, ast.GeneratorExp)


def _loops_in(source, cls_name, names):
    """name:line of every loop in the named methods of the class."""
    tree = ast.parse(source)
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == cls_name)
    methods = {node.name: node for node in cls.body
               if isinstance(node, ast.FunctionDef)}
    assert set(names) <= set(methods)
    return [f"{name}:{node.lineno}" for name in names
            for node in ast.walk(methods[name]) if isinstance(node, LOOPS)]


def test_ring_operations_are_loop_free():
    source = (SRC / "p2models" / "dvr.py").read_text()
    assert _loops_in(source, "RingElement", LOOP_FREE) == []


def test_kernel_reductions_are_loop_free():
    source = (SRC / "p2models" / "dvr.py").read_text()
    assert _loops_in(source, "RingDescriptor", KERNEL_LOOP_FREE) == []


def test_loop_in_a_kernel_method_is_found():
    # negative control: a loop, a comprehension and a generator
    source = ("class RingDescriptor:\n"
              "    def _canon(self, x):\n        return x\n\n"
              "    def _slots_mod(self, x, r):\n"
              "        for _ in range(r):\n            x //= 3\n"
              "        return sum(c for c in [x])\n")
    assert _loops_in(source, "RingDescriptor", ("_canon", "_slots_mod")) \
        == ["_slots_mod:6", "_slots_mod:8"]


def test_sabotaged_battery_fails_under_optimize():
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-O", "-c", SABOTAGED_BATTERY],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"3": False, "6": False, "10": False}


def _unread_imports(path):
    """(line, name) of every name the module imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_unused_imports():
    # the package __init__ imports only to re-export
    paths = [*sorted((SRC / "p2models").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path in paths if path.name != "__init__.py"
             for line, name in _unread_imports(path)]
    assert found == []


def test_trace_boundaries_resolve():
    # `perfbench/run.py --trace 1` wraps each of these names, looked up as
    # owner.__dict__[attr]; a refactor that renames or removes one breaks
    # the traced benchmark run.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for bname, (modname, qualnames) in tracing.BOUNDARIES.items():
        mod = importlib.import_module(f"p2models.{modname}")
        for qual in qualnames:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                missing.append(f"{bname}: {modname}.{qual}")
    assert missing == []


def _definitions(path):
    """(line, name) of every function, class and method defined in the
    module, dunders excepted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _read_names(path):
    """Every name the module reads: loaded names and attributes, and the
    parts of dotted names written as strings (the tracer's boundaries)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                out.update(parts)
    return out


def _unread_definitions(package, readers):
    read = set().union(*(_read_names(path) for path in readers))
    return [f"{path.name}:{line} {name}"
            for path in sorted(package.glob("*.py"))
            for line, name in _definitions(path) if name not in read]


def test_every_definition_is_read():
    readers = [path for sub in ("src", "tests", "perfbench")
               for path in sorted((ROOT / sub).rglob("*.py"))]
    assert _unread_definitions(SRC / "p2models", readers) == []


def test_unread_definition_is_found(tmp_path):
    # negative control: a method nothing reads is reported
    (tmp_path / "mod.py").write_text(
        "class A:\n    def used(self):\n        return self.spare\n\n"
        "    def spare(self):\n        return 0\n\n\n"
        "def unused():\n    return A().used()\n")
    readers = [tmp_path / "mod.py"]
    assert _unread_definitions(tmp_path, readers) == ["mod.py:9 unused"]


def _writes_ghost_memo(node):
    """node stores or deletes an attribute `_ghosts`, or names it in a
    call such as setattr(w, "_ghosts", ...)."""
    if isinstance(node, ast.Attribute) and node.attr == "_ghosts":
        return isinstance(node.ctx, (ast.Store, ast.Del))
    return isinstance(node, ast.Call) and any(
        isinstance(arg, ast.Constant) and arg.value == "_ghosts"
        for arg in node.args)


def _scopes_where(package, predicate):
    """module:qualname of every definition (module:, for the module
    body) holding a node that satisfies predicate."""
    found = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, path, scope + (child.name,))
                continue
            if predicate(child):
                found.add(f"{path.name}:{'.'.join(scope)}")
            visit(child, path, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, ())
    return sorted(found)


def _ghost_memo_writers(package):
    """module:qualname of every definition that writes `_ghosts`."""
    return _scopes_where(package, _writes_ghost_memo)


def test_ghost_memo_is_written_only_by_init_and_ghosts():
    assert _ghost_memo_writers(SRC / "p2models") == [
        "witt.py:WittVector.__init__", "witt.py:ghosts"]


def test_ghost_memo_writer_is_found(tmp_path):
    # negative control: an assignment, a deletion and a setattr elsewhere
    (tmp_path / "mod.py").write_text(
        "def reset(w):\n    w._ghosts = ()\n\n\n"
        "class A:\n    def drop(self, w):\n        del w._ghosts\n\n\n"
        "def seed(w, gh):\n    setattr(w, '_ghosts', gh)\n\n\n"
        "def read(w):\n    return w._ghosts\n")
    assert _ghost_memo_writers(tmp_path) == [
        "mod.py:A.drop", "mod.py:reset", "mod.py:seed"]


def _names(names):
    """Predicate: node is a name or an attribute spelled as one of names."""
    return lambda node: (isinstance(node, ast.Name) and node.id in names
                         or isinstance(node, ast.Attribute)
                         and node.attr in names)


def test_witt_names_quot_element_only_at_its_edge():
    # dvr.py defines QuotElement.  A Witt vector's constructor converts
    # QuotElements to canonical lifts in R and coord shows them as
    # QuotElements; a descriptor's constructor converts its a to a class
    # mod pi^n and from_json parses a into one.  Nothing else in the
    # package branches on or builds one.
    scopes = _scopes_where(SRC / "p2models", _names({"QuotElement"}))
    assert [s for s in scopes if not s.startswith("dvr.py:")] == [
        "models.py:ModelDescriptor.__post_init__",
        "models.py:ModelDescriptor.from_json",
        "witt.py:WittVector.__init__", "witt.py:WittVector.coord"]


# the private slot layout of RingDescriptor's packed kernel
SLOT_LAYOUT = {"_slot_mask", "_slots_mod", "_pack", "_unpack", "_canon",
               "_reduce_raw", "_negate"}


def test_slot_layout_is_read_only_by_the_kernel_modules():
    scopes = _scopes_where(SRC / "p2models", _names(SLOT_LAYOUT))
    assert {s.partition(":")[0] for s in scopes} == {"dvr.py", "poly.py"}


def test_name_scan_is_found(tmp_path):
    # negative control: a name, an attribute, an annotation and a
    # module-level use are reported; an import and a string are not
    (tmp_path / "mod.py").write_text(
        "from dvr import QuotElement\n\n\n"
        "class W:\n    def coord(self, i) -> QuotElement:\n"
        "        return i\n\n"
        "    def name(self):\n        return 'QuotElement'\n\n"
        "    def lift(self, c):\n"
        "        return isinstance(c, QuotElement)\n\n\n"
        "def res(c):\n    return c.P & c.ring._slot_mask\n")
    (tmp_path / "top.py").write_text("ZERO = QuotElement(None, 0, ())\n")
    assert _scopes_where(tmp_path, _names({"QuotElement"})) == [
        "mod.py:W.coord", "mod.py:W.lift", "top.py:"]
    assert _scopes_where(tmp_path, _names(SLOT_LAYOUT)) == ["mod.py:res"]
