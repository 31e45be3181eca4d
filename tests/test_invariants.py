"""Invariants of the package source.

* They must not rest on `assert`, which `python -O` strips.
* The ring operations of the resident kernel and the slot-wise
  reductions of its descriptor do not loop over digits.
* Every boundary the benchmark's tracer wraps exists in the package.
* No module of the package or the tests imports a name it never reads.
* Every function, class and method of the package is read somewhere,
  and is reachable from an entry point along the names read in the
  bodies of reachable definitions; a short list is kept on purpose.
* Only `WittVector.__init__` and `witt.ghosts` write a vector's ghost
  memo `_ghosts`; the vector is otherwise immutable.
* Outside `dvr.py` the package computes on classes of R/pi^t as ring
  elements: it names `QuotElement` only where a Witt vector takes and
  shows its coordinates and where a descriptor takes a.
* The slot layout of the packed kernel is read only by `dvr.py` and
  `poly.py`.
* The constants of the SWAR conditional subtract are read only inside
  `RingDescriptor` methods, so each packed operation is written once,
  on the descriptor, and `RingElement` and the Witt layer call it.
* Caching stays behind `dvr.py`, the ring's memo of powers and
  divisors: elsewhere only the known tables of `artin_hasse.py` and
  `selftest.py` use `lru_cache` or `cache`.
* The property tests draw an element's digits only through
  `tests/strategies.py`: no other test module draws a list of e digits
  with `st.lists`, one draw per digit.
* Bad input has one exception, the library's InputError: `cli.py`
  defines no exception class, catches ValueError only where it parses
  a descriptor, and catches no KeyError or TypeError, which would name
  Python internals to the user.
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
             "times_p_power", "divide_p_power", "is_zero")
# RingDescriptor kernel methods that reduce every slot at once
KERNEL_LOOP_FREE = ("_canon", "_negate", "_reduce_raw", "_slots_mod",
                    "_vanishes", "_add", "_sub", "_times_p_power",
                    "_divide_p_power", "_mod_pi")
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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(path):
    """(line, name) of every function, class and method defined in the
    module, dunders excepted."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not _is_dunder(node.name)]


def _read_names(path):
    """Every name the module reads: loaded names and attributes, and the
    parts of dotted names written as strings (the tracer's boundaries)."""
    return _reads(ast.parse(path.read_text(), filename=str(path)))


def _reads(*roots):
    """The names read anywhere under the given AST nodes, as _read_names
    counts them."""
    out = set()
    for node in (node for root in roots for node in ast.walk(root)):
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


def _nested_definitions(node):
    """The definitions directly inside a function body, not inside one
    another."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            yield child
        else:
            yield from _nested_definitions(child)


def _name_graph(package):
    """(defs, roots, reported) of the package's name graph.

    defs maps a name to the names read where it is defined, one set per
    definition of that name: the whole body of a function or of the value
    of a module-level assignment; for a class its bases, decorators,
    class-level statements and dunder methods (Python calls those), not
    its other methods.  roots holds the names the package __init__ imports
    and the names read by module-level statements that define nothing.
    reported maps module:qualname to the name of every function, class
    and method outside __init__, dunders excepted.
    """
    defs, roots, reported = {}, set(), {}

    def define(path, node, scope):
        qual = ".".join(scope + (node.name,))
        if not _is_dunder(node.name):
            reported[f"{path.name}:{qual}"] = node.name
        if isinstance(node, ast.ClassDef):
            body = [stmt for stmt in node.body
                    if not isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                    or _is_dunder(stmt.name)]
            reads = _reads(*node.bases, *node.keywords,
                           *node.decorator_list, *body)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    define(path, stmt, scope + (node.name,))
        else:
            reads = _reads(node)
            for inner in _nested_definitions(node):
                define(path, inner, scope + (node.name, "<locals>"))
        defs.setdefault(node.name, []).append(reads)

    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if path.name == "__init__.py":
                if isinstance(stmt, ast.ImportFrom):
                    roots.update(alias.asname or alias.name
                                 for alias in stmt.names)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                define(path, stmt, ())
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            defs.setdefault(node.id, []).append(
                                _reads(stmt.value) if stmt.value else set())
            else:
                roots |= _reads(stmt)
    return defs, roots, reported


def _unreachable_definitions(package, entry_names):
    """module:qualname of every definition of the package that no entry
    point reaches: the package's roots and entry_names, then every name
    read where a reached name is defined."""
    defs, roots, reported = _name_graph(package)
    reached, todo = set(), list(roots | set(entry_names))
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for reads in defs.get(name, ()):
                todo.extend(reads - reached)
    return sorted(label for label, name in reported.items()
                  if name not in reached)


# Definitions no entry point reaches that are kept, one reason each.
UNREACHED_ON_PURPOSE = {
    "dvr.py:ring_element_from_json":
        "inverse of RingElement.to_json; identifying a printed model by "
        "its Hopf order (ROADMAP item 13) parses elements with it",
    "dvr.py:RingDescriptor.zeta1":
        "zeta_p, the first coordinate of the R-points of a model that "
        "the generic-fiber check (ROADMAP item 12) evaluates",
    "witt.py:witt_neg": "Witt group API: the negative of a vector",
    "witt.py:witt_sub":
        "Witt group API: the difference p[a] - j[mu] of the paper's "
        "psi* characterization, checked in test_witt",
}


def test_every_definition_is_reachable_from_an_entry_point():
    # entry points: the names __init__ imports (the package's roots), the
    # console script cli.main, the selftest tables and every name the
    # benchmark reads
    bench = _reads(*(ast.parse(path.read_text(), filename=str(path))
                     for path in sorted((ROOT / "perfbench").glob("*.py"))))
    entries = {"main", "CRITERIA", "CRITERIA_P5"} | bench
    found = _unreachable_definitions(SRC / "p2models", entries)
    assert [label for label in found
            if label not in UNREACHED_ON_PURPOSE] == []
    # an entry that became reachable, or went away, leaves the list
    assert sorted(UNREACHED_ON_PURPOSE) == [
        label for label in found if label in UNREACHED_ON_PURPOSE]


def test_unreachable_island_is_found(tmp_path):
    # negative control: two mutually recursive functions read each other
    # (and a test could read both), yet no entry point reaches them; a
    # method reached only through its class's dunder is reached
    (tmp_path / "__init__.py").write_text("from .mod import api\n")
    (tmp_path / "mod.py").write_text(
        "def api():\n    return Box().value\n\n\n"
        "class Box:\n    def __init__(self):\n"
        "        self.value = self.fill()\n\n"
        "    def fill(self):\n        return 1\n\n"
        "    def spare(self):\n        return even(2)\n\n\n"
        "def even(n):\n    return n == 0 or odd(n - 1)\n\n\n"
        "def odd(n):\n    return n != 0 and even(n - 1)\n")
    assert _unreachable_definitions(tmp_path, ()) == [
        "mod.py:Box.spare", "mod.py:even", "mod.py:odd"]
    assert _unreachable_definitions(tmp_path, {"spare"}) == []


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
    # mod pi^n.  Nothing else in the package branches on or builds one.
    scopes = _scopes_where(SRC / "p2models", _names({"QuotElement"}))
    assert [s for s in scopes if not s.startswith("dvr.py:")] == [
        "models.py:ModelDescriptor.__post_init__",
        "witt.py:WittVector.__init__", "witt.py:WittVector.coord"]


# the private slot layout of RingDescriptor's packed kernel
SLOT_LAYOUT = {"_slot_mask", "_slots_mod", "_pack", "_unpack", "_canon",
               "_reduce_raw", "_negate", "_pre_shift", "_pre_mask",
               "_barrett", "_q_shift", "_q_mask", "_runs", "_vanishes"}


def test_slot_layout_is_read_only_by_the_kernel_modules():
    scopes = _scopes_where(SRC / "p2models", _names(SLOT_LAYOUT))
    assert {s.partition(":")[0] for s in scopes} == {"dvr.py", "poly.py"}


# the constants of the SWAR conditional subtract of p^M
SWAR_CONSTANTS = {"_ge_bias", "_ge_bit", "_ones", "_pM_slots"}


def _swar_outside_the_descriptor(package):
    """Every scope that reads a SWAR constant outside RingDescriptor's
    methods."""
    return [s for s in _scopes_where(package, _names(SWAR_CONSTANTS))
            if not s.startswith("dvr.py:RingDescriptor.")]


def test_swar_constants_are_read_only_by_the_descriptor():
    assert _swar_outside_the_descriptor(SRC / "p2models") == []


def test_swar_constant_outside_the_descriptor_is_found(tmp_path):
    # negative control: a conditional subtract in a RingElement method
    # and one in a Witt function are reported; the descriptor's own is not
    (tmp_path / "dvr.py").write_text(
        "class RingDescriptor:\n    def _add(self, x, y):\n"
        "        x += y\n"
        "        return x - ((x + self._ge_bias) >> self._ge_bit\n"
        "                    & self._ones) * self.pM\n\n\n"
        "class RingElement:\n    def __sub__(self, other):\n"
        "        r = self.ring\n"
        "        return self.P + r._pM_slots - other.P\n")
    (tmp_path / "witt.py").write_text(
        "def _recover(ring, x):\n"
        "    return ((x + ring._ge_bias) >> ring._ge_bit) & ring._ones\n")
    assert _swar_outside_the_descriptor(tmp_path) == [
        "dvr.py:RingElement.__sub__", "witt.py:_recover"]


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


# functools' memo decorators, as names or attributes
CACHES = {"lru_cache", "cache"}


def test_caching_stays_behind_the_ring_memo():
    # the ring's memo of powers and divisors in dvr.py is the package's
    # caching policy; the other tables are the series and the battery's
    # rings and models, each built once per process
    scopes = _scopes_where(SRC / "p2models", _names(CACHES))
    assert [s for s in scopes if not s.startswith("dvr.py:")] == [
        "artin_hasse.py:ah_series", "artin_hasse.py:deformed_ah",
        "selftest.py:_models3", "selftest.py:_ring"]


def test_cache_scan_is_found(tmp_path):
    # negative control: a bare, a called and a dotted decorator and a
    # cache built by a call are reported; an import and cached_property
    # are not
    (tmp_path / "mod.py").write_text(
        "import functools\nfrom functools import cache, lru_cache\n\n\n"
        "@cache\ndef a():\n    return 1\n\n\n"
        "@lru_cache(maxsize=8)\ndef b():\n    return 2\n\n\n"
        "class C:\n    @functools.cache\n    def c(self):\n"
        "        return 3\n\n"
        "    @functools.cached_property\n    def d(self):\n"
        "        return 4\n\n\n"
        "def e(f):\n    return functools.lru_cache(None)(f)\n")
    assert _scopes_where(tmp_path, _names(CACHES)) == [
        "mod.py:C.c", "mod.py:a", "mod.py:b", "mod.py:e"]


def _per_digit_draw(node):
    """node calls `lists` with min_size some ring's e, one draw a digit."""
    return (isinstance(node, ast.Call) and _names({"lists"})(node.func)
            and any(k.arg == "min_size" and isinstance(k.value, ast.Attribute)
                    and k.value.attr == "e" for k in node.keywords))


def test_digits_are_drawn_only_by_the_strategies_module():
    assert [s for s in _scopes_where(ROOT / "tests", _per_digit_draw)
            if not s.startswith("strategies.py:")] == []


def test_per_digit_draw_is_found(tmp_path):
    # negative control: a dotted and a bare `lists` with min_size some
    # ring's e are reported; other sizes and other calls are not
    (tmp_path / "mod.py").write_text(
        "def a(R, digit):\n"
        "    return st.lists(digit, min_size=R.e, max_size=R.e)\n\n\n"
        "def b(ring, digit):\n"
        "    return lists(digit, max_size=3, min_size=ring.e)\n\n\n"
        "def c(R, t, digit):\n"
        "    return st.lists(digit, min_size=t), st.tuples(min_size=R.e)\n")
    assert _scopes_where(tmp_path, _per_digit_draw) == ["mod.py:a", "mod.py:b"]


def _catches_value_error(node):
    """node is an except clause that catches ValueError: by name, as
    Exception or BaseException, or bare."""
    return isinstance(node, ast.ExceptHandler) and (
        node.type is None or any(
            _names({"ValueError", "Exception", "BaseException"})(n)
            for n in ast.walk(node.type)))


def _catches_key_or_type_error(node):
    """node is an except clause that names KeyError or TypeError."""
    return isinstance(node, ast.ExceptHandler) and node.type is not None \
        and any(_names({"KeyError", "TypeError"})(n)
                for n in ast.walk(node.type))


def _exception_classes(path):
    """Every class the module defines on a base named *Error or
    *Exception."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and any(
                (getattr(base, "id", None) or getattr(base, "attr", "")
                 ).endswith(("Error", "Exception")) for base in node.bases)]


def test_cli_has_no_input_error_of_its_own():
    assert _exception_classes(SRC / "p2models" / "cli.py") == []
    assert [s for s in _scopes_where(SRC / "p2models", _catches_value_error)
            if s.startswith("cli.py:")] == ["cli.py:_parse_descriptor"]
    assert [s for s in _scopes_where(SRC / "p2models",
                                     _catches_key_or_type_error)
            if s.startswith("cli.py:")] == []


def test_cli_error_scans_are_found(tmp_path):
    # negative control: an exception class on a bare and on a dotted
    # base, ValueError caught in a tuple, as Exception and bare, and
    # KeyError caught in a tuple are reported; a plain class and another
    # exception are not
    (tmp_path / "cli.py").write_text(
        "class ValidationError(Exception):\n    pass\n\n\n"
        "class Table:\n    pass\n\n\n"
        "class Refused(errors.InputError):\n    pass\n\n\n"
        "def a():\n    try:\n        f()\n"
        "    except (KeyError, ValueError):\n        pass\n\n\n"
        "def b():\n    try:\n        f()\n"
        "    except Exception:\n        pass\n\n\n"
        "def c():\n    try:\n        f()\n    except:\n        pass\n\n\n"
        "def d():\n    try:\n        f()\n"
        "    except OSError:\n        pass\n")
    assert _exception_classes(tmp_path / "cli.py") == [
        "ValidationError", "Refused"]
    assert _scopes_where(tmp_path, _catches_value_error) == [
        "cli.py:a", "cli.py:b", "cli.py:c"]
    assert _scopes_where(tmp_path, _catches_key_or_type_error) == ["cli.py:a"]
