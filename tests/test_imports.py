"""Guard against imports and private helpers that nothing uses.

Parses every Python file under `src/`, `tests/`, `demos/` and `bench/`
and fails on any name an import binds that the module never references.
A name listed in the module's `__all__` counts as referenced (a
re-export), and `from __future__ import ...` is exempt.

A second scan covers `src/` alone: a private module-level function or
class that no `src/` module references outside its own definition is
dead library code.  A helper that only tests need belongs in `tests/`.

A third scan, also of `src/`, keeps the value rules of the library's
records in one place: no class but `series._Value` defines
`__setattr__`, `__delattr__`, `__eq__` or `__hash__`.

A fourth scan, of `src/`, keeps the decompose-then-pair path off the
hot paths, which evaluate rows straight to values: `_decompose_raw` is
named only inside `unit_decompose` and `_action_row`, and `_pairing`
only inside `_ActionScanner.apply_matrix`.  The same scan keeps the
CLI's output formats in one emitter: `dumps` is named only inside
`cli._emit`, so `json.dumps` appears once in `src/`.  It also keeps the
library's records free of the wall clock: `perf_counter` is named only
inside `cli._timed`, which times the library's work for the CLI's
documents, and inside criteria 1 and 6 of `acceptance`, whose checks
state an elapsed time against a limit.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos", "bench")


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return set()


def unused_imports(source):
    """Names bound by an import in `source` and never referenced."""
    tree = ast.parse(source)
    imported = {}
    used = _exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_unused_and_accepts_used():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "print(sys.argv, dumps)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "osp")]


def dead_private_helpers(sources):
    """(module, line, name) of each private module-level function or class
    in `sources`, a module -> source map, that no module references
    outside the definition itself."""
    defined, used = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.startswith("__"):
                    own = name
                    defined.append((module, node.lineno, name))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return sorted(entry for entry in defined if entry[2] not in used)


def test_dead_helper_scan_on_literal_source():
    sources = {
        "a": (
            "def _called():\n"
            "    pass\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Imported:\n"
            "    pass\n"
            "def _by_attribute():\n"
            "    pass\n"
            "def __getattr__(name):\n"
            "    return _called\n"
        ),
        "b": "from a import _Imported\nimport a\nprint(_Imported, a._by_attribute)\n",
    }
    assert dead_private_helpers(sources) == [("a", 3, "_recursive")]


def test_no_dead_private_helpers():
    sources = {
        path.relative_to(ROOT).as_posix(): path.read_text()
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    assert dead_private_helpers(sources) == []


VALUE_RULES = ("__setattr__", "__delattr__", "__eq__", "__hash__")


def restated_value_rules(source):
    """(line, class, method) of each value-rule method that a class other
    than `_Value` defines in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name != "_Value":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name in VALUE_RULES:
                    found.append((item.lineno, node.name, item.name))
    return found


def test_value_rule_scan_on_literal_source():
    source = (
        "class _Value:\n"
        "    def __eq__(self, other):\n"
        "        pass\n"
        "class Record(_Value):\n"
        "    def _ident(self):\n"
        "        pass\n"
        "    def __hash__(self):\n"
        "        pass\n"
    )
    assert restated_value_rules(source) == [(7, "Record", "__hash__")]


def test_value_rules_live_only_in_the_value_base():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line, cls, name in restated_value_rules(path.read_text()):
            found.append("%s:%d %s.%s" % (path.relative_to(ROOT), line, cls, name))
    assert found == []


def test_no_unused_imports():
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for line, name in unused_imports(path.read_text()):
                found.append("%s:%d %s" % (path.relative_to(ROOT), line, name))
    assert found == []


# name -> the only `src/` functions (qualified names) that may name it
CONFINED = {
    "_decompose_raw": {"unit_decompose", "_action_row"},
    "_pairing": {"_ActionScanner.apply_matrix"},
    "dumps": {"_emit"},
    "perf_counter": {"_timed", "run_criterion_1", "run_criterion_6"},
}


def confined_uses(source, confined=CONFINED):
    """(line, scope, name) of each use in `source` of a name in `confined`
    outside the functions allowed to use it.  A use is any load of the
    name or of an attribute of that name, called or not; scope is the
    dotted name of the enclosing classes and functions, or "<module>".
    Imports and the definition itself are not uses."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            else:
                name = None
            where = ".".join(scope) or "<module>"
            if name in confined and where not in confined[name]:
                found.append((child.lineno, where, name))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_confined_use_scan_on_literal_source():
    source = (
        "from series import _decompose_raw\n"
        "def _pairing(pairs):\n"
        "    pass\n"
        "def unit_decompose(f):\n"
        "    return _decompose_raw(f)\n"
        "class _ActionScanner:\n"
        "    def apply_matrix(self, rows):\n"
        "        return [_pairing(r) for r in rows]\n"
        "    def matches(self, z):\n"
        "        return series._decompose_raw(z)\n"
        "def _flat_scan(rows):\n"
        "    pair = _pairing\n"
        "    def inner(row):\n"
        "        return pair(row)\n"
        "    return inner\n"
        "TABLE = (_pairing,)\n"
    )
    assert confined_uses(source) == [
        (10, "_ActionScanner.matches", "_decompose_raw"),
        (12, "_flat_scan", "_pairing"),
        (16, "<module>", "_pairing"),
    ]


def test_decompose_and_pair_stay_off_the_hot_paths():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line, where, name in confined_uses(path.read_text()):
            found.append("%s:%d %s uses %s" % (path.relative_to(ROOT), line, where, name))
    assert found == []
