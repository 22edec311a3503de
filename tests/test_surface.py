"""Regrowth guard: every public definition in the package has a caller.

A public module-level function or class, or a public method, must be
named by an AST ``Name`` or ``Attribute`` node somewhere in the package
outside its own definition.  Code that only its tests call either moves
to ``tests/helpers.py`` or waits in ALLOWED with the reason it stays.
A module-level ``f`` of module ``m`` is matched by module: ``m.f``, or a
bare ``f`` inside ``m`` or imported from ``m``.  A method is matched by the
identifier of an ``Attribute`` node, since the type of its receiver is not
known, so a dead method that shares its name with a live one goes unseen; a
live one is never reported.  A bare name, such as a local variable, never
counts for a method.
"""

import ast
import collections
import pathlib

import qproduct

PACKAGE = pathlib.Path(qproduct.__file__).parent

ALLOWED = {
    "analytics.poisson_binomial_tail": "ROADMAP item 3: the min-distance noise model",
    "analytics.shannon_bounds": "ROADMAP item 8: qproduct analyze shannon",
    "analytics.ShannonReport.source_ok": "ROADMAP item 8: qproduct analyze shannon",
    "analytics.ShannonReport.channel_ok": "ROADMAP item 8: qproduct analyze shannon",
    "circuit.propagate": "ROADMAP item 6: single-fault oracle for circuit noise",
    "circuit.data_frame": "ROADMAP item 6: residual data error of a fault",
    "product.channel_encode": "ROADMAP item 8: the coded syndrome block",
    "product.channel_block": "ROADMAP item 8: the coded syndrome block",
    "product.LookupTable.entries": "perfbench reads len(table.entries); ROADMAP item 1A",
}


def _imports(tree) -> dict:
    """Local name -> (sibling module, member) of each ``from`` import; the
    member is None when the name is the module itself."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound[alias.asname or alias.name] = (
                    (alias.name, None) if node.module is None
                    else (node.module.rpartition(".")[2], alias.name))
    return bound


def _refs(node, module: str, bound: dict) -> collections.Counter:
    """References under node, counted by attribute identifier (for methods)
    and by (module, name) (for module-level definitions): a bare ``f`` is
    ``module.f`` unless imported, and ``m.f`` on an imported module ``m``
    is ``m.f``."""
    counts = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[bound.get(sub.id, (module, sub.id))] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
            source, member = bound.get(getattr(sub.value, "id", None), (None, ""))
            if member is None:
                counts[(source, sub.attr)] += 1
    return counts


def _public_definitions(tree):
    """(qualified name, node) of each public top-level def/class and each
    public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def uncalled(package: pathlib.Path = PACKAGE) -> set[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    bound = {module: _imports(tree) for module, tree in trees.items()}
    total = sum((_refs(tree, module, bound[module]) for module, tree in trees.items()),
                collections.Counter())
    found = set()
    for module, tree in trees.items():
        for name, node in _public_definitions(tree):
            key = node.name if "." in name else (module, name)
            if total[key] == _refs(node, module, bound[module])[key]:
                found.add(f"{module}.{name}")
    return found


def test_every_public_definition_has_a_caller_or_a_reason():
    assert sorted(uncalled() - ALLOWED.keys()) == []


def test_allowlist_names_only_uncalled_definitions():
    """An entry whose symbol gained a caller, or was deleted, goes."""
    assert sorted(ALLOWED.keys() - uncalled()) == []


def test_guard_sees_a_self_recursive_definition_as_uncalled(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else used()\n\n\n"
        "class Box:\n    def get(self):\n        return self.get\n")
    assert uncalled(tmp_path) == {"mod.lonely", "mod.Box", "mod.Box.get"}


def test_guard_does_not_count_a_local_name_as_a_method_call(tmp_path):
    """A method named like a local variable, never read as an attribute,
    is uncalled."""
    (tmp_path / "mod.py").write_text(
        "class Box:\n    def size(self):\n        return 1\n\n\n"
        "def count(items):\n    size = len(items)\n    return size, Box\n")
    assert uncalled(tmp_path) == {"mod.Box.size", "mod.count"}


def test_guard_matches_module_level_names_by_module(tmp_path):
    """A call of one module's ``shared`` does not count for another's."""
    (tmp_path / "one.py").write_text("def shared():\n    return 1\n")
    (tmp_path / "two.py").write_text(
        "from . import one\n\n\n"
        "def shared():\n    return 2\n\n\n"
        "def main():\n    return one.shared()\n")
    (tmp_path / "three.py").write_text(
        "from .two import main as entry\n\n\n"
        "def run():\n    return entry()\n")
    assert uncalled(tmp_path) == {"two.shared", "three.run"}
