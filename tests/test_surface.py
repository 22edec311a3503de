"""Regrowth guard: every public definition in the package has a caller.

A public module-level function or class, or a public method, must be
named by an AST ``Name`` or ``Attribute`` node somewhere in the package
outside its own definition.  Code that only its tests call either moves
to ``tests/helpers.py`` or waits in ALLOWED with the reason it stays.
Matching is by identifier, so a dead definition that shares its name with
a live one goes unseen; a live one is never reported.
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
    "classical.bm_decode": "perfbench traces it by name until ROADMAP item 1, step A",
    "product.channel_encode": "ROADMAP item 8: the coded syndrome block",
    "product.channel_block": "ROADMAP item 8: the coded syndrome block",
    "product.extract_syndrome": "reference layout tests compare against",
    "product.in_class_E": "reference layout tests compare against",
    "product.in_class_D": "ROADMAP item 4: localize-mode class",
    "quantum.build_coset_table": "ROADMAP item 4: per-column quantum correction",
    "quantum.CosetTable.representative": "ROADMAP item 4: per-column quantum correction",
}


def _names(node) -> collections.Counter:
    """Count of each identifier named by a Name or Attribute node."""
    counts = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
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
    total = sum((_names(tree) for tree in trees.values()), collections.Counter())
    return {f"{module}.{name}"
            for module, tree in trees.items()
            for name, node in _public_definitions(tree)
            if total[node.name] == _names(node)[node.name]}


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
