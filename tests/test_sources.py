"""Checks on the package sources themselves."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import srlab

SOURCES = sorted(Path(srlab.__file__).parent.glob("*.py"))

#: Module-level names that no package code reads, each kept on purpose: the
#: README's entry point to the discrepancy list, the public constructor of
#: the irrelevant complex, which the tests build degenerate cases with, the
#: face enumerator the benchmark's tracer binds, and the graph API's
#: independence predicate, whose vertex-range check the graph tests pin.
KEPT_UNREAD = [
    "claims.discrepancy_report",
    "complexes.irrelevant_complex",
    "complexes.all_faces",
    "graphs.is_independent",
]

#: Class members that no package code reads by name, each kept on purpose:
#: argparse calls the parser's error hook, and README and the claim tests
#: read a claim record's description and counterpart.
KEPT_UNREAD_MEMBERS = ["claims.ClaimRecord.counterpart", "claims.ClaimRecord.description", "cli._Parser.error"]


def _attribute_names(trees) -> set[str]:
    return {node.attr for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _parse(sources) -> dict[str, ast.Module]:
    return {src.stem: ast.parse(src.read_text()) for src in sources}


def unread_definitions(sources) -> list[str]:
    """Undecorated module-level functions and classes, as "module.name", that
    no package module reads: never loaded as a name outside their own body,
    never read as an attribute, never imported by another module."""
    trees = _parse(sources)
    defined, used = [], set()
    for mod, tree in trees.items():
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not stmt.decorator_list:
                    defined.append(f"{mod}.{own}")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                    used.add(f"{mod}.{node.id}")
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    used.update(f"{node.module}.{alias.name}" for alias in node.names)
    attributes = _attribute_names(trees)
    return [d for d in defined if d not in used and d.split(".")[1] not in attributes]


def unread_members(sources) -> list[str]:
    """Non-dunder methods and annotated fields of module-level classes, as
    "module.Class.name", whose name no package module reads as an attribute.

    The check goes by name only, so a member that shares its name with a read
    member of another class passes unseen."""
    trees = _parse(sources)
    attributes = _attribute_names(trees)
    out = []
    for mod, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__"):
                    name = stmt.name
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                else:
                    continue
                if name not in attributes:
                    out.append(f"{mod}.{cls.name}.{name}")
    return sorted(out)


def test_package_has_no_unread_definitions():
    assert unread_definitions(SOURCES) == KEPT_UNREAD


def test_package_classes_have_no_unread_members():
    assert unread_members(SOURCES) == KEPT_UNREAD_MEMBERS


def test_cli_import_skips_dataclasses_and_inspect():
    """Every srlab process imports the CLI; its records are NamedTuples, so
    it never pays for dataclasses and the inspect, ast and dis imports behind
    it (about 13 ms per process), and it only binds the claim catalog, the
    scanners and the structure searches, which the commands that run them
    compile on first use. -S keeps site-packages hooks out of the check."""
    code = (
        "import srlab.cli, sys, types; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)), "
        "[m for m in ('claims', 'scans', 'structure') if type(sys.modules['srlab.' + m]) is types.ModuleType])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(srlab.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[] []\n"
