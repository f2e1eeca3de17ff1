"""Checks on the package sources themselves."""

import ast
from pathlib import Path

import srlab

#: Module-level names that no package code reads, each kept on purpose: the
#: README's entry point to the discrepancy list, and the face enumerator the
#: benchmark's tracer binds.
KEPT_UNREAD = ["claims.discrepancy_report", "complexes.all_faces"]


def unread_definitions(sources) -> list[str]:
    """Undecorated module-level functions and classes, as "module.name", that
    no package module reads: never loaded as a name outside their own body,
    never read as an attribute, never imported by another module."""
    defined, used, attributes = [], set(), set()
    for src in sources:
        mod = src.stem
        tree = ast.parse(src.read_text())
        for stmt in tree.body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not stmt.decorator_list:
                    defined.append(f"{mod}.{own}")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                    used.add(f"{mod}.{node.id}")
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                    used.update(f"{node.module}.{alias.name}" for alias in node.names)
    return [d for d in defined if d not in used and d.split(".")[1] not in attributes]


def test_package_has_no_unread_definitions():
    sources = sorted(Path(srlab.__file__).parent.glob("*.py"))
    assert unread_definitions(sources) == KEPT_UNREAD
