"""Every public name is used by the program, not only by the tests.

A name in texelkit.__all__ must be read as code (a loaded Name, an
Attribute or an import alias; a docstring does not count) in a library
module other than __init__.py or in perfbench/*.py, or be one the
benchmark tracer patches through perfbench/spans.py's SPANNED and COUNTED
tables. A name kept alive only by its own tests fails here.
"""

import ast
from pathlib import Path

import texelkit

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [p for p in sorted((ROOT / "src" / "texelkit").glob("*.py")) if p.name != "__init__.py"]
SOURCES += sorted((ROOT / "perfbench").glob("*.py"))


def names_used(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def traced_names(tree: ast.Module) -> set[str]:
    """Every attribute, and each class of a method, named in the tables."""
    tables = {t.id: n.value for n in tree.body if isinstance(n, ast.Assign) for t in n.targets}
    traced = set()
    for table in ("SPANNED", "COUNTED"):
        for _, _, attr in ast.literal_eval(tables[table]):
            traced.update(attr.split("."))
    return traced


def test_every_public_name_is_used_by_the_program():
    used = set()
    for path in SOURCES:
        used |= names_used(ast.parse(path.read_text(), str(path)))
    used |= traced_names(ast.parse((ROOT / "perfbench" / "spans.py").read_text()))
    assert sorted(set(texelkit.__all__) - used) == []
