"""Every public name is used by the program, not only by the tests.

A name in texelkit.__all__ must be read as code (a loaded Name, an
Attribute or an import alias; a docstring does not count) in a library
module other than __init__.py or in perfbench/*.py, or be one the
benchmark tracer patches through perfbench/spans.py's SPANNED and COUNTED
tables. So must each public method and property of a class in __all__,
read as an Attribute or patched as Class.member. A name kept alive only by
its own tests fails here.
"""

import ast
from types import FunctionType
from pathlib import Path

import texelkit

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [p for p in sorted((ROOT / "src" / "texelkit").glob("*.py")) if p.name != "__init__.py"]
SOURCES += sorted((ROOT / "perfbench").glob("*.py"))


def names_read() -> tuple[set[str], set[str]]:
    """The names the program reads as code, and the Attribute names among them."""
    names, attrs = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names | attrs, attrs


def traced_attributes() -> set[str]:
    """Every attribute named in the tables, a method as Class.method."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    tables = {t.id: n.value for n in tree.body if isinstance(n, ast.Assign) for t in n.targets}
    return {attr for table in ("SPANNED", "COUNTED") for _, _, attr in ast.literal_eval(tables[table])}


def test_every_public_name_is_used_by_the_program():
    used, _ = names_read()
    used |= {part for attr in traced_attributes() for part in attr.split(".")}
    assert sorted(set(texelkit.__all__) - used) == []


def test_every_public_member_of_a_public_class_is_used_by_the_program():
    _, attrs = names_read()
    traced = traced_attributes()
    members = [
        f"{name}.{member}"
        for name in texelkit.__all__ if isinstance(cls := getattr(texelkit, name), type)
        for member, value in vars(cls).items()
        if not member.startswith("_")
        and isinstance(value, (FunctionType, property, classmethod, staticmethod))
    ]
    assert members  # the guard sees the classes' methods
    assert [m for m in members if m.split(".")[1] not in attrs and m not in traced] == []
