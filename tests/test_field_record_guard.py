"""One field constructor: every `FieldRecord` that the package and its
scripts make is made by `orders.field_record`, which derives the
discriminant, the sqrt2 tag, the units and h+ alike for every field.  Two
other places call `FieldRecord` directly: `fieldscan.parse_record`, which
reads a record from disk, and `cyclotomic.cyclo_info`, whose power-basis
record stays hand-built until the cyclotomic contexts take units and their
discriminant from an `Order`.

The check is syntactic.  It lists every call of a name or attribute
`FieldRecord` in the package and its scripts, and maps each to the function
that holds it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ternlat").glob("*.py")) + \
    sorted((ROOT / "scripts").glob("*.py"))

# the functions that may make a record
ALLOWED = {
    "orders.field_record",      # the constructor
    "fieldscan.parse_record",   # a record read from disk
    "cyclotomic.cyclo_info",    # the power-basis record of F_k
}


def record_calls(source: str, module: str):
    """(scope, line) for each call of `FieldRecord` in source, scope the
    dotted name of the enclosing function or the module's own name."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name == "FieldRecord":
                    out.append((scope, child.lineno))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), module)
    return out


def test_only_the_constructor_makes_records():
    calls = []
    for path in SOURCES:
        calls += record_calls(path.read_text(encoding="utf-8"), path.stem)
    assert {scope for scope, _ in calls} == ALLOWED, calls


def test_record_guard_sees_each_kind_of_call():
    source = ("from ternlat import numberfield\n"
              "REC = FieldRecord('a', 1, (0, 1), ((1,),), 1)\n"
              "def f(rec):\n"
              "    class C:\n"
              "        def g(self):\n"
              "            return numberfield.FieldRecord(*rec)\n"
              "    return rec._replace(h=2), FieldRecord\n")
    assert record_calls(source, "m") == [("m", 2), ("m.f.C.g", 6)]
