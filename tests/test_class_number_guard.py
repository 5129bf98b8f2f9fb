"""No verdict reads the class numbers: the ingested `h` and `h_plus` of a
field record are read only where the record is checked on load, by the unit
filter of the small-condition scan, and by the obstruction scan, which
echoes them into its rows as `h=rec.h, h_plus=rec.h_plus` and decides
nothing by them.  No function of `obstruction.py` reads them: a certificate
rests on forced orthogonality and dual non-representation alone.

The check is syntactic.  It lists every read of an attribute `h` or
`h_plus`, and every `getattr` of one by name, in the package and its
scripts, and maps each to the function that holds it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ternlat").glob("*.py")) + \
    sorted((ROOT / "scripts").glob("*.py"))
ATTRS = {"h", "h_plus"}

# the functions that may read a class number
ALLOWED = {
    "numberfield.load_field",                 # h divides h_plus
    "fieldscan.scan_small_condition.worker",  # the unit filter
    "fieldscan.scan_obstructions.worker",     # echoed into each row
}


def class_number_reads(source: str, module: str):
    """(scope, line, attribute, echoed) for each read of `h` or `h_plus` in
    source, scope the dotted name of the enclosing function or the module's
    own name; echoed when the read is the value of a keyword argument of
    its own name, as in `out.update(h=rec.h)`."""
    out = []

    def visit(node, scope, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in ATTRS and \
                    isinstance(child.ctx, ast.Load):
                echoed = isinstance(parent, ast.keyword) and \
                    parent.arg == child.attr and parent.value is child
                out.append((scope, child.lineno, child.attr, echoed))
            elif isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Name) and \
                    child.func.id == "getattr" and len(child.args) > 1 and \
                    isinstance(child.args[1], ast.Constant) and \
                    child.args[1].value in ATTRS:
                out.append((scope, child.lineno, child.args[1].value, False))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            visit(child, inner, child)

    visit(ast.parse(source), module, None)
    return out


def all_reads():
    reads = []
    for path in SOURCES:
        reads += class_number_reads(path.read_text(encoding="utf-8"),
                                    path.stem)
    return reads


def test_only_the_allowed_functions_read_class_numbers():
    assert not any(scope.startswith("obstruction.") for scope in ALLOWED)
    assert {scope for scope, _, _, _ in all_reads()} == ALLOWED


def test_the_obstruction_scan_only_echoes_class_numbers():
    reads = [r for r in all_reads()
             if r[0].startswith("fieldscan.scan_obstructions")]
    assert sorted(attr for _, _, attr, _ in reads) == ["h", "h_plus"]
    assert all(echoed for _, _, _, echoed in reads), reads


def test_class_number_guard_sees_each_kind_of_read():
    source = ("def f(rec, out):\n"
              "    out.update(h=rec.h, h_plus=rec.h_plus)\n"
              "    out.update(h=rec.h_plus)\n"
              "    rec.h = 1\n"
              "    class C:\n"
              "        def g(self, rec):\n"
              "            return rec.h_plus != rec.h\n"
              "def k(rec):\n"
              "    return getattr(rec, 'h_plus'), rec.get('h')\n")
    assert class_number_reads(source, "m") == [
        ("m.f", 2, "h", True),
        ("m.f", 2, "h_plus", True),
        ("m.f", 3, "h_plus", False),
        ("m.f.C.g", 7, "h_plus", False),
        ("m.f.C.g", 7, "h", False),
        ("m.k", 9, "h_plus", False),
    ]
