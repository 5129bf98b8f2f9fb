"""One exact sign route, held on the source: `FieldContext.compare` and
`Element.signature` settle an undecided sign by `_exact_signs` alone, and no
function in the package or its scripts reaches `linalg.charpoly`, which the
tests keep as their independent reference.

The check is syntactic.  It lists every use of a name or attribute
`charpoly`, and every `"charpoly"` string (a `getattr` by name), and maps
each to the function that holds it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ternlat").glob("*.py")) + \
    sorted((ROOT / "scripts").glob("*.py"))


def charpoly_uses(source: str, module: str):
    """(scope, line, kind) for each use of `charpoly` in source, scope the
    dotted name of the enclosing function or the module's own name."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == "charpoly" or \
                    isinstance(child, ast.Attribute) and \
                    child.attr == "charpoly":
                out.append((scope, child.lineno, "use"))
            elif isinstance(child, ast.alias) and \
                    child.name.split(".")[-1] == "charpoly":
                out.append((scope, child.lineno, "import"))
            elif isinstance(child, ast.Constant) and child.value == "charpoly":
                out.append((scope, child.lineno, "by name"))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), module)
    return out


def test_no_function_reaches_charpoly():
    uses = []
    for path in SOURCES:
        uses += charpoly_uses(path.read_text(encoding="utf-8"), path.stem)
    assert not uses, uses


def test_charpoly_guard_sees_each_kind_of_use():
    source = ("from ternlat.linalg import charpoly\n"
              "class C:\n"
              "    def f(self, m):\n"
              "        return linalg.charpoly(m)\n"
              "def g(m):\n"
              "    h = getattr(linalg, 'charpoly')\n"
              "    return charpoly(m)\n")
    assert charpoly_uses(source, "m") == [
        ("m", 1, "import"),
        ("m.C.f", 4, "use"),
        ("m.g", 6, "by name"),
        ("m.g", 7, "use"),
    ]
