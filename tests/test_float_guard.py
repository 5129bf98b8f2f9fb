"""README's guarantee that no floating-point decision is ever trusted, held
on the source: floating point appears only in the functions named here.

The check is syntactic.  It lists every float literal, every `float(` and
`ldexp(` call, every use of `math.` and every name imported from `math`
that is not an integer function, and maps each to the function that holds
it.  A true division of two ints also makes a float; that stays for review.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ternlat"

# function -> why floating point may appear in it
FLOAT_FUNCTIONS = {
    "fieldscan.quartic_gap_maximum": "renders the maximum that three exact "
                                     "polynomial identities prove",
    "fieldscan.discriminant_bound_value": "renders certified rational bounds",
}

INTEGER_MATH = {"gcd", "lcm", "isqrt", "prod"}


def _flag(node):
    """What makes node a use of floating point, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value,
                                                     (float, complex)):
        return f"literal {node.value!r}"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("float", "ldexp"):
        return f"call {node.func.id}("
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "math":
        return f"math.{node.attr}"
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        names = sorted(a.name for a in node.names
                       if a.name not in INTEGER_MATH)
        if names:
            return f"from math import {', '.join(names)}"
    return None


def float_uses(source: str, module: str):
    """(scope, line, what) for each use of floating point in source, scope
    the dotted name of the enclosing function, or the module's own name."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            what = _flag(child)
            if what:
                out.append((scope, child.lineno, what))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), module)
    return out


def test_floats_only_in_the_allowed_functions():
    uses = []
    for path in sorted(SRC.glob("*.py")):
        uses += float_uses(path.read_text(encoding="utf-8"), path.stem)
    outside = [u for u in uses if u[0] not in FLOAT_FUNCTIONS]
    assert not outside, outside
    # every allowed function still needs its floats: no stale entry
    assert {u[0] for u in uses} == set(FLOAT_FUNCTIONS)


def test_float_guard_sees_each_kind_of_use():
    source = ("import math\n"
              "from math import sqrt, gcd\n"
              "class C:\n"
              "    def f(self, x=0.5):\n"
              "        return float(x) + math.pi + ldexp(1, 2) + 1j\n")
    assert float_uses(source, "m") == [
        ("m", 2, "from math import sqrt"),
        ("m.C.f", 4, "literal 0.5"),
        ("m.C.f", 5, "call float("),
        ("m.C.f", 5, "math.pi"),
        ("m.C.f", 5, "call ldexp("),
        ("m.C.f", 5, "literal 1j"),
    ]
