"""One basis route, held on the source: after parsing, a basis is integer
rows over one denominator (`numberfield.basis_rows`), and
`numberfield.basis_mult_table` alone turns it into a multiplication table
and the inverse basis matrix.  So `power_mult_table`, the power basis's
table, is reached only from there; `linalg` keeps no `Fraction` inverse; and
`orders` makes a `Fraction` only in `Order.basis`, the format of a
`FieldRecord`.

The checks are syntactic.  They list every use of a name or attribute, and
every import of it, and map each to the function that holds it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ternlat"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def uses(source: str, module: str, name: str):
    """(scope, line) for each use or import of `name` in source, scope the
    dotted name of the enclosing function or the module's own name."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name) and child.id == name or \
                    isinstance(child, ast.Attribute) and child.attr == name or \
                    isinstance(child, ast.alias) and \
                    child.name.split(".")[-1] == name:
                out.append((scope, child.lineno))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), module)
    return out


def all_uses(name: str):
    out = []
    for path in SOURCES:
        out += uses(path.read_text(encoding="utf-8"), path.stem, name)
    return out


def test_only_basis_mult_table_reaches_the_power_table():
    found = all_uses("power_mult_table")
    assert {scope for scope, _ in found} == \
        {"numberfield.basis_mult_table"}, found


def test_linalg_keeps_no_inverse():
    tree = ast.parse((PACKAGE / "linalg.py").read_text(encoding="utf-8"))
    names = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names |= {t.id for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    assert "inverse" not in names


def test_orders_makes_fractions_only_for_the_record():
    found = uses((PACKAGE / "orders.py").read_text(encoding="utf-8"),
                 "orders", "Fraction")
    assert {scope for scope, _ in found} - {"orders"} == \
        {"orders.Order.basis"}, found
    # the module scope holds only the import
    assert sum(scope == "orders" for scope, _ in found) == 1, found


def test_basis_guard_sees_each_kind_of_use():
    source = ("from .numberfield import power_mult_table\n"
              "class Order:\n"
              "    def tables(self):\n"
              "        return numberfield.power_mult_table(self.p, self.d)\n"
              "def enlarge_at(order):\n"
              "    f = power_mult_table\n")
    assert uses(source, "orders", "power_mult_table") == \
        [("orders", 1), ("orders.Order.tables", 4), ("orders.enlarge_at", 6)]
