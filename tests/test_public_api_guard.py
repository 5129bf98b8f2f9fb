"""No public name without a caller, held on the source: every public
function, class and method defined in `src/ternlat/*.py` is referenced by
name somewhere in `src/`, `scripts/` or `perfbench/`, outside its own body,
or `KEPT` names it with the reason it stays.

The check is syntactic.  A method is referenced by an `Attribute` read
or the last part of a dotted string (perfbench wraps its spans by such
strings, `"fieldscan.ingest_fields"`); a function or class also by a
`Name` read.  An import, an assignment or a parameter is none, so a method
whose name is elsewhere only a local variable has no reference.  Names are
matched by spelling, so a method counts as referenced when any attribute
of that name is read.
"""

import ast
from collections import Counter
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ternlat").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "scripts").glob("*.py")) + \
    sorted((ROOT / "perfbench").glob("*.py"))

KEPT = {
    "enumeration.elements_of_norm": "acceptance criterion 8 calls it",
    "quadlattice.lattice_predicates": "acceptance criterion 6 calls it",
    "quadlattice.contains_sublattice": "acceptance criterion 6 calls it",
    "polys.sturm_chain": "ROADMAP item 19 names it as the layer that "
                         "replaces `divmod_poly`",
}


def references(node) -> Tuple[Counter, Counter]:
    """How often each name is read inside node: as a `Name`, and as an
    `Attribute` or the last part of a dotted string."""
    names, attributes = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            attributes[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and \
                "." in n.value and all(p.isidentifier()
                                       for p in n.value.split(".")):
            attributes[n.value.rsplit(".", 1)[1]] += 1
    return names, attributes


def definitions(tree, module: str):
    """(dotted name, node, is_method) for each public function and class
    at the top of a module and each public method of such a class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                not node.name.startswith("_"):
            out.append((f"{module}.{node.name}", node, False))
            if isinstance(node, ast.ClassDef):
                out += [(f"{module}.{node.name}.{m.name}", m, True)
                        for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_")]
    return out


def unreferenced(package: dict, readers: dict):
    """Dotted names of the public definitions in `package` (module name ->
    source) that nothing in `readers` (file name -> source) references
    outside the definition's own body."""
    names, attributes = Counter(), Counter()
    for source in readers.values():
        n, a = references(ast.parse(source))
        names += n
        attributes += a

    def count(refs, node, is_method):
        n, a = refs
        return a[node.name] + (0 if is_method else n[node.name])

    out = []
    for module, source in package.items():
        for name, node, is_method in definitions(ast.parse(source), module):
            if count((names, attributes), node, is_method) <= \
                    count(references(node), node, is_method):
                out.append(name)
    return out


def test_every_public_name_has_a_reader_or_a_reason():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    readers = {str(p): p.read_text(encoding="utf-8") for p in READERS}
    assert sorted(unreferenced(package, readers)) == sorted(KEPT)


def test_guard_flags_an_unreferenced_public_function():
    module = ("import polys\n"
              "def used(x):\n"
              "    cells = x\n"
              "    return cells\n"
              "def spanned():\n"
              "    pass\n"
              "def unused(n):\n"
              "    return unused(n - 1) if n else used(0)\n"
              "def _private():\n"
              "    pass\n"
              "class C:\n"
              "    def method(self):\n"
              "        return C\n"
              "    def orphan(self):\n"
              "        return self.method()\n"
              "    def cells(self):\n"
              "        return self\n")
    reader = ("from m import unused\n"
              "SPANS = ('m.spanned',)\n")
    assert unreferenced({"m": module}, {"m": module, "r": reader}) == [
        "m.unused", "m.C", "m.C.orphan", "m.C.cells"]
