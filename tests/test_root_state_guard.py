"""The root state of a field context, held on the source: the roots and all
that is made from them live on one `numberfield._RootState`, which only
`FieldContext.__init__` and `FieldContext.refine_roots` install, and no
module outside `numberfield` touches.

The check is syntactic.  It lists every use of an attribute `_state`, and
every `"_state"` string (a `getattr` or `setattr` by name), and maps each to
the function that holds it.  A state must not refer back to its context,
which is checked on a live state holding everything it makes.  The roots
are integer cells: refining them, evaluating the basis on them and the
fixed-point signs build no `Interval`, which only `roots()` and
`embeddings()` make.
"""

import ast
import gc
from fractions import Fraction
from pathlib import Path

from ternlat import polys
from ternlat.cyclotomic import alpha_beta_verify
from ternlat.fieldscan import FieldTable, scan_small_condition
from ternlat.intervals import Interval
from ternlat.numberfield import Element, FieldContext, load_field

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ternlat").glob("*.py")) + \
    sorted((ROOT / "scripts").glob("*.py"))

# the only functions that may install a root state
INSTALLERS = {"numberfield.FieldContext.__init__",
              "numberfield.FieldContext.refine_roots"}


def state_uses(source: str, module: str):
    """(scope, line, kind) for each use of `_state` in source, scope the
    dotted name of the enclosing function or the module's own name, kind
    "install" for an assignment or deletion of the attribute, "read" for
    any other use of it, and "by name" for the string."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "_state":
                out.append((scope, child.lineno, "read"
                            if isinstance(child.ctx, ast.Load) else "install"))
            elif isinstance(child, ast.Constant) and child.value == "_state":
                out.append((scope, child.lineno, "by name"))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), module)
    return out


def test_only_the_context_installs_its_root_state():
    uses = []
    for path in SOURCES:
        uses += state_uses(path.read_text(encoding="utf-8"), path.stem)
    outside = [u for u in uses if not u[0].startswith("numberfield.")
               or u[2] == "by name"]
    assert not outside, outside
    installs = {u[0] for u in uses if u[2] == "install"}
    # each installer still installs a state: no stale entry
    assert installs == INSTALLERS, installs


def test_state_guard_sees_each_kind_of_use():
    source = ("class C:\n"
              "    def __init__(self):\n"
              "        self._state = 1\n"
              "    def f(self, c):\n"
              "        c._state.table = None\n"
              "        del self._state\n"
              "        setattr(c, '_state', 2)\n"
              "x = C()._state\n")
    assert state_uses(source, "m") == [
        ("m.C.__init__", 3, "install"),
        ("m.C.f", 5, "read"),
        ("m.C.f", 6, "install"),
        ("m.C.f", 7, "by name"),
        ("m", 8, "read"),
    ]


def _reachable(obj):
    """Every object reachable from obj by `gc.get_referents`, classes and
    their members aside."""
    seen, todo, out = set(), [obj], []
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, type):
            continue
        seen.add(id(o))
        out.append(o)
        todo += gc.get_referents(o)
    return out


def test_a_root_state_holds_no_reference_to_its_context(table):
    # a state is replaced whole by `refine_roots`; one that referred to its
    # context, or to an element of it, would add a reference cycle
    ctx = load_field(table.by_label("K7168"))
    states = []
    for make in (ctx._fast_signs, ctx.fixed_point_bounds):
        make(ctx.one)                   # the 1/256 table, then the full one
        ctx.embedding_inverse()
        states.append(ctx._state)
    ctx.compare(ctx.one, ctx.zero)      # packs the full table
    coarse, full = states
    assert ctx._state is full
    assert coarse is not full and not coarse.fine and full.fine
    assert coarse.table is not None and full.pack is not None
    for state in states:
        assert not any(isinstance(o, (FieldContext, Element))
                       for o in _reachable(state))


def test_the_root_path_builds_no_interval(table, monkeypatch):
    # a cyclotomic sweep step (its comparisons are lone ones, at root width
    # 1/256) and a scan query (the full table at 2^-32, boxes, pruning)
    made, inside, calls = [], [0], []
    new = Interval.__new__

    def counted(cls, lo, hi):
        iv = new(cls, lo, hi)
        if inside[0]:
            made.append(iv)
        return iv

    monkeypatch.setattr(Interval, "__new__", counted)
    for name in ("refine_roots", "basis_embeddings", "_fast_signs"):
        def wrapped(ctx, *args, f=getattr(FieldContext, name), name=name):
            calls.append(name)
            inside[0] += 1
            try:
                return f(ctx, *args)
            finally:
                inside[0] -= 1
        monkeypatch.setattr(FieldContext, name, wrapped)
    alpha_beta_verify(29)
    assert {"refine_roots", "_fast_signs"} <= set(calls) and made == []
    calls.clear()
    rec = table.by_label("K2048")
    scan_small_condition(FieldTable((rec,)), 20000, unit_filter=False)
    assert {"refine_roots", "basis_embeddings"} <= set(calls) and made == []
    # the public roots are `Interval`s, on the cells' ends
    ctx = load_field(rec)
    ctx.refine_roots(Fraction(1, 1 << 32))
    assert ctx.roots() == [Interval(Fraction(c.a, c.b), Fraction(c.e, c.b))
                           for c in ctx._state.cells]
    assert all(isinstance(c, polys.RootCell) for c in ctx._state.cells)
