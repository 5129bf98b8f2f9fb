"""A cold start generates no code: a fresh interpreter that imports every
`ternlat` module, `cli` and `orders` included, loads neither `dataclasses`
nor `inspect` (which `dataclasses` imports, with `ast`, `dis` and
`tokenize`).  The package's records are `NamedTuple`s.  Nor does the
package load `orders` for modules that do not ask for it: `sqrt2_context`
imports the field constructor when it is called."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
UNLOADED = ("dataclasses", "inspect")


def loaded_by(modules, names=UNLOADED):
    """The names of `names` in `sys.modules` after a fresh, isolated
    interpreter imports `modules` from this checkout's src/."""
    code = (f"import importlib, sys\nsys.path.insert(0, {str(SRC)!r})\n"
            f"for m in {modules!r}:\n    importlib.import_module(m)\n"
            f"print(*(n for n in {names!r} if n in sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-B", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_cold_start_loads_no_code_generator():
    modules = ["ternlat"] + [f"ternlat.{p.stem}" for p in
                             sorted((SRC / "ternlat").glob("*.py"))
                             if p.stem != "__init__"]
    assert {"ternlat.cli", "ternlat.orders"} <= set(modules)
    assert loaded_by(modules) == []


def test_cold_start_check_can_fail():
    assert loaded_by(["dataclasses"]) == list(UNLOADED)


def test_the_other_modules_load_no_orders():
    modules = ["ternlat"] + [f"ternlat.{p.stem}" for p in
                             sorted((SRC / "ternlat").glob("*.py"))
                             if p.stem not in ("__init__", "orders")]
    assert loaded_by(modules, ("ternlat.orders",)) == []
    assert loaded_by(["ternlat.orders"], ("ternlat.orders",)) == \
        ["ternlat.orders"]
