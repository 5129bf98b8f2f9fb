import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ternlat.cli import main, parse_element
from ternlat.errors import TernlatError
from ternlat.numberfield import sqrt2_context

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_element():
    ctx = sqrt2_context()
    assert parse_element(ctx, "6") == ctx.from_rational(6)
    assert parse_element(ctx, "3*(2+sqrt2)") == 3 * (2 + ctx.sqrt2)
    assert parse_element(ctx, "5+3*sqrt2") == 5 + 3 * ctx.sqrt2
    assert parse_element(ctx, "-sqrt2") == -ctx.sqrt2
    assert parse_element(ctx, "2-sqrt2") == 2 - ctx.sqrt2


@st.composite
def expressions(draw, depth=3):
    """(text, a, b, compound): a bound over ASCII integers and sqrt2 with
    +, -, *, unary minus, parentheses and spaces, together with its value
    a + b*sqrt2, computed alongside the text."""
    def sp():
        return draw(st.sampled_from(["", " ", "  ", "\t"]))

    def operand(t, compound):
        # a compound operand is always parenthesised, a leaf sometimes
        return f"({sp()}{t}{sp()})" if compound or draw(st.booleans()) else t

    kinds = ["int", "sqrt2"] + (["neg", "+", "-", "*"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        n = draw(st.integers(0, 10 ** 12))
        return str(n), n, 0, False
    if kind == "sqrt2":
        return "sqrt2", 0, 1, False
    t, a, b, compound = draw(expressions(depth - 1))
    if kind == "neg":
        return f"-{sp()}{operand(t, compound)}", -a, -b, True
    t2, a2, b2, compound2 = draw(expressions(depth - 1))
    text = f"{operand(t, compound)}{sp()}{kind}{sp()}{operand(t2, compound2)}"
    if kind == "+":
        return text, a + a2, b + b2, True
    if kind == "-":
        return text, a - a2, b - b2, True
    return text, a * a2 + 2 * b * b2, a * b2 + a2 * b, True


@settings(max_examples=300, deadline=None)
@given(expressions(), st.sampled_from(["", " ", "\t "]),
       st.sampled_from(["", " ", " \n"]))
def test_parse_element_matches_built_value(expr, lead, trail):
    ctx = sqrt2_context()
    text, a, b, _ = expr
    expected = ctx.from_rational(a) + ctx.from_rational(b) * ctx.sqrt2
    assert parse_element(ctx, lead + text + trail) == expected


@pytest.mark.parametrize("text", [
    "2sqrt2", "sqrt22", "+3", "2**3", "1/2", "1_0", "0x1", "3.0", "True",
    "07", "\u0663", "\u00b2", "(3", "3)", "", "x",
    "6 # six", "3 \\\n+ 4", "3\n+4", "\uff53\uff51\uff52\uff54\uff12",
    "-" * 5000 + "3",
], ids=lambda t: repr(t) if len(t) < 20 else f"{len(t)}-chars")
def test_parse_element_rejects(text):
    with pytest.raises(TernlatError):
        parse_element(sqrt2_context(), text)


def test_small_elements(capsys, fields_dir):
    code, out = run(capsys, "small-elements",
                    "--field", str(fields_dir / "qsqrt2.json"),
                    "--bound", "6")
    assert code == 0
    assert "# 11 elements" in out


def test_small_elements_report(capsys, fields_dir, tmp_path):
    out_path = tmp_path / "r.json"
    code, out = run(capsys, "small-elements",
                    "--field", str(fields_dir / "qsqrt2.json"),
                    "--bound", "3*(2+sqrt2)", "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert len(data["verdicts"]) == 5


def test_case_analysis_cli(capsys):
    code, out = run(capsys, "case-analysis", "--mode", "L1")
    assert code == 0
    assert "2+sqrt2" in out and "determinant formula verified: True" in out
    code, out = run(capsys, "case-analysis", "--mode", "two")
    assert code == 0
    assert "gamma^2*t = beta^2" in out and "gamma = t*beta^2" in out


# sha256 of the `case-analysis --mode two` report, taken as for the README
# reports: the `SymbolicBranch` records reach JSON through `_emit`
GOLDEN_TWO_REPORT = \
    "e911b9086be769346d89caebd4829f6787a2bfa0cbe32f95d02bef39eb769abe"


def test_case_analysis_two_report_is_unchanged(tmp_path):
    out_path = tmp_path / "two.json"
    assert main(["case-analysis", "--mode", "two",
                 "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert [v["beta24"] for v in report["verdicts"]] == [0, 1]
    report["metadata"].pop("elapsed_seconds", None)
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == GOLDEN_TWO_REPORT


def test_classify_ternary_cli(capsys, fields_dir):
    code, out = run(capsys, "classify-ternary",
                    "--field", str(fields_dir / "qsqrt2.json"))
    assert code == 0
    assert "L1" in out and "infeasible" in out


def test_overlattice_cli(capsys, fields_dir):
    code, out = run(capsys, "overlattice-test",
                    "--field", str(fields_dir / "qsqrt2.json"))
    assert code == 0
    assert "no proper classical free overlattice" in out


def test_cyclotomic_cli(capsys):
    code, out = run(capsys, "cyclotomic", "--k", "8")
    assert code == 0
    assert "[-2, 0, 1]" in out


@pytest.mark.parametrize("argv", [
    ["cyclotomic", "--k", "16", "--ceiling", "1"],
    ["verify-identities", "--ceiling", "0"],
], ids=["cyclotomic", "verify-identities"])
def test_commands_without_a_search_take_no_ceiling(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_subfield_cli(capsys, fields_dir):
    code, out = run(capsys, "subfield", "--k", "5",
                    "--field", str(fields_dir / "qsqrt2.json"))
    assert code == 0
    assert "not a subfield" in out


def test_dual_cli(capsys, fields_dir):
    code, out = run(capsys, "dual", "--field", str(fields_dir / "q.json"),
                    "--diag", "1;1;1", "--gamma", "7")
    assert code == 0
    assert "NOT represented" in out


def test_sum_of_squares_cli(capsys, fields_dir):
    code, out = run(capsys, "sum-of-squares",
                    "--field", str(fields_dir / "q.json"),
                    "--gamma", "7", "--n", "3")
    assert code == 0
    assert "NOT a sum of 3 squares" in out
    # the empty sum is printed as 0
    code, out = run(capsys, "sum-of-squares",
                    "--field", str(fields_dir / "qsqrt2.json"),
                    "--gamma", "0", "--n", "0")
    assert code == 0
    assert out.splitlines()[0] == "0 = 0"


def test_indecomposables_cli(capsys, fields_dir):
    code, out = run(capsys, "indecomposables",
                    "--field", str(fields_dir / "qsqrt2.json"),
                    "--trace-bound", "10")
    assert code == 0
    assert "lambda-square" in out


def test_scan_cli(capsys, fields_dir, tmp_path):
    out_path = tmp_path / "scan.json"
    code, out = run(capsys, "scan",
                    "--fields", str(fields_dir / "quartic_sqrt2.jsonl"),
                    "--max-disc", "3000", "--command", "small",
                    "--out", str(out_path))
    assert code == 0
    assert "exceptional for 3*lambda" in out
    data = json.loads(out_path.read_text())
    assert data["metadata"]["command"] == "small-condition"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["scan"])  # missing required --fields
    assert exc.value.code == 2


def test_bad_expression_is_item_error(capsys, fields_dir):
    code = main(["small-elements", "--field", str(fields_dir / "q.json"),
                 "--bound", "sqrt2"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["small-elements", "--field", "qsqrt2.json", "--bound", "0"],
    ["small-elements", "--field", "qsqrt2.json", "--bound", "-1"],
    ["dual", "--field", "q.json", "--diag", "1;1;0", "--gamma", "7"],
    ["indecomposables", "--field", "qsqrt2.json", "--trace-bound", "1"],
    ["classify-ternary", "--field", "q.json"],
    ["overlattice-test", "--field", "q.json"],
    ["small-elements", "--field", "quartic_sqrt2.jsonl#NOPE", "--bound", "1"],
    ["small-elements", "--field", "qsqrt2.json", "--bound", "4",
     "--ceiling", "0"],
    ["obstruct", "--field", "qsqrt2.json", "--pool", "-1"],
    ["obstruct", "--field", "qsqrt2.json", "--pool", "0"],
    ["scan", "--fields", "quartic_sqrt2.jsonl", "--command", "obstruct",
     "--max-disc", "60000", "--pool", "-1"],
    ["scan", "--fields", "quartic_sqrt2.jsonl", "--ceiling", "0"],
    ["scan", "--fields", "quartic_sqrt2.jsonl", "--command", "obstruct",
     "--max-disc", "60000", "--ceiling", "-3"],
    ["small-elements", "--field", "qsqrt2.json", "--bound", "\u00b2"],
    ["small-elements", "--field", "qsqrt2.json", "--bound", "1" * 5000],
    ["sum-of-squares", "--field", "qsqrt2.json", "--gamma", "3", "--n", "-1"],
], ids=["bound-zero", "bound-negative", "diag-zero", "trace-bound-low",
        "classify-no-sqrt2", "overlattice-no-sqrt2", "unknown-label",
        "ceiling-zero", "obstruct-pool-negative", "obstruct-pool-zero",
        "scan-pool-negative", "scan-ceiling-zero", "scan-ceiling-negative",
        "bound-superscript-two", "bound-5000-digits", "sos-n-negative"])
def test_bad_input_is_an_error_line(capsys, fields_dir, argv):
    i = argv.index("--fields" if "--fields" in argv else "--field") + 1
    argv = argv[:i] + [str(fields_dir / argv[i])] + argv[i + 1:]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: ") and "Traceback" not in err
    # a rejected input prints no verdict
    assert "certificate" not in captured.out


@pytest.mark.parametrize("change", [
    {"sqrt2": [0, 1, 0]},
    {"basis": [["1", "0"], ["0", "1/0"]]},
    {"disc": 9},
    {"h": 0},
    {"h": -1, "h_plus": 2},
    [1, 2],
    "K",
    b'{"label": "Q(sqrt2)",',
    b'{"label": "\xff"}',
], ids=["tag-length", "zero-denominator", "disc-mismatch", "h-zero",
        "h-negative", "list", "string", "invalid-json", "not-utf-8"])
def test_malformed_field_file_is_an_error_line(capsys, fields_dir, tmp_path,
                                               change):
    # a change to the record, another JSON value or raw bytes, read as a
    # single-field file and as the one line of a table
    obj = json.loads((fields_dir / "qsqrt2.json").read_text())
    if isinstance(change, dict):
        change = {**obj, **change}
    text = change if isinstance(change, bytes) else json.dumps(change).encode()
    path, table = tmp_path / "field.json", tmp_path / "fields.jsonl"
    path.write_bytes(text)
    table.write_bytes(text + b"\n")
    for argv in (["small-elements", "--field", str(path), "--bound", "3"],
                 ["scan", "--fields", str(table)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        # a record that parses but does not load is a scan's error verdict
        assert err.startswith("error: ") or \
            argv[0] == "scan" and out.startswith("Q(sqrt2)") and \
            " error\n" in out
        assert "Traceback" not in err


def test_scan_error_verdicts_exit_1(capsys, fields_dir):
    # a ceiling of 1 is below every box: the scan completes with seven
    # error verdicts and exits 1
    code, out = run(capsys, "scan",
                    "--fields", str(fields_dir / "quartic_sqrt2.jsonl"),
                    "--ceiling", "1")
    assert code == 1
    assert out.count(" error\n") == 7


def _readme_invocations():
    """The `ternlat ...` commands of the README's CLI block, as argv lists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n", 1)[1].split("```\n")[1]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(c, comments=True)[1:] for c in commands
            if c.startswith("ternlat ")]


# sha256 of each README invocation's report, in README order, as
# json.dumps(report, sort_keys=True) without the timing fields `seconds`
# and `elapsed_seconds`; pinned before the handlers shared one `_emit`,
# except the obstruct scan's (index 11), re-pinned when its 18 verdicts
# that the class numbers decided became certificates, and the small scan's
# (index 10), re-pinned when its boxes reported the root width they were
# certified at
GOLDEN_README_REPORTS = [
    "24976165b20989b6981c43ddcf7b8230aa97307d6b9507655d856bf928d65620",
    "3a4eeda42dae97d78f2f8d571ae649fdd487791d50c70a1d1853e227110e0e2e",
    "c6ddec34d9b28b0b272ea1d1d635a0a9bef4742da16af8177febcd0f8bafbbff",
    "a87056dcb33c1330b47b9403c98a8477d7ee0b6e1b1d6181c03eb2c504d6dafc",
    "bbf6720d14add29b9f8727ba2d9a1249f56d0c9e9000bc0e25287ab32b1ad0a5",
    "f2a1f5c716250b4c0073bdae1333828081c430cfcfc999f3dcb057a639b69753",
    "9fd6a3e5a64d50cfe35a5dcf8d6c9b03d96583a6ecbb1ad9e03029f4576f2ef4",
    "c20e2639934e242efc06b44112a0dcc422048a1b32712f697d558ab2a199e2e8",
    "0d4614953ed8a32a2ec692fab4d3e6048c4183e4f95df3bfab35366a51b4f15f",
    "aa8e94dd5aa9ede953bb89be1a0216f2542f68d7102deb4a2d2fa867b1ccbf40",
    "8753632ac527e58730a19cb6c2e3747b78a12d9ce18273e7ccac02ffeb6811c2",
    "9718584d2108783583dac45027edfe77091de2e86d33df202cd58b723889d870",
    "0f77b925c4bc2baadbde0a6e9972d1c77b321f4a492d98915bade3036fef071e",
    "f5e2c5a9b9bf5141fc331a079cbd5ace1856fa99c8ee22e9e096a981a6f0a1be",
]


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    invocations = _readme_invocations()
    assert len(invocations) == 14
    for n, argv in enumerate(invocations):
        if "--out" in argv:
            i = argv.index("--out")
            argv = argv[:i] + argv[i + 2:]
        out_path = tmp_path / f"{n}.json"
        assert main(argv + ["--out", str(out_path)]) == 0, argv
        report = json.loads(out_path.read_text())
        assert "verdicts" in report, argv
        report["metadata"].pop("elapsed_seconds", None)
        for v in report["verdicts"]:
            v.pop("seconds", None)
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
        assert digest.hexdigest() == GOLDEN_README_REPORTS[n], argv


def test_headline_script_prints_the_verdicts():
    # the end-to-end script: both small-condition scans' exceptional sets
    # and the K51200 obstruction certificate
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_headline_runs.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert "  unit filter on : 3*(2+sqrt2) -> ['K2048', 'K2624']; 6 -> " \
        "['K10816', 'K1600', 'K2048', 'K2624']" in lines
    assert "  unit filter off: 3*(2+sqrt2) -> ['K18432', 'K2048', 'K2624', " \
        "'K7168']; 6 -> ['K10816', 'K14336', 'K1600', 'K2048', 'K2304', " \
        "'K2624', 'K7168']" in lines
    assert any(line.startswith("  quadruple (") and line.endswith(
        " with norms [1, 4, 14, 14]; valid = True") for line in lines)
