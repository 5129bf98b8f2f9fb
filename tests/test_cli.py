import json
import shlex
from pathlib import Path

import pytest

from ternlat.cli import main, parse_element
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
    ["obstruct", "--field", "qsqrt3.json"],
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
], ids=["bound-zero", "bound-negative", "diag-zero", "trace-bound-low",
        "classify-no-sqrt2", "overlattice-no-sqrt2", "obstruct-narrow",
        "unknown-label", "ceiling-zero", "obstruct-pool-negative",
        "obstruct-pool-zero", "scan-pool-negative", "scan-ceiling-zero",
        "scan-ceiling-negative"])
def test_bad_input_is_an_error_line(capsys, fields_dir, argv):
    i = argv.index("--fields" if "--fields" in argv else "--field") + 1
    argv = argv[:i] + [str(fields_dir / argv[i])] + argv[i + 1:]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("error: ") and "Traceback" not in err
    # a rejected input prints no verdict
    assert "certificate" not in captured.out


def _readme_invocations():
    """The `ternlat ...` commands of the README's CLI block, as argv lists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI\n", 1)[1].split("```\n")[1]
    commands = block.replace("\\\n", " ").splitlines()
    return [shlex.split(c, comments=True)[1:] for c in commands
            if c.startswith("ternlat ")]


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
        assert "verdicts" in json.loads(out_path.read_text()), argv
