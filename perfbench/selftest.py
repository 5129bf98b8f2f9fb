"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest -q perfbench/selftest.py

They run shortened workloads (a few ops, one round) and take about
half a minute.
"""

import argparse
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import ANCHOR, Cyclo, Enum, Scan  # noqa: E402

# Layer -> the workload that must exercise it (README.md, "Layer map").
LAYER_MAP = {
    "scan": [
        "linalg.interval_inverse", "numberfield.FieldContext.refine_roots",
        "polys.refine_root", "enumeration.solution_box",
        "enumeration.sqrt2_span_witnesses",
        "obstruction.obstruction_search", "obstruction.candidate_pool",
        "obstruction.dual_nonrepresentation",
        "obstruction.orthogonality_forcing",
        "quadlattice.offdiag_candidates",
        "enumeration.enumerate_representations",
        "fieldscan.scan_small_condition", "fieldscan.scan_obstructions",
        "fieldscan.ingest_fields",
    ],
    "enum": [
        "numberfield.FieldContext.compare",
        "enumeration.enumerate_dominated",
    ],
    "cyclo": [
        "numberfield.FieldContext.basis_embeddings", "polys.eval_interval",
        "polys.divmod_poly", "polys.isolate_real_roots",
        "numberfield.load_field", "cyclotomic.cyclo_info",
        "cyclotomic.alpha_beta_verify", "linalg.det",
    ],
}
COUNTERS = {"enum": ["enumeration.solutions",
                     "enumeration.candidates_verified"]}


@pytest.fixture(scope="module")
def ternlat():
    return run.load_package()


def shortened(cls, pick):
    """A workload factory keeping only the ops for which `pick` holds."""
    def make(ternlat, root, seed):
        w = cls(ternlat, root, seed)
        w.ops = [op for op in w.ops if pick(op)]
        return w
    return make


def traced(ternlat, make):
    args = argparse.Namespace(seed=0, seconds=0)
    return run.run_traced(args, ternlat, make)


SHORT = {
    "scan": shortened(Scan, lambda op: op[0].label in ("K2048", "K51200")),
    "enum": shortened(Enum, lambda op: op[0].label == ANCHOR[0]
                      and op[2][1:] == (0, 0, 0)),
    "cyclo": shortened(Cyclo, lambda k: k == 7),
}


def test_benchmark_json_names_match_the_run():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == \
        [name for name, _ in run.END_TO_END]
    layer = [f"{s}.{k}" for s in run.SPANS
             for k in ("calls", "total_s", "self_s")]
    layer += [name for name, _, _ in run.DERIVED]
    assert [m["name"] for m in spec["per_layer"]] == layer
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(LAYER_MAP))
def test_every_mapped_layer_records_calls(ternlat, name):
    _, m, metrics, _, _ = traced(ternlat, SHORT[name])
    assert m.failed == 0, m.errors
    empty = [layer for layer in LAYER_MAP[name]
             if metrics[f"{layer}.calls"]["value"] == 0]
    empty += [c for c in COUNTERS.get(name, [])
              if metrics[c]["value"] == 0]
    assert not empty


def test_traced_counts_repeat_and_match_the_baseline(ternlat):
    small_fields = shortened(Scan, lambda op: not op[1])
    first = traced(ternlat, small_fields)[2]
    second = traced(ternlat, small_fields)[2]
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["fieldscan.scan_small_condition.calls"]["value"] == 18
    assert first["linalg.interval_inverse.calls"]["value"] == 144

    anchor = traced(ternlat, SHORT["enum"])[2]
    assert anchor["enumeration.solutions"]["value"] == 11305
    assert anchor["enumeration.candidates_verified"]["value"] == 11305
    assert anchor["numberfield.FieldContext.compare.calls"]["value"] == 11306
    assert anchor["linalg.charpoly.calls"]["value"] == 0
    assert anchor["numberfield.compare.fast_path_ratio"]["value"] == 1


def test_wrong_expected_value_fails_the_run(ternlat, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "EXCEPTIONAL_3LAMBDA",
                        frozenset({"K2624", "K7168", "K18432"}))
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    assert run.main(["--workload", "scan", "--seed", "0", "--seconds", "0",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 19


def test_wrong_solution_count_fails_the_op(ternlat):
    w = SHORT["enum"](ternlat, run.ROOT, 0)
    w.expected[w.key(w.ops[0])] = ANCHOR[3] - 1
    m, _ = run.measure(w, 1)
    assert m.failed == 1 and "expected 11304" in m.errors[0]


def test_exact_check_agrees_with_the_package(ternlat):
    w = SHORT["enum"](ternlat, run.ROOT, 0)
    ctx = w.contexts[ANCHOR[0]]
    arith = workloads.ExactArithmetic(ctx.mult_table)
    rng = random.Random(5)
    verdicts = set()
    for _ in range(300):
        x = [rng.randint(-6, 6) for _ in range(ctx.degree)]
        ok = arith.totally_nonnegative(x)
        assert ok == ctx.element(x).is_totally_nonnegative()
        verdicts.add(ok)
        x2 = ctx.element(x) * ctx.element(x)
        assert tuple(arith.mul(x, x)) == x2.coords
    assert verdicts == {True, False}


def test_tail_is_the_mean_of_the_ten_slowest():
    assert run.tail(range(100)) == (94.5, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_times_are_scaled_to_the_reference_speed():
    slow = 2 * run.CALIBRATION_S
    assert run.at_reference_speed(1.0, slow, slow) == 0.5
    assert run.at_reference_speed(1.0, run.CALIBRATION_S,
                                  run.CALIBRATION_S) == 1.0
