"""The ternlat benchmark: one workload per run, measured from outside the
package.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Each run is a closed loop with one caller and no worker threads: an op
starts only after the previous one returned.  Ops repeat in rounds (one
pass over the workload's seed-made ops).  The number of rounds follows
from `--seconds` and the workload's nominal round time, so that it is the
same on every commit, and it is at least MIN_ROUNDS.  Every output is
checked outside the timed region.  Times are reported at a reference CPU
speed: each op is scaled by a fixed calibration loop timed around it.

With `--trace 0` the run reports the end-to-end metrics.  With `--trace 1`
it wraps the package's layers in spans (see spans.py), reports calls, total
and self time per layer per round, then repeats the same rounds untraced
and reports the difference as the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
A run stamp and the full detail go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("cyclotomic", "enumeration", "fieldscan", "intervals", "linalg",
           "numberfield", "obstruction", "polys", "quadlattice")
SETUP_REPEATS = 7
TAIL_BEYOND = 10
MIN_ROUNDS = 3
# On a shared host the CPU's speed swings by up to 2x in phases of
# minutes, for all pure-Python code alike.  A fixed piece of the package's
# own kind of arithmetic is timed right before and right after every op and
# every set-up; each time is reported at one reference speed, at which the
# calibration takes CALIBRATION_S.
CALIBRATION_LOOPS = 600
CALIBRATION_S = 0.005
# Set-up runs are few, so each is calibrated by the median of several.
SETUP_CALIBRATIONS = 5

# Layers wrapped in spans in the traced run.  `intervals` is measured
# through its callers: its public surface is arithmetic dunders, and
# wrapping those would swamp the run.
SPANS = (
    "fieldscan.ingest_fields",
    "fieldscan.scan_small_condition",
    "fieldscan.scan_obstructions",
    "enumeration.solution_box",
    "enumeration.sqrt2_span_witnesses",
    "enumeration.enumerate_dominated",
    "enumeration.enumerate_representations",
    "linalg.interval_inverse",
    "linalg.charpoly",
    "linalg.det",
    "numberfield.load_field",
    "numberfield.FieldContext.refine_roots",
    "numberfield.FieldContext.basis_embeddings",
    "numberfield.FieldContext.compare",
    "polys.refine_root",
    "polys.eval_interval",
    "polys.divmod_poly",
    "polys.isolate_real_roots",
    "cyclotomic.cyclo_info",
    "cyclotomic.alpha_beta_verify",
    "obstruction.obstruction_search",
    "obstruction.candidate_pool",
    "obstruction.dual_nonrepresentation",
    "obstruction.orthogonality_forcing",
    "quadlattice.offdiag_candidates",
)
# The pruned box iteration is private; only its yielded candidates are
# counted, and its time stays in enumerate_dominated's self time.
YIELD_COUNTERS = {"enumeration._iter_box": "enumeration.candidates_verified"}
DERIVED = (
    ("enumeration.solutions", "count", "higher"),
    ("enumeration.candidates_verified", "count", "lower"),
    ("enumeration.accept_ratio", "ratio", "higher"),
    ("enumeration.box_too_large", "count", "lower"),
    ("numberfield.compare.fast_path_ratio", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("solutions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def _count_solutions(rec, result):
    rec.counts["enumeration.solutions"] = \
        rec.counts.get("enumeration.solutions", 0) + len(result)


SPAN_HOOKS = {"enumeration.enumerate_dominated": _count_solutions}


def load_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "ternlat" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ternlat package under {src}")
    sys.path.insert(0, str(src))
    return argparse.Namespace(**{
        name: importlib.import_module(f"ternlat.{name}") for name in MODULES})


# -- measuring ----------------------------------------------------------------

def calibrate():
    """Wall time of a fixed loop of Fraction and integer arithmetic."""
    t = perf_counter()
    acc = Fraction(0)
    for i in range(1, CALIBRATION_LOOPS):
        q = Fraction(i * 7919 % 1009, i % 97 + 1)
        acc = (acc + q * q) % 1013
    return perf_counter() - t


def at_reference_speed(seconds, before, after):
    """`seconds` of wall time scaled by the calibrations around it."""
    return seconds * CALIBRATION_S / ((before + after) / 2)


class Measurement:
    def __init__(self, n_ops):
        self.times = [[] for _ in range(n_ops)]   # per op, passed runs (s)
        self.wall = [[] for _ in range(n_ops)]    # the same, unscaled (s)
        self.timed_s = 0.0
        self.solutions = 0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.errors = []


def _run_op(workload, i, m, recorder=None):
    op = workload.ops[i]
    m.attempted += 1
    # Each op starts from a collected heap, as in a fresh CLI process, so
    # its garbage-collection pauses do not depend on the ops before it.
    gc.collect()
    before = calibrate()
    if recorder is not None:
        recorder.enabled = True
    t = perf_counter()
    try:
        out, problem = workload.run(op), None
    except Exception as exc:   # an op that raised counts as failed
        out, problem = None, f"{type(exc).__name__}: {exc}"
    dt = perf_counter() - t
    if recorder is not None:
        recorder.enabled = False
    after = calibrate()
    m.timed_s += dt
    if problem is None:
        problem = workload.check(op, out)
    if problem is None:
        m.times[i].append(at_reference_speed(dt, before, after))
        m.wall[i].append(dt)
        m.solutions += workload.solutions(out)
    else:
        m.failed += 1
        m.errors.append(f"{workload.label(op)}: {problem}")


def measure(workload, rounds, recorder=None):
    """Run `rounds` passes over the workload's ops, timing each op alone.

    With a recorder each op runs twice, untraced and then traced, so that
    the tracing overhead is measured on the same ops at the same time.
    Returns the untraced and the traced measurement.
    """
    n = len(workload.ops)
    plain = Measurement(n)
    traced = Measurement(n) if recorder is not None else None
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for r in range(rounds):
            # Rounds alternate between the CPUs the process may use.  On a
            # shared host each CPU slows down on its own, so an op's median
            # time then draws on all of them; each op and its calibrations
            # run on the same CPU.
            os.sched_setaffinity(0, {cpus[r % len(cpus)]})
            for i in range(n):
                _run_op(workload, i, plain)
                if recorder is not None:
                    _run_op(workload, i, traced, recorder)
            plain.rounds += 1
    finally:
        os.sched_setaffinity(0, cpus)
    finish = getattr(workload, "finish", None)
    problem = finish() if finish else None
    if problem is not None:
        plain.errors.append(problem)
    return plain, traced


def rounds_for(workload, seconds, cost=1):
    """Rounds that take about `seconds` at the workload's nominal round
    time; `cost` is the work of one round relative to an untraced one.
    Untraced runs make at least MIN_ROUNDS, so each op's time is a median
    of several tries."""
    return max(MIN_ROUNDS if cost == 1 else 1,
               round(seconds / (workload.round_seconds * cost)))


def setup_seconds(args):
    """Median time, at the reference speed, of fresh processes that import
    the package, ingest the field table and make the workload's inputs,
    then exit.  Each runs on one CPU, calibrated right before and after,
    after one untimed run that warms the file cache.  Returns the median
    and the scaled and unscaled times."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    def calibration():
        return statistics.median(calibrate()
                                 for _ in range(SETUP_CALIBRATIONS))

    cpus = sorted(os.sched_getaffinity(0))
    times, wall = [], []
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    try:
        for r in range(SETUP_REPEATS):
            os.sched_setaffinity(0, {cpus[r % len(cpus)]})
            before = calibration()
            t = perf_counter()
            # No timeout: with one, the wait polls and rounds up to 50 ms.
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            dt = perf_counter() - t
            times.append(at_reference_speed(dt, before, calibration()))
            wall.append(dt)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times), times, wall


# -- reporting ------------------------------------------------------------------

def git_revision():
    """The checkout's commit, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "git_revision": git_revision(),
            "nproc": os.cpu_count()}


def tail(samples):
    """The mean of the TAIL_BEYOND largest `samples`, and the percentile
    they lie beyond: the highest with TAIL_BEYOND samples beyond it.  With
    too few samples for that percentile to lie above the median, the
    largest sample (p100)."""
    ordered = sorted(samples)
    if len(ordered) <= 2 * TAIL_BEYOND:
        return (ordered[-1] if ordered else 0.0), 100.0
    return (statistics.fmean(ordered[-TAIL_BEYOND:]),
            100 * (len(ordered) - TAIL_BEYOND) / len(ordered))


def end_to_end(m, setup_s):
    """Times are at the reference speed.  Each op's typical time is its
    median over the run's rounds; throughput is that of one round at those
    times, and p50 is their median.  The tail is taken over every single
    execution."""
    typical = [statistics.median(t) for t in m.times if t]
    executions = [t for times in m.times for t in times]
    round_s = sum(typical)
    tail_s, tail_pct = tail(executions)
    values = {
        "setup_s": setup_s,
        "ops_per_s": _ratio(len(typical), round_s),
        "latency_p50_s": statistics.median(typical) if typical else 0.0,
        "latency_tail_s": tail_s,
        "solutions_per_s": _ratio(m.solutions / m.rounds, round_s),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "latency_p50_s": f"median of {len(typical)} ops, each its median "
                         f"of {m.rounds} rounds",
        "latency_tail_s": f"mean beyond p{tail_pct:.1f} of "
                          f"{len(executions)} op executions",
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}, notes


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(setup, ops, rounds, traced, plain):
    """Per-round layer metrics: set-up spans count once, op spans are
    divided by the number of rounds, which all did identical work."""
    def per_round(value_setup, value_ops):
        value = value_setup + value_ops / rounds
        return int(value) if float(value).is_integer() and \
            isinstance(value_setup, int) else value

    metrics = {}
    for name in SPANS:
        s = setup["stats"].get(name, [0, 0.0, 0.0])
        o = ops["stats"].get(name, [0, 0.0, 0.0])
        for i, (suffix, unit) in enumerate(
                (("calls", "count"), ("total_s", "s"), ("self_s", "s"))):
            metrics[f"{name}.{suffix}"] = {"value": per_round(s[i], o[i]),
                                           "unit": unit}

    def count(key):
        return per_round(setup["counts"].get(key, 0), ops["counts"].get(key, 0))

    def edge_calls(caller, callee):
        return per_round(setup["edges"].get((caller, callee), [0])[0],
                         ops["edges"].get((caller, callee), [0])[0])

    solutions = count("enumeration.solutions")
    candidates = count("enumeration.candidates_verified")
    compares = metrics["numberfield.FieldContext.compare.calls"]["value"]
    fallbacks = edge_calls("numberfield.FieldContext.compare",
                           "linalg.charpoly")
    overhead = (traced.timed_s - plain.timed_s) / rounds
    values = {
        "enumeration.solutions": solutions,
        "enumeration.candidates_verified": candidates,
        "enumeration.accept_ratio": _ratio(solutions, candidates),
        "enumeration.box_too_large": per_round(
            setup["raised"].get("BoxTooLarge", 0),
            ops["raised"].get("BoxTooLarge", 0)),
        "numberfield.compare.fast_path_ratio":
            1 - _ratio(fallbacks, compares) if compares else 0.0,
        "trace.overhead_s": overhead,
        "trace.overhead_frac": _ratio(overhead * rounds, plain.timed_s),
    }
    for name, unit, _ in DERIVED:
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def write_results(args, payload):
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _print_metrics(metrics, notes):
    for name, m in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}{note}")


# -- main -------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def run_untraced(args, ternlat, make):
    setup_s, setup_times, setup_wall = setup_seconds(args)
    workload = make(ternlat, ROOT, args.seed)
    start = perf_counter()
    m, _ = measure(workload, rounds_for(workload, args.seconds))
    wall_s = perf_counter() - start
    metrics, notes = end_to_end(m, setup_s)
    detail = {"setup_runs_s": setup_times, "setup_runs_wall_s": setup_wall,
              "wall_s": wall_s,
              "op_seconds": {workload.label(op): t
                             for op, t in zip(workload.ops, m.times)},
              "op_wall_seconds": {workload.label(op): t
                                  for op, t in zip(workload.ops, m.wall)}}
    return workload, m, metrics, notes, detail


def run_traced(args, ternlat, make):
    """Set up and run `make(ternlat, ROOT, args.seed)` with every layer in
    SPANS wrapped, for about `args.seconds`."""
    recorder = Recorder()
    namespaces = [module for name, module in sys.modules.items()
                  if name == "ternlat" or name.startswith("ternlat.")]
    recorder.install(vars(ternlat), namespaces,
                     {name: SPAN_HOOKS.get(name) for name in SPANS},
                     YIELD_COUNTERS)
    try:
        recorder.enabled = True
        workload = make(ternlat, ROOT, args.seed)
        recorder.enabled = False
        setup = recorder.take()
        plain, traced = measure(workload,
                                rounds_for(workload, args.seconds, cost=3),
                                recorder)
        ops = recorder.take()
    finally:
        recorder.uninstall()
    rounds = plain.rounds
    metrics = per_layer(setup, ops, rounds, traced, plain)
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.errors += traced.errors
    detail = {"edges_per_round": sorted(
        [caller or "<op>", callee, calls / rounds, total / rounds]
        for (caller, callee), (calls, total) in ops["edges"].items()),
        "untraced_timed_s": plain.timed_s, "traced_timed_s": traced.timed_s}
    notes = {"trace.overhead_s": f"per round, {rounds} rounds"}
    return workload, plain, metrics, notes, detail


def main(argv=None):
    args = parse_args(argv)
    try:
        ternlat = load_package()
        make = WORKLOADS[args.workload]
        if args.setup_only:
            make(ternlat, ROOT, args.seed)
            return 0
        run = run_traced if args.trace else run_untraced
        workload, m, metrics, notes, detail = run(args, ternlat, make)
    except Exception:    # no result line when the benchmark cannot run
        traceback.print_exc()
        return 2
    info = stamp(args)
    print(f"# ternlat benchmark: {' '.join(f'{k}={v}' for k, v in info.items())}")
    print(f"# closed loop, 1 caller; {m.rounds} rounds of {len(workload.ops)} "
          f"ops; {m.attempted} attempted, {m.failed} failed")
    _print_metrics(metrics, notes)
    print(f"{'failed_frac':48s} {m.failed / m.attempted:>14.6g} ratio   "
          f"({m.failed} of {m.attempted})")
    for err in m.errors[:10]:
        print(f"# FAILED {err}")
    correct = m.failed == 0 and not m.errors
    path = write_results(args, {"stamp": info, "rounds": m.rounds,
                                "ops_per_round": len(workload.ops),
                                "metrics": metrics, "notes": notes,
                                "errors": m.errors, "detail": detail})
    print(f"# details: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
