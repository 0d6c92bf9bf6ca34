"""Benchmark of ``sobolab sweep``: the time from a sweep config to its verdict.

One workload per process; the last line of standard output is the result::

    python3 bench/run.py --workload norm_d3 --seed 7 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay.  Every end-to-end metric of every workload, each
workload in a fresh process::

    python3 bench/run.py --all --seed 7

``--smoke`` shrinks every sweep for a quick check of the harness itself, and
``--record SEEDS`` rewrites the reference rows.  See ``bench/README.md``.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy loads (it loads with sobolab, inside the functions
# below): the OpenBLAS default oversubscribes the sweep's worker threads and
# changes the bits of the kernel solve.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("norm_d3", "risk_kernel_d3", "gamma_d2_tilted", "morrey_d1")
DEFAULT_SEED = 0xBE7C4
THREADS = os.cpu_count() or 1     # the `sobolab sweep` default
NEEDS_MODULI = ("norm_vs_n", "risk_vs_gamma")
SETUP_BATCH_SECONDS = 0.05        # set-ups repeated before each sweep
MIN_ROUNDS = 3                    # rounds of set-up batch plus sweep
ROW_REL_TOL = 1e-9                # relative, on value and stderr
SMOKE = {
    "norm_vs_n": {"n_grid": (64, 128, 256, 512)},
    "risk_vs_n": {"n_grid": (32, 64, 128, 256), "mc_samples": 2000},
    "risk_vs_gamma": {"n_grid": (32, 64, 128, 256), "trials": 5,
                      "mc_samples": 5000},
    "morrey": {"trials": 50},
}
LAYER_SPANS = (
    "geometry.check_packing", "geometry.nn_radii", "model.sample",
    "interpolant.build", "interpolant.sobolev_norm",
    "interpolant.min_norm_upper_bound", "interpolant.gamma_report",
    "interpolant.evaluate", "risk.excess_risk_mc",
    "rkhs.min_norm_interpolant", "rkhs.predict",
)


class UsageError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    """Import ``sobolab`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sobolab
    except ImportError as exc:
        raise UsageError(f"cannot import sobolab from {src}: {exc}") from None
    if src.resolve() not in Path(sobolab.__file__).resolve().parents:
        raise UsageError(f"sobolab was imported from {sobolab.__file__}, "
                         f"not from {src}")


def environment():
    import numpy
    import scipy

    def blas(module):
        deps = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{deps['name']} {deps['version']}"

    return {
        "nproc": os.cpu_count(), "sweep_threads": THREADS,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "omp_threads": int(os.environ["OMP_NUM_THREADS"]),
        "numpy": numpy.__version__, "numpy_blas": blas(numpy),
        "scipy": scipy.__version__, "scipy_blas": blas(scipy),
        "python": platform.python_version(), "machine": platform.machine(),
    }


# -- set-up -----------------------------------------------------------------


def _plain_call(name, fn, *args):
    return fn(*args)


def set_up(path, seed, smoke, call=_plain_call):
    """Config, spec and (where the sweep needs it) the moduli table."""
    from sobolab import config
    from sobolab.bump import reference_moduli

    cfg = call("config.load_sweep", config.load_sweep, path, seed)
    if smoke:
        cfg = dataclasses.replace(cfg, **SMOKE[cfg.kind]).validate()
    moduli = None
    if cfg.kind in NEEDS_MODULI:
        moduli = call("bump.reference_moduli", reference_moduli, cfg.params)
    return cfg, moduli


def set_up_batch(path, seed, smoke, times, call=_plain_call):
    """Set up once, then again until SETUP_BATCH_SECONDS; appends each time."""
    spent = 0.0
    while not times or spent < SETUP_BATCH_SECONDS:
        start = time.perf_counter()
        cfg, moduli = set_up(path, seed, smoke, call)
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return cfg, moduli


# -- correctness gate -------------------------------------------------------


def config_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def row_tuple(row):
    return [row["n"], row["trial"], row["seed"], row["metric"], row["value"],
            row["stderr"]]


def _close(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= ROW_REL_TOL * max(abs(a), abs(b))


def rows_matching(rows, expected):
    """Rows equal to ``expected`` in key and within ROW_REL_TOL in value."""
    matched = 0
    for got, want in zip((row_tuple(r) for r in rows), expected):
        if got[:4] == want[:4] and _close(got[4], want[4]) \
                and _close(got[5], want[5]):
            matched += 1
    return matched


def reference_file(ref_dir, workload, smoke):
    return Path(ref_dir) / f"{workload}{'.smoke' if smoke else ''}.json"


def load_reference(ref_dir, workload, path, seed, smoke):
    """Recorded rows for ``seed``, or None when no rows were recorded."""
    ref_path = reference_file(ref_dir, workload, smoke)
    if not ref_path.exists():
        return None
    ref = json.loads(ref_path.read_text())
    rows = ref["seeds"].get(str(seed))
    if rows is not None and ref["config_sha256"] != config_digest(path):
        raise UsageError(f"{ref_path} was recorded for another version of "
                         f"{path}; record it again with --record")
    return rows


class Gate:
    """Every check of one run; any failure makes the result incorrect."""

    def __init__(self, reference):
        self.reference = reference
        self.first = None
        self.contracts = self.contracts_passed = 0
        self.rows = self.rows_matched = 0
        self.attempted = self.failed = 0
        self.failures = []

    def fail(self, message):
        self.failures.append(message)

    def begin(self):
        """Start one attempt; ``end`` counts it as failed if it added failures."""
        self.attempted += 1
        return len(self.failures)

    def end(self, before):
        self.failed += len(self.failures) > before

    def check_sweep(self, result, out_dir):
        """Contracts, rows against the reference, bytes against the first run."""
        before = self.begin()
        self.contracts += len(result.contracts)
        for c in result.contracts:
            if c.passed:
                self.contracts_passed += 1
            else:
                self.fail(f"contract {c.name} failed: observed {c.observed!r}, "
                          f"target {c.target}")
        artifacts = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(Path(out_dir).iterdir())}
        expected = self.reference
        if expected is None and self.first is not None:
            expected = self.first[0]
        if expected is not None:
            compared = max(len(result.rows), len(expected))
            matched = rows_matching(result.rows, expected)
            self.rows += compared
            self.rows_matched += matched
            if matched != compared:
                self.fail(f"{compared - matched} of {compared} rows differ "
                          f"from the {self.row_base()}")
        if self.first is None:
            self.first = ([row_tuple(r) for r in result.rows], artifacts)
        elif artifacts != self.first[1]:
            self.fail("artifacts differ between repetitions of one sweep")
        self.end(before)

    def row_base(self):
        return ("recorded reference rows" if self.reference is not None
                else "rows of the first repetition")


def run_sweep(cfg, moduli, threads, out_dir):
    from sobolab import experiments

    start = time.perf_counter()
    result = experiments.run(cfg, out_dir, threads=threads, moduli=moduli)
    return result, time.perf_counter() - start


# -- the two kinds of run ---------------------------------------------------


def _metric(value, unit, samples=1):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(path, seed, seconds, smoke, gate, work):
    """Rounds of set-ups and one sweep, interleaved so that both sample the
    same stretch of machine time, until ``seconds`` have been measured."""
    setups, sweeps = [], []
    while len(sweeps) < MIN_ROUNDS or sum(setups) + sum(sweeps) < seconds:
        cfg, moduli = set_up_batch(path, seed, smoke, setups)
        out_dir = work / f"rep{len(sweeps)}"
        result, elapsed = run_sweep(cfg, moduli, THREADS, out_dir)
        sweeps.append(elapsed)
        gate.check_sweep(result, out_dir)
        shutil.rmtree(out_dir)
    setup_s, sweep_s = statistics.median(setups), statistics.median(sweeps)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": _metric(setup_s, "s", len(setups)),
        "sweep_s": _metric(sweep_s, "s", len(sweeps)),
        "verdict_s": _metric(setup_s + sweep_s, "s", len(sweeps)),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "contract_pass_frac": _metric(
            gate.contracts_passed / max(gate.contracts, 1), "fraction",
            gate.contracts),
        "row_match_frac": _metric(
            gate.rows_matched / max(gate.rows, 1), "fraction", gate.rows),
    }


def _trial_n(trial):
    head = trial.split("/")[0]
    return int(head[2:]) if head.startswith("n=") else 0


def per_layer(path, seed, smoke, gate, work, span_path):
    import tracing

    tr = tracing.Tracer()
    tr.trial = "setup"
    cfg, moduli = set_up_batch(path, seed, smoke, [], tr.call)

    dirs = {}
    timings = {}
    for threads in (THREADS, 1):
        dirs[threads] = work / f"threads{threads}"
        result, timings[threads] = run_sweep(cfg, moduli, threads,
                                             dirs[threads])
        gate.check_sweep(result, dirs[threads])
    names = sorted({p.name for d in dirs.values() for p in d.iterdir()})
    thread_diff = sum(
        1 for name in names
        if not all((d / name).exists() for d in dirs.values())
        or (dirs[1] / name).read_bytes() != (dirs[THREADS] / name).read_bytes())
    if thread_diff:
        gate.fail(f"{thread_diff} artifacts differ between 1 and {THREADS} "
                  "sweep threads")

    before = gate.begin()
    rows, violations = tracing.replay(tr, cfg, moduli)
    if violations:
        gate.fail(f"the replay saw {violations} structural violations")
    if rows_matching(result.rows, [row_tuple(r) for r in rows]) != len(rows) \
            or len(rows) != len(result.rows):
        gate.fail("the replay's rows differ from the sweep's rows")
    gate.end(before)
    rates = tracing.probe(tr, cfg, moduli)
    tr.write(span_path)

    def own(trial):
        return trial not in ("setup", "probe")

    def spans(name):
        return (tr.select(name, own) or tr.select(name, lambda t: t == "probe")
                or tr.select(name, lambda t: t == "setup"))

    def counts(name):
        got = [v for n, t, v in tr.counts if n == name and own(t)]
        return got or [v for n, t, v in tr.counts if n == name and t == "probe"]

    metrics = {}
    moduli_spans = spans("bump.reference_moduli")
    metrics["bump.reference_moduli.s"] = _metric(
        statistics.median(s[3] - s[2] for s in moduli_spans), "s",
        len(moduli_spans))
    metrics["bump.reference_moduli.panels_max"] = _metric(
        rates.pop("bump.reference_moduli.panels_max"), "count")
    for name in LAYER_SPANS:
        chosen = spans(name)
        metrics[f"{name}.s"] = _metric(tr.self_seconds(chosen), "s",
                                       len(chosen))
    mc = spans("risk.excess_risk_mc")
    metrics["risk.excess_risk_mc.samples_per_s"] = _metric(
        sum(counts("risk.mc_samples")) / sum(s[3] - s[2] for s in mc),
        "1/s", len(mc))
    metrics["rkhs.min_norm_interpolant.jitter_steps"] = _metric(
        sum(counts("rkhs.jitter_steps")), "count",
        len(counts("rkhs.jitter_steps")))
    for name, value in rates.items():
        unit = "us" if name.endswith("_us") else "Mpts/s"
        metrics[name] = _metric(value, unit)
    morrey = [(s[3] - s[2]) * 1e3
              for s in spans("experiments.morrey_exact_trial")]
    metrics["experiments.morrey_exact_trial.ms"] = _metric(
        statistics.median(morrey), "ms", len(morrey))
    metrics["experiments.morrey_exact_trial.p98_ms"] = _metric(
        statistics.quantiles(morrey, n=50)[-1], "ms", len(morrey))

    trials = tr.select("trial", own)
    top = max(_trial_n(s[5]) for s in trials)
    top_ms = [(s[3] - s[2]) * 1e3 for s in trials if _trial_n(s[5]) == top]
    replay_s = sum(s[3] - s[2] for s in trials)
    metrics["trial.top_n.ms"] = _metric(statistics.median(top_ms), "ms",
                                        len(top_ms))
    metrics["experiments.run.t1_s"] = _metric(timings[1], "s")
    metrics["experiments.run.speedup"] = _metric(
        timings[1] / timings[THREADS], "ratio")
    metrics["experiments.run.thread_diff_files"] = _metric(
        thread_diff, "count", len(names))
    metrics["trace.overhead_s"] = _metric(replay_s - timings[1], "s")
    return metrics


# -- reporting --------------------------------------------------------------


def describe(metrics, gate):
    """Human-readable lines: every metric with its unit and sample count."""
    lines = []
    for name, m in metrics.items():
        lines.append(f"  {name:42s} {m['value']:<14.6g} {m['unit']:9s} "
                     f"n={m['samples']}")
    if "contract_pass_frac" in metrics:
        fail = gate.contracts - gate.contracts_passed
        mismatch = gate.rows - gate.rows_matched
        lines.append(f"  {'contract_fail_frac':42s} "
                     f"{fail / max(gate.contracts, 1):<14.6g} fraction  "
                     f"{fail} of {gate.contracts} contracts evaluated")
        lines.append(f"  {'row_mismatch_frac':42s} "
                     f"{mismatch / max(gate.rows, 1):<14.6g} fraction  "
                     f"{mismatch} of {gate.rows} rows vs the "
                     f"{gate.row_base()} (rel tol {ROW_REL_TOL:g})")
    return lines


def run_workload(args):
    import_program()
    workload_dir = Path(args.workload_dir)
    path = workload_dir / f"{args.workload}.ini"
    if not path.exists():
        raise UsageError(f"no workload config {path}")
    reference = load_reference(args.reference_dir, args.workload, path,
                               args.seed, args.smoke)
    gate = Gate(reference)
    OUT.mkdir(exist_ok=True)
    stem = (f"{args.workload}{'-smoke' if args.smoke else ''}"
            f"_seed{args.seed}_trace{args.trace}")
    work = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            metrics = per_layer(path, args.seed, args.smoke, gate, work,
                                OUT / f"{stem}_spans.jsonl")
        else:
            metrics = end_to_end(path, args.seed, args.seconds, args.smoke,
                                 gate, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment()
    report = {"workload": args.workload, "seed": args.seed,
              "smoke": args.smoke, "trace": args.trace, "environment": env,
              "metrics": metrics, "failures": gate.failures}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced replay' if args.trace else 'end to end'}"
          f"{'  (smoke)' if args.smoke else ''}")
    print("  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for line in describe(metrics, gate):
        print(line)
    for failure in gate.failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    return 0 if not gate.failures else 1


def run_all(args):
    """Each workload in a fresh process; prints every end-to-end metric."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workload-dir", str(args.workload_dir),
               "--reference-dir", str(args.reference_dir)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) if proc.returncode in (0, 1)
              else f"workload {workload}: exit {proc.returncode}\n"
              + proc.stderr)
        status = max(status, proc.returncode)
    return status


def record(args):
    """Record the rows of every listed seed as the workload's reference."""
    import_program()
    from sobolab import experiments

    path = Path(args.workload_dir) / f"{args.workload}.ini"
    seeds = {}
    for seed in args.record:
        cfg, moduli = set_up(path, seed, args.smoke)
        result = experiments.run_sweep(cfg, threads=THREADS, moduli=moduli)
        failed = [c.name for c in result.contracts if not c.passed]
        if failed:
            print(f"seed {seed}: contracts failed {failed}; not recorded")
            continue
        seeds[str(seed)] = [row_tuple(r) for r in result.rows]
        print(f"seed {seed}: {len(result.rows)} rows")
    ref = {"workload": args.workload, "config_sha256": config_digest(path),
           "rel_tol": ROW_REL_TOL, "environment": environment(),
           "columns": ["n", "trial", "seed", "metric", "value", "stderr"],
           "seeds": seeds}
    target = reference_file(args.reference_dir, args.workload, args.smoke)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    return 0 if len(seeds) == len(args.record) else 1


def _seeds(raw):
    out = []
    for part in raw.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true",
                       help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="set-up and sweep time to measure (at least "
                             f"{MIN_ROUNDS} rounds run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweeps: checks the harness, not the program")
    parser.add_argument("--record", type=_seeds, metavar="SEEDS",
                        help="record reference rows for seeds such as 0-31,7")
    parser.add_argument("--workload-dir", default=str(BENCH / "workloads"))
    parser.add_argument("--reference-dir", default=str(BENCH / "reference"))
    args = parser.parse_args(argv)
    try:
        if args.all:
            return run_all(args)
        if args.record:
            return record(args)
        return run_workload(args)
    except UsageError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
