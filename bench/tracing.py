"""Traced replay of a sweep's trials, plus fixed-size layer probes.

The replay calls the same public ``sobolab`` functions, in the same order
and with the same derived seeds, as the sweep worker of each kind, and
records one span per call.  Its rows must equal the sweep's rows exactly,
which checks that the replay measures the work the sweep does.

A span is ``[id, name, start_s, end_s, parent_id, trial]``; a count is
``(name, trial, value)``.  Both stay in memory and are written as JSON lines
once the replay is over.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

from sobolab import experiments, geometry, interpolant, model, risk, rkhs
from sobolab.bump import BumpSum, bump_partial, reference_moduli
from sobolab.errors import UnsupportedSpec

PROBE_N = 2048              # dataset size of the probes
PROBE_POINTS = 65536        # query batch: one Monte Carlo chunk
PROBE_MC_SAMPLES = 131072   # two Monte Carlo chunks
PROBE_MORREY_TRIALS = 500   # enough for a p98 with 10 samples beyond it
PROBE_MORREY_P = 1.25       # the exact Morrey variant needs d = k = 1
MORREY_SLACK = 1e-9         # as in experiments.morrey_check


class Tracer:
    """In-memory span recorder for one single-threaded replay."""

    def __init__(self):
        self.spans = []
        self.counts = []
        self.trial = None
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, time.perf_counter(), None, parent,
                  self.trial]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args):
        with self.span(name):
            return fn(*args)

    def count(self, name, value):
        self.counts.append((name, self.trial, value))

    def select(self, name, trials):
        """Spans called ``name`` whose trial id is accepted by ``trials``."""
        return [s for s in self.spans if s[1] == name and trials(s[5])]

    def self_seconds(self, spans):
        """Summed self time: each span's duration minus its children's."""
        ids = {s[0] for s in spans}
        total = sum(s[3] - s[2] for s in spans)
        for child in self.spans:
            if child[4] in ids:
                total -= child[3] - child[2]
        return total

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start_s": start, "end_s": end,
                    "parent": parent, "trial": trial}) + "\n")
            for name, trial, value in self.counts:
                fh.write(json.dumps({"count": name, "trial": trial,
                                     "value": value}) + "\n")


def _row(sweep, n, trial, seed, metric, value, stderr=0.0):
    return {"sweep": sweep, "n": n, "trial": trial, "seed": seed,
            "metric": metric, "value": float(value), "stderr": float(stderr)}


def _structural_violations(tr, ds, radii, f=None):
    bad = len(tr.call("geometry.check_packing", geometry.check_packing,
                      ds, radii))
    if f is not None:
        resid = np.abs(tr.call("interpolant.evaluate", interpolant.evaluate,
                               f, ds.points) - ds.labels)
        bad += int(np.count_nonzero(resid > interpolant.INTERPOLATION_TOL))
    return bad


def _traced_bump(tr, f):
    return lambda xs: tr.call("interpolant.evaluate", interpolant.evaluate,
                              f, xs)


def _risk_of_bump(tr, f, spec, mc_samples, seed):
    try:
        return tr.call("risk.excess_risk_semianalytic",
                       risk.excess_risk_semianalytic, f, spec)
    except UnsupportedSpec:
        est = tr.call("risk.excess_risk_mc", risk.excess_risk_mc,
                      _traced_bump(tr, f), spec, mc_samples, seed)
        tr.count("risk.mc_samples", est.samples)
        return est


def _replay_norm_vs_n(tr, cfg, moduli):
    params, rows, bad = cfg.params, [], 0
    for n in cfg.n_grid:
        for trial in range(cfg.trials):
            tr.trial = f"n={n}/t={trial}"
            with tr.span("trial"):
                seed = experiments.derive_seed(cfg.master_seed, n, trial)
                ds = tr.call("model.sample", model.sample, cfg.spec, n, seed)
                radii = tr.call("geometry.nn_radii", geometry.nn_radii, ds)
                f = tr.call("interpolant.build", interpolant.build,
                            ds, radii, 1.0, params)
                norm = tr.call("interpolant.sobolev_norm",
                               interpolant.sobolev_norm, f, moduli)
                bound = tr.call("interpolant.min_norm_upper_bound",
                                interpolant.min_norm_upper_bound,
                                ds, radii, moduli)
                bad += _structural_violations(tr, ds, radii, f)
                bad += int(norm ** params.p > bound)
            rows.append(_row("norm_vs_n", n, trial, seed, "norm_p",
                             norm ** params.p))
            rows.append(_row("norm_vs_n", n, trial, seed, "norm_bound", bound))
    return rows, bad


def _replay_risk_vs_n(tr, cfg, moduli):
    if cfg.predictor != "kernel":
        raise ValueError("the replay covers the kernel predictor only")
    params, rows, bad = cfg.params, [], 0
    nu = cfg.kernel_nu if cfg.kernel_nu is not None else params.k - params.d / 2.0
    kernel = rkhs.KernelSpec(nu=nu, lengthscale=cfg.kernel_lengthscale)
    for n in cfg.n_grid:
        for trial in range(cfg.trials):
            tr.trial = f"n={n}/t={trial}"
            with tr.span("trial"):
                seed = experiments.derive_seed(cfg.master_seed, n, trial)
                ds = tr.call("model.sample", model.sample, cfg.spec, n, seed)
                radii = tr.call("geometry.nn_radii", geometry.nn_radii, ds)
                mc_seed = experiments.derive_seed(cfg.master_seed, n, trial, 1)
                bad += _structural_violations(tr, ds, radii)
                ki = tr.call("rkhs.min_norm_interpolant",
                             rkhs.min_norm_interpolant, ds, kernel)
                tr.count("rkhs.jitter_steps",
                         rkhs.JITTER_LADDER.index(ki.jitter_used))
                est = tr.call("risk.excess_risk_mc", risk.excess_risk_mc,
                              lambda xs: tr.call("rkhs.predict", ki, xs),
                              cfg.spec, cfg.mc_samples, mc_seed)
                tr.count("risk.mc_samples", est.samples)
            rows.append(_row("risk_vs_n", n, trial, seed, "excess_risk",
                             est.mean, est.stderr))
    return rows, bad


def _replay_risk_vs_gamma(tr, cfg, moduli):
    params, rows, bad = cfg.params, [], 0
    n = max(cfg.n_grid)
    for trial in range(cfg.trials):
        tr.trial = f"n={n}/t={trial}"
        with tr.span("trial"):
            seed = experiments.derive_seed(cfg.master_seed, n, trial)
            ds = tr.call("model.sample", model.sample, cfg.spec, n, seed)
            radii = tr.call("geometry.nn_radii", geometry.nn_radii, ds)
            for si, s in enumerate(cfg.shrink_grid):
                f = tr.call("interpolant.build", interpolant.build,
                            ds, radii, s, params)
                bad += _structural_violations(tr, ds, radii, f)
                report = tr.call("interpolant.gamma_report",
                                 interpolant.gamma_report,
                                 f, ds, radii, moduli)
                mc_seed = experiments.derive_seed(cfg.master_seed, n, trial,
                                                  si, 2)
                est = _risk_of_bump(tr, f, cfg.spec, cfg.mc_samples, mc_seed)
                rows.append(_row("risk_vs_gamma", n, trial, seed,
                                 f"gamma_lower_bound[s={s!r}]",
                                 report.gamma_lower_bound))
                rows.append(_row("risk_vs_gamma", n, trial, seed,
                                 f"excess_risk[s={s!r}]", est.mean, est.stderr))
    return rows, bad


def _random_bump_sum_1d(rng, max_bumps=5):
    """The draw of ``experiments.morrey_check`` in d = 1, call for call."""
    m = int(rng.integers(1, max_bumps + 1))
    while True:
        centers = rng.uniform(-1.0, 1.0, size=(m, 1))
        if m == 1:
            radii = np.array([rng.uniform(0.1, 0.5) * 1.0])
            break
        diff = centers[:, None, 0] - centers[None, :, 0]
        sq = diff * diff
        np.fill_diagonal(sq, np.inf)
        nn = np.sqrt(sq.min(axis=1))
        if np.min(nn) > 0:
            radii = rng.uniform(0.3, 0.999, size=m) * nn / 2.0
            break
    weights = rng.normal(0.0, 2.0, size=m)
    return BumpSum(centers=centers, radii=radii, weights=weights)


def _morrey_trials(tr, seed, trials, p, label):
    """Exact-variant Morrey trials; returns the violation count."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x30]))
    violations = 0
    for t in range(trials):
        tr.trial = label(t)
        with tr.span("trial"):
            u = tr.call("bump.BumpSum", _random_bump_sum_1d, rng)
            x0 = float(rng.uniform(-1.5, 1.5))
            delta = float(rng.uniform(0.01, 0.75))
            x1 = x0 + float(rng.uniform(-1.0, 1.0)) * delta
            lhs, rhs = tr.call("experiments.morrey_exact_trial",
                               experiments.morrey_exact_trial,
                               u, x0, x1, delta, p)
        violations += int(lhs > rhs + MORREY_SLACK)
    return violations


def _replay_morrey(tr, cfg, moduli):
    if not (cfg.params.d == 1 and cfg.params.k == 1):
        raise ValueError("the replay covers the exact Morrey variant only")
    violations = _morrey_trials(tr, cfg.master_seed, cfg.trials, cfg.params.p,
                                lambda t: f"t={t}")
    return [_row("morrey", 0, 0, cfg.master_seed, "violations",
                 violations)], violations


REPLAYS = {
    "norm_vs_n": _replay_norm_vs_n,
    "risk_vs_n": _replay_risk_vs_n,
    "risk_vs_gamma": _replay_risk_vs_gamma,
    "morrey": _replay_morrey,
}


def replay(tr, cfg, moduli):
    """Replay every trial of ``cfg``; returns (rows, structural violations)."""
    return REPLAYS[cfg.kind](tr, cfg, moduli)


def _median_seconds(tr, name, fn, repeats):
    for _ in range(repeats):
        tr.call(name, fn)
    spans = tr.select(name, lambda t: t == "probe")[-repeats:]
    return statistics.median(s[3] - s[2] for s in spans)


def probe(tr, cfg, moduli):
    """Call every layer once more on fixed-size inputs (trial id ``probe``).

    Returns the throughput figures, each measured on a fixed input size so
    that they compare across workloads and commits.
    """
    tr.trial = "probe"
    spec, params = cfg.spec, cfg.params
    seed = experiments.derive_seed(cfg.master_seed, PROBE_N, 0x9B0BE)
    rng = np.random.default_rng(seed)
    if moduli is None:
        moduli = tr.call("bump.reference_moduli", reference_moduli, params)
    panels_max = max(moduli.panels.values())
    ds = tr.call("model.sample", model.sample, spec, PROBE_N, seed)
    radii = tr.call("geometry.nn_radii", geometry.nn_radii, ds)
    f = tr.call("interpolant.build", interpolant.build, ds, radii, 1.0, params)
    _structural_violations(tr, ds, radii, f)
    tr.call("interpolant.sobolev_norm", interpolant.sobolev_norm, f, moduli)
    tr.call("interpolant.min_norm_upper_bound",
            interpolant.min_norm_upper_bound, ds, radii, moduli)
    tr.call("interpolant.gamma_report", interpolant.gamma_report,
            f, ds, radii, moduli)
    est = tr.call("risk.excess_risk_mc", risk.excess_risk_mc,
                  _traced_bump(tr, f), spec, PROBE_MC_SAMPLES, seed)
    tr.count("risk.mc_samples", est.samples)
    ki = tr.call("rkhs.min_norm_interpolant", rkhs.min_norm_interpolant,
                 ds, rkhs.KernelSpec(nu=0.5, lengthscale=1.0))
    tr.count("rkhs.jitter_steps", rkhs.JITTER_LADDER.index(ki.jitter_used))

    xs = model.sample_points(spec, PROBE_POINTS, rng)
    out = {
        "bump.reference_moduli.panels_max": panels_max,
        "model.sample_points.mpts_s": PROBE_POINTS / 1e6 / _median_seconds(
            tr, "model.sample_points",
            lambda: model.sample_points(spec, PROBE_POINTS, rng), 5),
        "interpolant.evaluate.mpts_s": PROBE_POINTS / 1e6 / _median_seconds(
            tr, "interpolant.evaluate",
            lambda: interpolant.evaluate(f, xs), 5),
        "rkhs.predict.mpts_s": PROBE_POINTS / 1e6 / _median_seconds(
            tr, "rkhs.predict", lambda: ki(xs), 3),
    }

    # D^alpha psi_1 with |alpha| = 2 on a 64^3 = 2^18-point grid of [0, 1]^3.
    axis = np.linspace(0.0, 1.0, 64)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    out["bump.bump_partial.large_mpts_s"] = len(grid) / 1e6 / _median_seconds(
        tr, "bump.bump_partial",
        lambda: bump_partial((1, 1, 0), np.zeros(3), 1.0, grid), 3)
    # 1-D batches of 100 points, the Morrey quadrature regime.
    line = np.linspace(-1.0, 1.0, 100)[:, None]
    calls = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(300):
            bump_partial((1,), np.zeros(1), 0.5, line)
        calls.append((time.perf_counter() - start) / 300)
    out["bump.bump_partial.small_us"] = statistics.median(calls) * 1e6

    if cfg.kind != "morrey":
        _morrey_trials(tr, cfg.master_seed, PROBE_MORREY_TRIALS,
                       PROBE_MORREY_P, lambda t: "probe")
    return out
