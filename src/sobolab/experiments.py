"""Config-driven sweeps verifying the scaling laws and risk plateaus.

Each sweep is a pure function of (config, master seed): per-trial seeds are
derived by a fixed hash of (master seed, n, trial index), aggregation order
is fixed, and thread-level parallelism cannot change a single output byte.

One driver, :func:`run_sweep`, runs every sweep kind but ``morrey``.  The
table ``_KINDS`` gives each kind its trial function (one sampled dataset
and its nearest-neighbor radii in; metrics and violation counts out), its
contracts function (fits and statistical contracts from the finished
rows), whether it needs the reference moduli, and whether it runs at the
largest n only (``risk_vs_gamma``, which sweeps the shrink instead).  The
driver runs the (n, trial) jobs, merges rows and violations in job order,
and appends the kind's contracts, then one zero-violation contract per
structural check.

Structural contracts (packing, interpolation exactness, the explicit norm
bound, subset membership conditions) are checked inline on every trial with
zero tolerance; statistical contracts (fitted slopes, plateau ratios,
subset-size frequencies) are evaluated on per-n medians, never on single
trials.  ``morrey`` draws random bump sums instead of datasets
(:mod:`sobolab.morrey`) and has its own runner, :func:`_run_morrey`.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import geometry, interpolant, model, rkhs, risk
from .bump import reference_moduli
from .errors import ConfigInvalid, InvalidRange, UnsupportedNu, UnsupportedSpec
# bench/tracing.py times experiments.morrey_exact_trial
from .morrey import morrey_check, morrey_exact_trial  # noqa: F401

CSV_COLUMNS = ("sweep", "n", "trial", "seed", "metric", "value", "stderr")

# Acceptance-engineering tolerances for the statistical contracts; the
# underlying inequalities hold only up to constants, so these bands are
# calibration choices, recorded here once.
SLOPE_TOL = 0.3
DELTA_SLOPE_TOL = 0.2
GAMMA_SLOPE_SLACK = 0.75
SUBSET_FREQUENCY = 0.95


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; validated eagerly via :meth:`validate`."""

    kind: str
    spec: model.DistributionSpec
    config_id: str = "sweep"
    n_grid: tuple = ()
    trials: int = 20
    master_seed: int | None = None
    shrink: float = 1.0
    shrink_grid: tuple = (1.0, 0.7, 0.5, 0.35, 0.25)
    beta: float | None = None
    predictor: str = "bump"
    kernel_nu: float | None = None
    kernel_lengthscale: float = 1.0
    mc_samples: int = 200_000
    plateau_ratio: float = 0.2
    risk_floor: float = 0.01

    def validate(self):
        if self.kind not in SWEEP_KINDS:
            raise ConfigInvalid(f"sweep.kind: unknown kind {self.kind!r}")
        if self.master_seed is None:
            raise ConfigInvalid("sweep.seed: a master seed is required")
        if not 0 <= self.master_seed < 2 ** 64:
            raise ConfigInvalid("sweep.seed: must be an unsigned 64-bit integer")
        if self.trials < 5:
            raise ConfigInvalid(f"sweep.trials: need at least 5, got {self.trials}")
        if self.kind != "morrey":
            grid = tuple(int(n) for n in self.n_grid)
            if len(grid) < 4:
                raise ConfigInvalid("sweep.n_grid: need at least 4 levels")
            if grid[0] < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigInvalid(f"sweep.n_grid: need strictly increasing "
                                    f"sizes of at least 2, got {grid}")
        if self.kind == "weighted_delta_sum":
            if self.beta is None:
                raise ConfigInvalid("sweep.beta: required for weighted_delta_sum")
            if not 0.0 < self.beta < self.params.d / 2.0:
                raise ConfigInvalid(
                    f"sweep.beta: must lie in (0, d/2) = (0, {self.params.d / 2}), "
                    f"got {self.beta}"
                )
        if self.kind == "risk_vs_gamma":
            if not all(0.0 < s <= 1.0 for s in self.shrink_grid):
                raise ConfigInvalid("sweep.shrink_grid: entries must lie in (0, 1]")
            if len(set(self.shrink_grid)) < 2:
                raise ConfigInvalid("sweep.shrink_grid: need at least two "
                                    "distinct entries to fit a slope")
            if self.predictor != "bump":
                raise ConfigInvalid(
                    f"sweep.predictor: risk_vs_gamma sweeps the bump "
                    f"interpolant only, got {self.predictor!r}"
                )
        if not 0.0 < self.shrink <= 1.0:
            raise ConfigInvalid(f"sweep.shrink: must lie in (0, 1], got {self.shrink}")
        if self.predictor not in ("bump", "kernel", "bayes"):
            raise ConfigInvalid(f"sweep.predictor: unknown family {self.predictor!r}")
        if self.kind == "norm_vs_n" and not self.params.strict_range:
            raise InvalidRange(
                f"norm sweep requires k in (d/p, 1.5 d/p); got {self.params}"
            )
        if self.kind in ("risk_vs_n", "risk_vs_gamma") and self.mc_samples < 100:
            raise ConfigInvalid(
                f"sweep.mc_samples: need at least 100, got {self.mc_samples}"
            )
        if not 0.0 < self.plateau_ratio < math.inf:
            raise ConfigInvalid(f"sweep.plateau_ratio: must be finite and "
                                f"positive, got {self.plateau_ratio}")
        if not 0.0 <= self.risk_floor < math.inf:
            raise ConfigInvalid(f"sweep.risk_floor: must be finite and "
                                f"nonnegative, got {self.risk_floor}")
        if self.kind == "risk_vs_n" and self.predictor == "kernel":
            if max(self.n_grid) > rkhs.DENSE_SOLVE_MAX_N:
                raise ConfigInvalid(
                    f"sweep.n_grid: the kernel predictor's dense solve is "
                    f"capped at n={rkhs.DENSE_SOLVE_MAX_N}, got {max(self.n_grid)}"
                )
            try:
                self.kernel_spec
            except UnsupportedNu as exc:
                raise ConfigInvalid(f"sweep.nu, sweep.lengthscale: {exc}") from None
        return self

    @property
    def params(self):
        """The sweep's (k, p, d): the distribution's own."""
        return self.spec.params

    @property
    def kernel_spec(self):
        """The Matern kernel of the kernel predictor; nu defaults to k - d/2."""
        nu = self.kernel_nu
        if nu is None:
            nu = self.params.k - self.params.d / 2.0
        return rkhs.KernelSpec(nu=nu, lengthscale=self.kernel_lengthscale)


@dataclass(frozen=True)
class Contract:
    name: str
    target: str
    observed: float
    passed: bool


@dataclass(frozen=True)
class FitResult:
    slope: float
    slope_stderr: float
    intercept: float
    points: int


@dataclass
class SweepResult:
    config_id: str
    sweep: str
    rows: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    contracts: list = field(default_factory=list)

    @property
    def all_passed(self):
        return all(c.passed for c in self.contracts)


def derive_seed(master_seed, *parts):
    """Fixed hash of (master seed, parts) to one unsigned 64-bit seed."""
    ss = np.random.SeedSequence([int(master_seed)] + [int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0])


def fit_loglog(ns, values):
    """Least-squares slope of log(values) against log(ns), with stderr."""
    if len(ns) < 2:
        return FitResult(slope=math.nan, slope_stderr=math.nan,
                         intercept=math.nan, points=len(ns))
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (intercept + slope * x)
    dof = len(x) - 2
    stderr = math.sqrt(float(np.sum(resid ** 2)) / dof / sxx) if dof > 0 else 0.0
    return FitResult(slope=slope, slope_stderr=stderr, intercept=intercept,
                     points=len(x))


def _row(sweep, n, trial, seed, metric, value, stderr=0.0):
    return {"sweep": sweep, "n": n, "trial": trial, "seed": seed,
            "metric": metric, "value": float(value), "stderr": float(stderr)}


def _medians(rows, metric):
    """Per-n medians of a metric, in increasing n order."""
    byn = {}
    for row in rows:
        if row["metric"] == metric and math.isfinite(row["value"]):
            byn.setdefault(row["n"], []).append(row["value"])
    ns = sorted(byn)
    return ns, [float(np.median(byn[n])) for n in ns]


def _run_trials(jobs, worker, threads=1):
    """``worker`` applied to each (n, trial) job; results in job order.

    A pool takes the jobs largest n first (a stable sort, so equal n keep
    their order), so that the slowest trials do not run alone at the end.
    """
    if threads > 1:
        order = sorted(range(len(jobs)), key=lambda i: -jobs[i][0])
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = dict(zip(order, pool.map(worker, [jobs[i] for i in order])))
        return [done[i] for i in range(len(jobs))]
    return [worker(job) for job in jobs]


def _structural_violations(dataset, radii, f=None):
    """Zero-tolerance per-trial checks; returns violation counts."""
    return {
        "packing": len(geometry.check_packing(dataset, radii)),
        "interpolation": (0 if f is None else _interpolation_violations(
            interpolant.interpolation_residual(f, dataset))),
        "norm_bound": 0,
    }


def _interpolation_violations(residual):
    """Residuals not within the tolerance; a NaN is one."""
    return int(np.count_nonzero(~(residual <= interpolant.INTERPOLATION_TOL)))


def _violation_contracts(total, sweep):
    return [
        Contract(name=f"{sweep}.{key}_violations", target="== 0",
                 observed=float(val), passed=val == 0)
        for key, val in sorted(total.items())
    ]


# -- per-kind trials and contracts ----------------------------------------------


def _slope_contract(name, fit, target, tol):
    return Contract(
        name=name,
        target=f"within {target:.6g} +- {tol}",
        observed=fit.slope,
        passed=abs(fit.slope - target) <= tol,
    )


def _norm_trial(config, moduli, ds, radii, n, trial):
    """||f_bump||^p and its explicit bound, which must hold on every trial."""
    f = interpolant.build(ds, radii, 1.0, config.params)
    norm_p, bound, violated = interpolant.norm_bound_check(f, ds, radii, moduli)
    checks = _structural_violations(ds, radii, f)
    checks["norm_bound"] = int(violated)
    return [("norm_p", norm_p), ("norm_bound", bound)], checks


def _norm_contracts(config, result):
    """The fitted slope of ||f_bump||^p must sit within kp/d +- 0.3."""
    params = config.params
    fit = result.fits["norm_p"] = fit_loglog(*_medians(result.rows, "norm_p"))
    return [_slope_contract("norm_vs_n.slope", fit,
                            params.k * params.p / params.d, SLOPE_TOL)]


def _delta_trial(config, moduli, ds, radii, n, trial):
    """min delta over the noisy-separated subset, and the subset's size."""
    sel = model.noisy_separated_subset(ds, radii, config.spec)
    bad = 0
    if sel.size:
        g = config.spec.g_values(ds.points[sel.indices])
        member_r = radii[sel.indices]
        member_y = ds.labels[sel.indices]
        bad += int(np.count_nonzero(member_r < sel.radius_threshold))
        bad += int(np.count_nonzero(np.abs(member_y) > sel.label_cap))
        bad += int(np.count_nonzero((member_y - g) ** 2 < sel.noise_margin))
    checks = _structural_violations(ds, radii)
    checks["subset_membership"] = bad
    min_delta = float(np.min(radii[sel.indices])) if sel.size else math.nan
    return [("min_delta_B", min_delta), ("subset_size", sel.size)], checks


def _delta_contracts(config, result):
    """min delta scales like n^(-1/d); the subset holds at least rho n / 8
    points in >= 95% of trials at the top n."""
    fit = result.fits["min_delta_B"] = fit_loglog(
        *_medians(result.rows, "min_delta_B"))
    top_n = max(config.n_grid)
    sizes = [row["value"] for row in result.rows
             if row["metric"] == "subset_size" and row["n"] == top_n]
    need = model.noise_constants(config.spec).rho * top_n / 8.0
    freq = float(np.mean([s >= need for s in sizes]))
    return [
        _slope_contract("delta_subset.min_delta_slope", fit,
                        -1.0 / config.params.d, DELTA_SLOPE_TOL),
        Contract(
            name="delta_subset.size_frequency",
            target=f"P(|B| >= rho n / 8) >= {SUBSET_FREQUENCY} at n={top_n}",
            observed=freq,
            passed=freq >= SUBSET_FREQUENCY,
        ),
    ]


def _weighted_trial(config, moduli, ds, radii, n, trial):
    """sum |y_i|^p delta_i^(-beta)."""
    total = float(np.sum(np.abs(ds.labels) ** config.params.p
                         * radii ** (-config.beta)))
    return [("weighted_delta_sum", total)], _structural_violations(ds, radii)


def _weighted_contracts(config, result):
    """The weighted sum grows like n^(1 + beta/d)."""
    fit = result.fits["weighted_delta_sum"] = fit_loglog(
        *_medians(result.rows, "weighted_delta_sum"))
    return [_slope_contract("weighted_delta_sum.slope", fit,
                            1.0 + config.beta / config.params.d, SLOPE_TOL)]


def _risk_of_bump(f, spec, mc_samples, seed):
    try:
        return risk.excess_risk_semianalytic(f, spec)
    except UnsupportedSpec:
        return risk.excess_risk_mc(f, spec, mc_samples, seed)


def _risk_trial(config, moduli, ds, radii, n, trial):
    """Excess risk of the configured predictor.

    Bump predictors on the uniform pure-noise model use the semi-analytic
    oracle and additionally cross-check Monte Carlo against it on the first
    trial of every n; kernel predictors are pure Monte Carlo.
    """
    spec, samples = config.spec, config.mc_samples
    mc_seed = derive_seed(config.master_seed, n, trial, 1)
    f = None
    if config.predictor == "bump":
        f = interpolant.build(ds, radii, config.shrink, config.params)
        est = _risk_of_bump(f, spec, samples, mc_seed)
    elif config.predictor == "kernel":
        ki = rkhs.min_norm_interpolant(ds, config.kernel_spec)
        est = risk.excess_risk_mc(ki, spec, samples, mc_seed)
    else:  # Bayes control: predicts g, zero regret by construction
        est = risk.excess_risk_mc(spec.g_values, spec, samples, mc_seed)
    checks = _structural_violations(ds, radii, f)
    metrics = [("excess_risk", est.mean, est.stderr)]
    if est.method == "semi-analytic" and trial == 0:
        mc = risk.excess_risk_mc(f, spec, samples, mc_seed)
        metrics.append(("excess_risk_mc", mc.mean, mc.stderr))
        checks["mc_oracle_agreement"] = 0 if mc.within(est.mean) else 1
    return metrics, checks


def _risk_contracts(config, result):
    """Excess risk across the n grid must not vanish (the plateau contract);
    the Bayes control must read exactly 0."""
    ns, med = _medians(result.rows, "excess_risk")
    estimates = [row["value"] for row in result.rows
                 if row["metric"] == "excess_risk"]
    if config.predictor == "bayes":
        worst = max(abs(v) for v in estimates)
        return [Contract(
            name="risk_vs_n.bayes_control",
            target="all estimates exactly 0 (plateau inapplicable, benign)",
            observed=worst,
            passed=worst == 0.0,
        )]
    ratio = med[-1] / med[0] if med[0] > 0 else math.inf
    floor_value = min(estimates) if config.predictor == "bump" else min(med)
    return [
        Contract(
            name="risk_vs_n.plateau_ratio",
            target=f"median risk at n={ns[-1]} >= {config.plateau_ratio} x "
                   f"median at n={ns[0]}",
            observed=ratio,
            passed=ratio >= config.plateau_ratio,
        ),
        Contract(
            name="risk_vs_n.floor",
            target=f">= {config.risk_floor}",
            observed=floor_value,
            passed=floor_value >= config.risk_floor,
        ),
    ]


def _gamma_trial(config, moduli, ds, radii, n, trial):
    """Certified gamma lower bound and excess risk at every shrink."""
    # packing depends on the dataset and radii alone, not on the shrink
    checks = _structural_violations(ds, radii)
    # as is the norm of the s = 1 interpolant, every shrink's gamma bound
    bound = interpolant.sobolev_norm(
        interpolant.build(ds, radii, 1.0, config.params), moduli)
    metrics = []
    for si, s in enumerate(config.shrink_grid):
        f = interpolant.build(ds, radii, s, config.params)
        checks["interpolation"] += _interpolation_violations(
            interpolant.interpolation_residual(f, ds))
        mc_seed = derive_seed(config.master_seed, n, trial, si, 2)
        est = _risk_of_bump(f, config.spec, config.mc_samples, mc_seed)
        metrics.append((f"gamma_lower_bound[s={s!r}]",
                        interpolant.sobolev_norm(f, moduli) / bound))
        metrics.append((f"excess_risk[s={s!r}]", est.mean, est.stderr))
    return metrics, checks


def _gamma_contracts(config, result):
    """Fits the log-log decay of risk against gamma across the shrink grid;
    the soft contract keeps the fitted exponent above the theoretical
    envelope -pd/(kp-d) minus slack (gamma is only a certified lower bound,
    so the decay can only look steeper, never shallower, than the truth)."""
    params = config.params

    def medians(metric):
        return [float(np.median([row["value"] for row in result.rows
                                 if row["metric"] == f"{metric}[s={s!r}]"]))
                for s in config.shrink_grid]

    fit = result.fits["risk_vs_gamma"] = fit_loglog(
        medians("gamma_lower_bound"), medians("excess_risk"))
    reference = -params.p * params.d / (params.k * params.p - params.d)
    return [Contract(
        name="risk_vs_gamma.exponent",
        target=f">= {reference:.6g} - {GAMMA_SLOPE_SLACK} (soft envelope)",
        observed=fit.slope,
        passed=fit.slope >= reference - GAMMA_SLOPE_SLACK,
    )]


class _Kind(NamedTuple):
    trial: Callable
    contracts: Callable
    needs_moduli: bool = False
    top_n_only: bool = False


_KINDS = {
    "norm_vs_n": _Kind(_norm_trial, _norm_contracts, needs_moduli=True),
    "delta_subset": _Kind(_delta_trial, _delta_contracts),
    "weighted_delta_sum": _Kind(_weighted_trial, _weighted_contracts),
    "risk_vs_n": _Kind(_risk_trial, _risk_contracts),
    "risk_vs_gamma": _Kind(_gamma_trial, _gamma_contracts, needs_moduli=True,
                           top_n_only=True),
}

SWEEP_KINDS = (*_KINDS, "morrey")


# -- persistence and the run driver ---------------------------------------------


def write_rows_csv(rows, path):
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        # str of a float is its shortest round-trip repr
        lines.append(",".join(str(row[c]) for c in CSV_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_rows_jsonl(rows, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps({c: row[c] for c in CSV_COLUMNS}) + "\n")


def write_summary(result, path):
    payload = {
        "config_id": result.config_id,
        "sweep": result.sweep,
        "all_passed": result.all_passed,
        "contracts": [
            {"name": c.name, "target": c.target, "observed": c.observed,
             "passed": c.passed}
            for c in result.contracts
        ],
        "fits": {
            name: {"slope": f.slope, "slope_stderr": f.slope_stderr,
                   "intercept": f.intercept, "points": f.points}
            for name, f in sorted(result.fits.items())
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_fit_curve(result, metric, path):
    """Gnuplot-ready two-column file: log n, log per-n median."""
    ns, med = _medians(result.rows, metric)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# log_n log_median_{metric}\n")
        for n, v in zip(ns, med):
            fh.write(f"{math.log(n)!r} {math.log(v)!r}\n")


def _run_morrey(config):
    report = morrey_check(config.params, config.trials, config.master_seed)
    result = SweepResult(config_id=config.config_id, sweep="morrey")
    seed = config.master_seed
    if report.variant == "exact":
        result.rows.append(_row("morrey", 0, 0, seed, "violations",
                                len(report.violations)))
        result.contracts.append(Contract(
            name="morrey.exact_violations", target="== 0",
            observed=float(len(report.violations)),
            passed=not report.violations,
        ))
    else:
        result.rows.append(_row("morrey", 0, 0, seed, "ratio_fine_max",
                                report.ratio_fine_max))
        result.rows.append(_row("morrey", 0, 0, seed, "ratio_coarse_max",
                                report.ratio_coarse_max))
        result.contracts.append(Contract(
            name="morrey.ratio_boundedness",
            target="fine-delta max <= 10 x coarse-delta max",
            observed=report.ratio_fine_max / max(report.ratio_coarse_max, 1e-300),
            passed=report.passed,
        ))
    return result


def run_sweep(config, threads=1, moduli=None):
    """Validate ``config`` and run its sweep; returns a :class:`SweepResult`.

    Every trial samples its own dataset from the seed derived from
    (master seed, n, trial); rows and violation counts are merged in job
    order, so the result does not depend on ``threads``.  ``moduli`` is
    built here when the kind needs it and none is given.
    """
    config.validate()
    if config.kind == "morrey":
        return _run_morrey(config)
    kind = _KINDS[config.kind]
    if kind.needs_moduli and moduli is None:
        moduli = reference_moduli(config.params)
    result = SweepResult(config_id=config.config_id, sweep=config.kind)
    violations = Counter()

    def worker(job):
        n, trial = job
        seed = derive_seed(config.master_seed, n, trial)
        ds = model.sample(config.spec, n, seed)
        radii = geometry.nn_radii(ds)
        metrics, checks = kind.trial(config, moduli, ds, radii, n, trial)
        return [_row(config.kind, n, trial, seed, *m) for m in metrics], checks

    ns = (max(config.n_grid),) if kind.top_n_only else config.n_grid
    jobs = [(n, t) for n in ns for t in range(config.trials)]
    for rows, checks in _run_trials(jobs, worker, threads):
        result.rows.extend(rows)
        violations.update(checks)
    result.contracts.extend(kind.contracts(config, result))
    result.contracts.extend(_violation_contracts(violations, config.kind))
    return result


def run(config, out_dir, fmt="csv", threads=1, moduli=None):
    """Execute a sweep and persist rows, fitted curves, and the summary.

    Returns the :class:`SweepResult`; callers map ``all_passed`` onto exit
    codes.  Reruns with identical config and seed produce identical bytes.
    """
    from pathlib import Path

    if fmt not in ("csv", "json-lines"):
        raise ConfigInvalid(f"format: unknown output format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_sweep(config, threads=threads, moduli=moduli)
    stem = out / f"{config.config_id}"
    if fmt == "csv":
        write_rows_csv(result.rows, f"{stem}_rows.csv")
    else:
        write_rows_jsonl(result.rows, f"{stem}_rows.jsonl")
    for metric in result.fits:
        if any(r["metric"] == metric for r in result.rows):
            write_fit_curve(result, metric, f"{stem}_{metric}.dat")
    write_summary(result, f"{stem}_summary.json")
    return result
