"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Statistical criteria run at fixed seeds, so outcomes are reproducible; the
stated per-criterion time budgets are reported in the printed detail rather
than asserted (wall-clock depends on the host).
"""

import math
import time

import numpy as np
import pytest

from sobolab import bump, experiments, geometry, interpolant, model, morrey, risk
from sobolab.experiments import SweepConfig
from sobolab.model import DistributionSpec

from box_oracle import integrate_partial_power_fixed
from scaling_law import scaled_seminorm

SEED = 0xACCE97


def _report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} ({name}): {detail}"
    print(line)
    assert ok, line


class _Timer:
    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.time() - self.t0
        return False


# -- shared heavy fixtures ----------------------------------------------------


@pytest.fixture(scope="module")
def geometry_datasets(params_d1, params_d2, params_d3):
    """500 random datasets per dimension, sizes cycling over {8, 64, 256}."""
    specs = {1: DistributionSpec(params=params_d1),
             2: DistributionSpec(params=params_d2),
             3: DistributionSpec(params=params_d3)}
    out = {}
    sizes = (8, 64, 256)
    for d, spec in specs.items():
        out[d] = [model.sample(spec, sizes[i % 3],
                               experiments.derive_seed(SEED, d, i))
                  for i in range(500)]
    return out


@pytest.fixture(scope="module")
def norm_sweep_d1(pure_noise_d1, moduli_d1):
    cfg = SweepConfig(config_id="acc-norm-d1", kind="norm_vs_n",
                      spec=pure_noise_d1,
                      n_grid=(64, 128, 256, 512, 1024, 2048, 4096, 8192),
                      trials=20, master_seed=SEED)
    return experiments.run_sweep(cfg, moduli=moduli_d1, threads=4)


@pytest.fixture(scope="module")
def norm_sweep_d3(pure_noise_d3, moduli_d3):
    cfg = SweepConfig(config_id="acc-norm-d3", kind="norm_vs_n",
                      spec=pure_noise_d3,
                      n_grid=(64, 128, 256, 512, 1024, 2048, 4096, 8192),
                      trials=20, master_seed=SEED)
    return experiments.run_sweep(cfg, moduli=moduli_d3, threads=4)


@pytest.fixture(scope="module")
def delta_sweep_d1(pure_noise_d1):
    cfg = SweepConfig(config_id="acc-delta-d1", kind="delta_subset",
                      spec=pure_noise_d1,
                      n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
                      trials=50, master_seed=SEED)
    return experiments.run_sweep(cfg, threads=4)


@pytest.fixture(scope="module")
def delta_sweep_d3(pure_noise_d3):
    cfg = SweepConfig(config_id="acc-delta-d3", kind="delta_subset",
                      spec=pure_noise_d3,
                      n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
                      trials=50, master_seed=SEED)
    return experiments.run_sweep(cfg, threads=4)


@pytest.fixture(scope="module")
def risk_sweep_bump(pure_noise_d1, moduli_d1):
    cfg = SweepConfig(config_id="acc-risk-bump", kind="risk_vs_n",
                      spec=pure_noise_d1,
                      n_grid=(128, 256, 512, 1024, 2048, 4096, 8192),
                      trials=5, master_seed=SEED, mc_samples=200_000)
    return experiments.run_sweep(cfg, moduli=moduli_d1, threads=4)


@pytest.fixture(scope="module")
def gamma_sweep(pure_noise_d1, moduli_d1):
    cfg = SweepConfig(config_id="acc-gamma", kind="risk_vs_gamma",
                      spec=pure_noise_d1,
                      n_grid=(128, 256, 512, 1024), trials=10,
                      master_seed=SEED,
                      shrink_grid=(1.0, 0.7, 0.5, 0.35, 0.25))
    return experiments.run_sweep(cfg, moduli=moduli_d1, threads=4)


def _contract(result, name):
    for c in result.contracts:
        if c.name == name:
            return c
    raise KeyError(name)


# -- criteria ------------------------------------------------------------------


def test_criterion_01_packing(geometry_datasets):
    with _Timer() as t:
        violations = 0
        for d, datasets in geometry_datasets.items():
            for ds in datasets:
                violations += len(
                    geometry.check_packing(ds, geometry.nn_radii(ds)))
    _report(1, "packing", violations == 0,
            f"{sum(map(len, geometry_datasets.values()))} datasets, "
            f"{violations} violating pairs [{t.elapsed:.1f}s]")


def test_criterion_02_in_degree(geometry_datasets):
    with _Timer() as t:
        worst = {d: 0 for d in geometry_datasets}
        for d, datasets in geometry_datasets.items():
            for ds in datasets:
                deg = geometry.in_degrees(geometry.nn_graph(ds))
                worst[d] = max(worst[d], int(deg.max()))
        ok = all(worst[d] <= geometry.kissing_number(d)
                 for d in geometry_datasets)
    _report(2, "in-degree", ok,
            f"max in-degree per d: {worst} vs bounds {{1: 2, 2: 6, 3: 12}} "
            f"[{t.elapsed:.1f}s]")


def test_criterion_03_perturbation_stability(params_d1, params_d2):
    specs = {1: DistributionSpec(params=params_d1),
             2: DistributionSpec(params=params_d2)}
    with _Timer() as t:
        bad = 0
        mismatched_oracle = 0
        for d, spec in specs.items():
            bound = 1 + 2 * geometry.kissing_number(d)
            rng = np.random.default_rng(SEED + d)
            for trial in range(500):
                ds = model.sample(spec, 64,
                                  experiments.derive_seed(SEED, 3, d, trial))
                i = int(rng.integers(0, ds.n))
                new = model.sample_points(spec, 1, rng)[0]
                count = geometry.perturbation_changed_radii(ds, i, new)
                moved = ds.points.copy()
                moved[i] = new
                before = geometry.nn_radii_brute_force(ds)
                after = geometry.nn_radii_brute_force(
                    geometry.Dataset(points=moved, labels=ds.labels))
                oracle = int(np.count_nonzero(before != after))
                mismatched_oracle += count != oracle
                bad += count > bound
    _report(3, "perturbation stability", bad == 0 and mismatched_oracle == 0,
            f"1000 trials, {bad} bound violations, "
            f"{mismatched_oracle} oracle mismatches [{t.elapsed:.1f}s]")


def test_criterion_04_interpolation_exactness(
        geometry_datasets, params_d1, params_d2, params_d3,
        norm_sweep_d1, norm_sweep_d3, risk_sweep_bump, gamma_sweep):
    params = {1: params_d1, 2: params_d2, 3: params_d3}
    with _Timer() as t:
        worst = 0.0
        for d, datasets in geometry_datasets.items():
            for ds in datasets[:100]:
                f = interpolant.build(ds, geometry.nn_radii(ds), 1.0,
                                      params[d])
                resid = np.abs(interpolant.evaluate(f, ds.points) - ds.labels)
                worst = max(worst, float(resid.max()))
        sweep_ok = all(
            _contract(res, f"{res.sweep}.interpolation_violations").passed
            for res in (norm_sweep_d1, norm_sweep_d3, risk_sweep_bump,
                        gamma_sweep))
    _report(4, "interpolation exactness", worst <= 1e-9 and sweep_ok,
            f"max residual {worst:.2e} over 300 direct builds; inline sweep "
            f"checks clean [{t.elapsed:.1f}s]")


def test_criterion_05_bump_scaling_identity(moduli_d1, moduli_d2, moduli_d3):
    with _Timer() as t:
        worst = 0.0
        for moduli in (moduli_d1, moduli_d2, moduli_d3):
            p = moduli.params.p
            by_class = {}
            for alpha in moduli.indices:
                rep = tuple(sorted(alpha))
                for delta in (0.25, 0.5, 2.0, 4.0):
                    if (rep, delta) not in by_class:
                        # a fixed box rule, independent of how the table
                        # was built (its entries count radial panels)
                        by_class[rep, delta] = \
                            integrate_partial_power_fixed(
                                rep, p, delta, panels=8)
                    # D^alpha integrals are permutation-invariant, so the
                    # class representative's quadrature covers alpha
                    direct = by_class[rep, delta]
                    formula = scaled_seminorm(alpha, delta, moduli)
                    worst = max(worst, abs(direct - formula) / formula)
    _report(5, "bump scaling identity", worst <= 1e-6,
            f"max rel error {worst:.2e} across (d,k) in "
            f"{{(1,1),(2,1),(3,2)}}, deltas {{1/4,1/2,2,4}} [{t.elapsed:.1f}s]")


def test_criterion_06_norm_slope(norm_sweep_d1, norm_sweep_d3):
    with _Timer() as t:
        s1 = _contract(norm_sweep_d1, "norm_vs_n.slope")
        s3 = _contract(norm_sweep_d3, "norm_vs_n.slope")
        bounds_ok = all(
            _contract(res, "norm_vs_n.norm_bound_violations").passed
            for res in (norm_sweep_d1, norm_sweep_d3))
    _report(6, "norm-vs-n slope", s1.passed and s3.passed and bounds_ok,
            f"slopes {s1.observed:.3f} (target 1.25 +- 0.3), "
            f"{s3.observed:.3f} (target {4/3:.3f} +- 0.3); explicit bound "
            f"violations 0 [{t.elapsed:.1f}s]")


def test_criterion_07_min_delta_and_subset(delta_sweep_d1, delta_sweep_d3):
    with _Timer() as t:
        checks = []
        detail = []
        for res, d in ((delta_sweep_d1, 1), (delta_sweep_d3, 3)):
            slope = _contract(res, "delta_subset.min_delta_slope")
            freq = _contract(res, "delta_subset.size_frequency")
            member = _contract(res, "delta_subset.subset_membership_violations")
            checks += [slope.passed, freq.passed, member.passed]
            detail.append(f"d={d}: slope {slope.observed:.3f} "
                          f"(target {-1/d:.3f} +- 0.2), "
                          f"P(|B| >= rho n/8) = {freq.observed:.2f}")
    _report(7, "min-delta slope and subset size", all(checks),
            "; ".join(detail) + f" [{t.elapsed:.1f}s]")


def test_criterion_08_weighted_delta_sum(params_d2):
    spec = DistributionSpec(params=params_d2)
    cfg = SweepConfig(config_id="acc-weighted", kind="weighted_delta_sum",
                      spec=spec, beta=0.8,
                      n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
                      trials=20, master_seed=SEED)
    with _Timer() as t:
        res = experiments.run_sweep(cfg, threads=4)
        slope = _contract(res, "weighted_delta_sum.slope")
    _report(8, "weighted delta-sum slope", res.all_passed,
            f"slope {slope.observed:.3f} (target 1.4 +- 0.3) "
            f"[{t.elapsed:.1f}s]")


def test_criterion_09_conditional_loss(params_d2):
    g = bump.BumpSum(centers=[[0.0, 0.0], [0.5, 0.0]], radii=[0.2, 0.15],
                     weights=[1.0, -0.5])
    spec = DistributionSpec(params=params_d2, ground_truth=g,
                            sigma_kind="quadratic", sigma_a=0.25, sigma_b=1.0)
    with _Timer() as t:
        rng = np.random.default_rng(SEED)
        xs = model.sample_points(spec, 10, rng)
        worst_z = 0.0
        for x in xs:
            y_hat = float(rng.normal())
            sig = math.sqrt(spec.sigma_sq_values(x))
            draws = spec.g_values(x) + sig * rng.standard_normal(100_000)
            vals = (y_hat - draws) ** 2
            se = float(vals.std(ddof=1)) / math.sqrt(len(vals))
            gap = abs(float(vals.mean())
                      - model.conditional_loss(spec, y_hat, x))
            worst_z = max(worst_z, gap / se)
        # check_noise_constants raises if the rho / sub-Gaussian tail
        # checks fail
        nc = model.check_noise_constants(spec, seed=SEED)
        rho_ok = 0.1 <= nc.rho
    _report(9, "conditional-loss closed form", worst_z <= 3.0 and rho_ok,
            f"max |MC - formula| = {worst_z:.2f} stderr over 10 probes; "
            f"rho = {nc.rho:.5f} >= 0.1; tail checks passed "
            f"[{t.elapsed:.1f}s]")


def test_criterion_10_bump_risk_plateau(risk_sweep_bump):
    with _Timer() as t:
        ratio = _contract(risk_sweep_bump, "risk_vs_n.plateau_ratio")
        floor = _contract(risk_sweep_bump, "risk_vs_n.floor")
        oracle = _contract(risk_sweep_bump,
                           "risk_vs_n.mc_oracle_agreement_violations")
        ns, med = experiments._medians(risk_sweep_bump.rows, "excess_risk")
    _report(10, "bump risk plateau",
            ratio.passed and floor.passed and oracle.passed,
            f"median risk {med[0]:.3f} -> {med[-1]:.3f} over n "
            f"{ns[0]}..{ns[-1]} (ratio {ratio.observed:.2f} >= 0.2), min "
            f"estimate {floor.observed:.3f} >= 0.01, MC/oracle agreement "
            f"clean [{t.elapsed:.1f}s]")


def test_criterion_11_kernel_risk_plateau(pure_noise_d3):
    cfg = SweepConfig(config_id="acc-risk-kernel", kind="risk_vs_n",
                      spec=pure_noise_d3,
                      predictor="kernel", kernel_nu=0.5,
                      n_grid=(64, 128, 256, 512, 1024, 2048),
                      trials=10, master_seed=SEED, mc_samples=50_000,
                      plateau_ratio=0.1)
    with _Timer() as t:
        res = experiments.run_sweep(cfg, threads=4)
        ratio = _contract(res, "risk_vs_n.plateau_ratio")
        floor = _contract(res, "risk_vs_n.floor")
        ns, med = experiments._medians(res.rows, "excess_risk")
    _report(11, "kernel risk plateau", ratio.passed and floor.passed,
            f"median risk {med[0]:.3f} -> {med[-1]:.3f} over n "
            f"{ns[0]}..{ns[-1]} (ratio {ratio.observed:.2f} >= 0.1, floor "
            f"{floor.observed:.3f} >= 0.01) [{t.elapsed:.1f}s]")


def test_criterion_12_gamma_envelope(gamma_sweep):
    with _Timer() as t:
        exponent = _contract(gamma_sweep, "risk_vs_gamma.exponent")
    _report(12, "gamma-sweep envelope", exponent.passed,
            f"fitted exponent {exponent.observed:.3f} >= -5.75 "
            f"(reference -5) [{t.elapsed:.1f}s]")


def test_criterion_13_morrey_exact(params_d1):
    with _Timer() as t:
        total = 0
        bad = 0
        for p in (1.25, 2.0):
            params = bump.SobolevParams(k=1, p=p, d=1)
            rep = morrey.morrey_check(params, trials=5000, seed=SEED)
            total += rep.trials
            bad += len(rep.violations)
    _report(13, "Morrey exact variant", bad == 0,
            f"{total} randomized trials across p in {{1.25, 2}}, "
            f"{bad} violations [{t.elapsed:.1f}s]")


def test_criterion_14_domain_ball_fraction(params_d1, params_d2, params_d3):
    with _Timer() as t:
        details = []
        ok = True
        for params in (params_d1, params_d2, params_d3):
            spec = DistributionSpec(params=params)
            x0 = np.zeros(params.d)
            x0[0] = 1.0
            frac, _ = model.domain_ball_fraction(spec, x0, 2.0, 1_000_000,
                                                 seed=SEED)
            gap = abs(frac - 2.0 ** -params.d)
            ok &= gap <= 0.02
            details.append(f"d={params.d}: {frac:.4f} vs {2.0 ** -params.d}")
    _report(14, "domain-ball fraction", ok,
            "; ".join(details) + f" [{t.elapsed:.1f}s]")


def test_criterion_15_determinism(tmp_path, pure_noise_d1, moduli_d1):
    cfg = SweepConfig(config_id="acc-det", kind="risk_vs_n",
                      spec=pure_noise_d1,
                      n_grid=(64, 128, 256, 512), trials=5,
                      master_seed=SEED, mc_samples=20_000)
    with _Timer() as t:
        experiments.run(cfg, tmp_path / "t1", threads=1, moduli=moduli_d1)
        experiments.run(cfg, tmp_path / "t4", threads=4, moduli=moduli_d1)
        names = [p.name for p in sorted((tmp_path / "t1").iterdir())]
        same = all(
            (tmp_path / "t1" / name).read_bytes()
            == (tmp_path / "t4" / name).read_bytes()
            for name in names)
    _report(15, "determinism", same and len(names) >= 2,
            f"{len(names)} artifacts byte-identical at thread counts "
            f"{{1, 4}} [{t.elapsed:.1f}s]")
