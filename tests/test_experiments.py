import math
import re
import threading
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import count_trees, random_dataset
from morrey_oracle import morrey_trial_oracle
from sobolab import bump, config, experiments, geometry, model, rkhs
from sobolab.errors import (
    ConfigInvalid,
    InvalidRange,
    MalformedInput,
    MismatchedLengths,
    NonpositiveRadius,
    QuadratureNotConverged,
    SobolabError,
    UnsupportedExactVariant,
)
from sobolab.experiments import (
    MORREY_BLOCK,
    SweepConfig,
    derive_seed,
    fit_loglog,
    morrey_check,
    morrey_exact_batch,
    morrey_exact_trial,
)


MINIMAL_INI = """
[params]
k = 1
p = 1.25
d = 1

[distribution]
radius = 1.0
density = uniform
sigma = constant
sigma_a = 1.0

[sweep]
id = mini
kind = norm_vs_n
n_grid = 32 64 128 256
trials = 5
seed = 4242
"""


def small_config(spec, **overrides):
    base = dict(config_id="t", kind="norm_vs_n", spec=spec,
                n_grid=(32, 64, 128, 256), trials=5, master_seed=7)
    base.update(overrides)
    return SweepConfig(**base)


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(1, 64, 0)
        assert a == derive_seed(1, 64, 0)
        assert a != derive_seed(1, 64, 1)
        assert a != derive_seed(2, 64, 0)


class TestFit:
    def test_exact_power_law(self):
        ns = [10, 100, 1000, 10000]
        vals = [3.0 * n ** 1.7 for n in ns]
        fit = fit_loglog(ns, vals)
        assert fit.slope == pytest.approx(1.7, abs=1e-12)
        assert fit.slope_stderr == pytest.approx(0.0, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)


class TestValidation:
    def test_config_annotations_resolve(self):
        hints = typing.get_type_hints(experiments.SweepConfig)
        assert hints["spec"] is model.DistributionSpec

    def test_beta_boundary_rejected(self, params_d2):
        spec = model.DistributionSpec(params=params_d2)
        cfg = small_config(spec, kind="weighted_delta_sum",
                           beta=1.0)  # = d/2
        with pytest.raises(ConfigInvalid, match="beta"):
            cfg.validate()

    def test_beta_runtime_guard(self, params_d2):
        spec = model.DistributionSpec(params=params_d2)
        cfg = small_config(spec, kind="weighted_delta_sum",
                           beta=0.8)
        object.__setattr__(cfg, "beta", 1.0)
        with pytest.raises(ConfigInvalid, match="beta"):
            experiments.run_sweep(cfg)

    def test_short_grid_rejected(self, pure_noise_d1):
        cfg = small_config(pure_noise_d1, n_grid=(8, 16, 32))
        with pytest.raises(ConfigInvalid, match="n_grid"):
            cfg.validate()

    def test_missing_seed(self, pure_noise_d1):
        cfg = small_config(pure_noise_d1, master_seed=None)
        with pytest.raises(ConfigInvalid, match="seed"):
            cfg.validate()

    def test_norm_sweep_needs_strict_range(self, pure_noise_d1):
        loose = bump.SobolevParams(k=1, p=3.0, d=1)
        spec = model.DistributionSpec(params=loose)
        cfg = small_config(spec)
        with pytest.raises(InvalidRange):
            experiments.run_sweep(cfg)

    @pytest.mark.parametrize("kind", ["risk_vs_n", "risk_vs_gamma"])
    def test_mc_samples_rejected(self, pure_noise_d1, kind):
        cfg = small_config(pure_noise_d1, kind=kind, mc_samples=99)
        with pytest.raises(ConfigInvalid, match="mc_samples"):
            cfg.validate()

    @pytest.mark.parametrize("field, value", [
        ("plateau_ratio", math.nan), ("plateau_ratio", 0.0),
        ("plateau_ratio", math.inf), ("risk_floor", math.nan),
        ("risk_floor", -0.01), ("risk_floor", math.inf),
    ])
    def test_plateau_thresholds_rejected(self, pure_noise_d1, field, value):
        cfg = small_config(pure_noise_d1, kind="risk_vs_n", **{field: value})
        with pytest.raises(ConfigInvalid, match=f"sweep.{field}"):
            cfg.validate()

    def test_kernel_n_above_dense_cap_rejected(self, pure_noise_d1):
        top = rkhs.DENSE_SOLVE_MAX_N + 1
        cfg = small_config(pure_noise_d1, kind="risk_vs_n",
                           predictor="kernel", kernel_nu=0.5,
                           n_grid=(64, 128, 256, top))
        with pytest.raises(ConfigInvalid, match="n_grid"):
            cfg.validate()

    def test_kernel_unsupported_nu_rejected(self, pure_noise_d1,
                                            pure_noise_d3):
        # the default nu = k - d/2 is 0.5 for (k, d) = (2, 3), -0.5 for (1, 3)
        cfg = small_config(pure_noise_d3, kind="risk_vs_n",
                           predictor="kernel")
        assert cfg.validate().kernel_spec.nu == 0.5
        loose = bump.SobolevParams(k=1, p=4.0, d=3)
        cfg = small_config(model.DistributionSpec(params=loose),
                           kind="risk_vs_n", predictor="kernel")
        with pytest.raises(ConfigInvalid, match="supported nu"):
            cfg.validate()
        cfg = small_config(pure_noise_d1, kind="risk_vs_n",
                           predictor="kernel", kernel_nu=2.5)
        with pytest.raises(ConfigInvalid, match="supported nu"):
            cfg.validate()

    def test_kernel_nonpositive_lengthscale_rejected(self, pure_noise_d1):
        cfg = small_config(pure_noise_d1, kind="risk_vs_n",
                           predictor="kernel", kernel_nu=0.5,
                           kernel_lengthscale=0.0)
        with pytest.raises(ConfigInvalid, match="lengthscale must be positive"):
            cfg.validate()

    def test_shrink_grid_rejected(self, pure_noise_d1):
        cfg = small_config(pure_noise_d1, kind="risk_vs_gamma",
                           shrink_grid=(1.0, 0.0))
        with pytest.raises(ConfigInvalid, match="shrink_grid"):
            cfg.validate()

    @pytest.mark.parametrize("grid", [(0.5, 0.5), (0.5,), ()])
    def test_degenerate_shrink_grid_rejected(self, pure_noise_d1, grid):
        # one distinct shrink leaves no risk-against-gamma slope to fit
        cfg = small_config(pure_noise_d1, kind="risk_vs_gamma",
                           shrink_grid=grid)
        with pytest.raises(ConfigInvalid, match="two distinct"):
            cfg.validate()

    @pytest.mark.parametrize("predictor", ["kernel", "bayes"])
    def test_gamma_sweep_non_bump_predictor_rejected(self, pure_noise_d1,
                                                     predictor):
        cfg = small_config(pure_noise_d1, kind="risk_vs_gamma",
                           predictor=predictor)
        with pytest.raises(ConfigInvalid, match="sweep.predictor"):
            cfg.validate()


class TestRunTrials:
    def test_pool_starts_largest_n_first_and_keeps_job_order(self):
        jobs = [(n, t) for n in (8, 16, 32, 64) for t in range(3)]
        started = []
        lock = threading.Lock()

        def worker(job):
            with lock:
                started.append(job)
            return job[0] * 10 + job[1]

        serial = experiments._run_trials(jobs, worker, threads=1)
        assert started == jobs
        started.clear()
        pooled = experiments._run_trials(jobs, worker, threads=2)
        assert started[0][0] == 64
        assert sorted(started) == jobs
        assert pooled == serial == [n * 10 + t for n, t in jobs]


class TestNormTrial:
    def test_builds_only_the_datasets_tree(self, pure_noise_d3, moduli_d3,
                                           monkeypatch):
        # the packing check and the interpolation residual are certified;
        # only the dataset's nearest-neighbor search needs a tree
        cfg = small_config(pure_noise_d3, n_grid=(256,))
        built = count_trees(monkeypatch)
        ds = model.sample(cfg.spec, 256, derive_seed(cfg.master_seed, 256, 0))
        radii = geometry.nn_radii(ds)
        metrics, checks = experiments._norm_trial(cfg, moduli_d3, ds, radii,
                                                  256, 0)
        assert built == [256]
        assert checks == {"packing": 0, "interpolation": 0, "norm_bound": 0}
        assert [name for name, _ in metrics] == ["norm_p", "norm_bound"]

    def test_gamma_trial_builds_only_the_datasets_tree(self, params_d2,
                                                       moduli_d2, monkeypatch):
        # the Monte Carlo risk of every shrink pairs its points with the
        # supports through the interpolant's cell grid, not a tree
        spec = model.DistributionSpec(params=params_d2, density="parabolic",
                                      tilt=0.5)
        cfg = small_config(spec, kind="risk_vs_gamma",
                           n_grid=(256,),
                           shrink_grid=(1.0, 0.7, 0.5, 0.35, 0.25),
                           mc_samples=2000)
        built = count_trees(monkeypatch)
        ds = model.sample(cfg.spec, 256, derive_seed(cfg.master_seed, 256, 0))
        radii = geometry.nn_radii(ds)
        metrics, checks = experiments._gamma_trial(cfg, moduli_d2, ds, radii,
                                                   256, 0)
        assert built == [256]
        assert checks["interpolation"] == 0
        assert len(metrics) == 2 * len(cfg.shrink_grid)


class TestGammaTrial:
    def test_evaluates_each_shrink_at_the_data_once(self, params_d2,
                                                     moduli_d2, monkeypatch):
        # one evaluation at the data points feeds both the interpolation
        # count and gamma_report's check; a budget below one Monte Carlo
        # chunk adds one more per shrink
        spec = model.DistributionSpec(params=params_d2, density="parabolic",
                                      tilt=0.5)
        cfg = small_config(spec, kind="risk_vs_gamma",
                           n_grid=(64,), shrink_grid=(1.0, 0.5, 0.25),
                           mc_samples=1000)
        ds = random_dataset(np.random.default_rng(5), 64, 2, box=0.6)
        radii = geometry.nn_radii(ds)
        calls = []
        evaluate = bump.BumpSum.__call__

        def counted(f, x):
            calls.append(np.shape(x))
            return evaluate(f, x)

        monkeypatch.setattr(bump.BumpSum, "__call__", counted)
        metrics, checks = experiments._gamma_trial(cfg, moduli_d2, ds, radii,
                                                   64, 0)
        assert len(calls) == 2 * len(cfg.shrink_grid)
        assert calls.count(ds.points.shape) == len(cfg.shrink_grid)
        assert checks["interpolation"] == 0
        assert len(metrics) == 2 * len(cfg.shrink_grid)


class TestSweeps:
    def test_norm_sweep_contracts(self, pure_noise_d1, moduli_d1):
        cfg = small_config(pure_noise_d1)
        res = experiments.run_sweep(cfg, moduli=moduli_d1)
        assert res.all_passed
        assert res.fits["norm_p"].slope == pytest.approx(1.25, abs=0.3)

    def test_zero_labels_flat(self, params_d1, moduli_d1, monkeypatch):
        # doubling n with all labels zero keeps norm^p at zero
        cfg = small_config(model.DistributionSpec(params=params_d1),
                           kind="delta_subset")
        real_sample = model.sample

        def zero_label_sample(spec, n, seed):
            ds = real_sample(spec, n, seed)
            from sobolab.geometry import Dataset
            return Dataset(points=ds.points, labels=np.zeros(n))

        monkeypatch.setattr(model, "sample", zero_label_sample)
        res = experiments.run_sweep(cfg)  # labels all zero
        sizes = [r["value"] for r in res.rows if r["metric"] == "subset_size"]
        assert all(s == 0 for s in sizes)  # W never fires without noise

    def test_delta_sweep_contracts(self, pure_noise_d1):
        cfg = small_config(pure_noise_d1, kind="delta_subset",
                           n_grid=(64, 128, 256, 512, 1024), trials=10)
        res = experiments.run_sweep(cfg)
        by_name = {c.name: c for c in res.contracts}
        assert by_name["delta_subset.min_delta_slope"].passed
        assert by_name["delta_subset.size_frequency"].passed

    def test_weighted_sweep(self, params_d2):
        spec = model.DistributionSpec(params=params_d2)
        cfg = small_config(spec, kind="weighted_delta_sum",
                           beta=0.8, n_grid=(64, 128, 256, 512), trials=8)
        res = experiments.run_sweep(cfg)
        assert res.all_passed
        assert res.fits["weighted_delta_sum"].slope == pytest.approx(
            1.4, abs=0.3)

    def test_bayes_control(self, pure_noise_d1):
        cfg = small_config(pure_noise_d1, kind="risk_vs_n",
                           predictor="bayes", mc_samples=1000)
        res = experiments.run_sweep(cfg)
        by_name = {c.name: c for c in res.contracts}
        assert by_name["risk_vs_n.bayes_control"].passed

    def test_contract_failure_reported(self, pure_noise_d1, moduli_d1):
        cfg = small_config(pure_noise_d1, kind="risk_vs_n",
                           mc_samples=2000, risk_floor=1e9)
        res = experiments.run_sweep(cfg, moduli=moduli_d1)
        assert not res.all_passed


@st.composite
def _morrey_trial(draw):
    """One Morrey trial: 1-5 bumps in a row, some with exactly touching
    supports (dyadic centres and radii, so the touching is exact), and an
    interval [x0 - 2 delta, x0 + 2 delta] anywhere from inside one support
    to clear of every bump."""
    m = draw(st.integers(1, 5))
    radii = draw(st.lists(st.integers(16, 512), min_size=m, max_size=m))
    gaps = draw(st.lists(st.one_of(st.just(0), st.integers(1, 400)),
                         min_size=m - 1, max_size=m - 1))
    centers = [draw(st.integers(-1536, 0)) + radii[0]]
    for gap, r0, r1 in zip(gaps, radii, radii[1:]):
        centers.append(centers[-1] + r0 + gap + r1)
    weights = draw(st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m))
    u = bump.BumpSum(centers=np.array(centers)[:, None] / 1024.0,
                     radii=np.array(radii) / 1024.0, weights=weights)
    x0 = draw(st.floats(-3.0, 3.0))
    delta = draw(st.floats(0.005, 1.0))
    x1 = x0 + draw(st.floats(-1.0, 1.0)) * delta
    return u, x0, x1, delta


def _assert_matches_oracle(got, want):
    """The left-hand sides to the bit; the right-hand sides within 1e-9
    relative or 1e-300 absolute.

    The oracle integrates |u'|^p in x over breakpoint panels, the check the
    profile in s = |x - c| / r over band pieces, so their right-hand sides
    differ in the last bits.  The oracle's ladder tests sums below 1e-300
    in absolute terms only: it stops within about 1e-310 of the integral
    of a bump of tiny weight, which then differs from the check's in the
    seventh digit."""
    assert len(got) == len(want)
    for (lhs, rhs), (lhs_want, rhs_want) in zip(got, want):
        assert lhs == lhs_want
        assert math.isclose(rhs, rhs_want, rel_tol=1e-9, abs_tol=1e-300), \
            (rhs, rhs_want)


def _meets_no_band(u, x0, delta):
    """True when [x0 - 2 delta, x0 + 2 delta] meets the band of no bump of
    nonzero weight in more than a point: u' = 0 there, and the right-hand
    side is an exact 0."""
    a, b = x0 - 2.0 * delta, x0 + 2.0 * delta
    return all(w == 0.0 or ((b <= c - r or a >= c - r / 2.0)
                            and (b <= c + r / 2.0 or a >= c + r))
               for c, r, w in zip(u.centers[:, 0], u.radii, u.weights))


class TestMorrey:
    def test_constant_function_trivial(self, params_d1):
        u = bump.BumpSum(centers=[[0.0]], radii=[0.3], weights=[0.0])
        lhs, rhs = morrey_exact_trial(u, 0.1, 0.2, 0.3, params_d1.p)
        assert lhs == 0.0
        assert rhs == 0.0

    def test_single_unit_bump_hand_case(self):
        # u = psi with support radius 1; x1 = 0.8 sits off the plateau so
        # the oscillation is genuinely positive
        u = bump.BumpSum(centers=[[0.0]], radii=[1.0], weights=[1.0])
        lhs, rhs = morrey_exact_trial(u, 0.0, 0.8, 0.9, 2.0)
        assert lhs <= rhs + 1e-9
        assert lhs > 0.0

    def test_unconverged_integral_raises(self):
        # the smooth integrand settles to the last bit within six halvings,
        # so only a negative tolerance is out of reach
        u = bump.BumpSum(centers=[[0.0]], radii=[1.0], weights=[1.0])
        with pytest.raises(QuadratureNotConverged, match="not converged"):
            morrey_exact_trial(u, 0.0, 0.8, 0.9, 2.0, rel_tol=-1.0)

    def test_unconverged_batch_names_first_trial(self):
        # both trials miss a negative tolerance; the error names the
        # interval of the first
        u = bump.BumpSum(centers=[[0.0]], radii=[1.0], weights=[1.0])
        v = bump.BumpSum(centers=[[0.5]], radii=[0.25], weights=[-2.0])
        with pytest.raises(QuadratureNotConverged) as caught:
            morrey_exact_batch([u, v], [0.0, 0.4], [0.8, 0.5], [0.9, 0.1],
                               2.0, rel_tol=-1.0)
        assert re.search(r"over \[-1\.8, 1\.8\] not converged to rel -1 "
                         r"after \d+ panels", str(caught.value))

    @pytest.mark.parametrize("x0, delta", [
        (2.0, 0.1),      # [a, b] meets no bump: the integral is exactly 0
        (0.35, 0.05),    # [a, b] covers the outer half of the band only
        (0.1, 0.05),     # inside the plateau: u' = 0 on all of [a, b]
    ])
    def test_edge_intervals_match_oracle(self, x0, delta):
        u = bump.BumpSum(centers=[[0.0]], radii=[0.4], weights=[1.5])
        got = morrey_exact_trial(u, x0, x0 + 0.5 * delta, delta, 1.25)
        want = morrey_trial_oracle(u, x0, x0 + 0.5 * delta, delta, 1.25)
        _assert_matches_oracle([got], [want])
        assert (got[1] == 0.0) == _meets_no_band(u, x0, delta)

    @pytest.mark.parametrize("weight, radius", [(1.0, 1.0), (-2.5, 0.3)])
    def test_rhs_at_p_one_is_the_total_variation(self, weight, radius):
        # p = 1: each side of a bump inside the interval adds |w|, the
        # variation of w psi from 1 to 0, whatever its radius
        u = bump.BumpSum(centers=[[0.2]], radii=[radius], weights=[weight])
        _, rhs = morrey_exact_trial(u, 0.2, 0.3, radius, 1.0)
        assert rhs == pytest.approx(2.0 * abs(weight), rel=1e-12)

    @given(st.sampled_from([1.0, 1.25, 2.0, 3.5]),
           st.sampled_from([1, MORREY_BLOCK - 1, MORREY_BLOCK,
                            MORREY_BLOCK + 1]).flatmap(
               lambda size: st.lists(_morrey_trial(), min_size=size,
                                     max_size=size)))
    def test_batch_matches_oracle(self, p, trials):
        sums, x0, x1, delta = zip(*trials)
        got = morrey_exact_batch(sums, x0, x1, delta, p)
        want = [morrey_trial_oracle(*trial, p) for trial in trials]
        _assert_matches_oracle(got, want)
        for (u, x0, _, d), (_, rhs), (_, rhs_want) in zip(trials, got, want):
            if _meets_no_band(u, x0, d):
                assert rhs == rhs_want == 0.0
        # each trial gets the same bits alone as in the batch
        assert [morrey_exact_trial(*trial, p) for trial in trials] == got

    @pytest.mark.parametrize("seed", [0x5EE9, 781508])
    def test_check_matches_oracle_loop(self, params_d1, seed):
        trials = 3 * MORREY_BLOCK + 5
        # the draws of morrey_check, trial after trial, through the oracle
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x30]))
        draws, checked, violations = [], [], []
        for t in range(trials):
            u = experiments._random_bump_sum(rng, 1)
            x0 = float(rng.uniform(-1.5, 1.5))
            delta = float(rng.uniform(0.01, 0.75))
            x1 = x0 + float(rng.uniform(-1.0, 1.0)) * delta
            lhs, rhs = morrey_trial_oracle(u, x0, x1, delta, params_d1.p)
            draws.append((u, x0, x1, delta))
            checked.append((lhs, rhs))
            if lhs > rhs + 1e-9:
                violations.append({"trial": t, "lhs": lhs, "rhs": rhs,
                                   "x0": x0, "x1": x1, "delta": delta})
        rep = morrey_check(params_d1, trials=trials, seed=seed)
        assert ([v["trial"] for v in rep.violations]
                == [v["trial"] for v in violations])
        _assert_matches_oracle(morrey_exact_batch(*zip(*draws), params_d1.p),
                               checked)

    @pytest.mark.parametrize("x0, x1, delta, p, error", [
        (0.1, 0.2, -0.3, 1.25, NonpositiveRadius),
        (0.1, 0.2, 0.0, 1.25, NonpositiveRadius),
        (math.nan, 0.2, 0.3, 1.25, MalformedInput),
        (0.1, math.inf, 0.3, 1.25, MalformedInput),
        (0.1, 0.2, math.nan, 1.25, MalformedInput),
        (0.1, 0.2, 0.3, 0.5, InvalidRange),
        (0.1, 0.2, 0.3, math.nan, InvalidRange),
        (0.1, 0.2, 0.3, math.inf, InvalidRange),
    ])
    def test_bad_trial_inputs_rejected(self, x0, x1, delta, p, error):
        u = bump.BumpSum(centers=[[0.0]], radii=[1.0], weights=[1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic
            with pytest.raises(error):
                morrey_exact_trial(u, x0, x1, delta, p)

    def test_batch_shape_checks(self):
        u = bump.BumpSum(centers=[[0.0]], radii=[1.0], weights=[1.0])
        flat = bump.BumpSum(centers=[[0.0, 0.0]], radii=[1.0], weights=[1.0])
        with pytest.raises(MismatchedLengths):
            morrey_exact_trial(flat, 0.1, 0.2, 0.3, 2.0)
        with pytest.raises(MismatchedLengths):
            morrey_exact_batch([u, u], [0.1], [0.2, 0.2], [0.3, 0.3], 2.0)
        assert morrey_exact_batch([], [], [], [], 2.0) == []

    @pytest.mark.parametrize("kwargs", [
        dict(delta_range=(-0.1, 0.2)),
        dict(delta_range=(0.0, 0.2)),
        dict(delta_range=(0.5, 0.2)),
        dict(delta_range=(0.1, math.inf)),
        dict(delta_range=(math.nan, 0.2)),
        dict(trials=0),
        dict(trials=2.5),
        dict(trials=True),
    ])
    @pytest.mark.parametrize("variant", ["exact", "diagnostic"])
    def test_bad_check_inputs_rejected(self, params_d1, kwargs, variant):
        args = {"trials": 5, "seed": 1, "variant": variant, **kwargs}
        with pytest.raises(SobolabError):
            morrey_check(params_d1, **args)

    def test_exact_variant_randomized(self, params_d1):
        rep = morrey_check(params_d1, trials=500, seed=11)
        assert rep.variant == "exact"
        assert rep.violations == []

    def test_diagnostic_variant(self, params_d2):
        rep = morrey_check(params_d2, trials=2, seed=13)
        assert rep.variant == "diagnostic"
        assert rep.passed
        assert rep.ratio_fine_max > 0.0

    def test_exact_variant_unavailable(self, params_d3):
        with pytest.raises(UnsupportedExactVariant):
            morrey_check(params_d3, trials=5, seed=1, variant="exact")


class TestRunAndPersistence:
    def test_unknown_format_rejected_before_the_sweep(self, tmp_path,
                                                      monkeypatch,
                                                      pure_noise_d1):
        calls = []
        monkeypatch.setattr(experiments, "run_sweep",
                            lambda *args, **kw: calls.append(args))
        cfg = small_config(pure_noise_d1)
        with pytest.raises(ConfigInvalid, match="format"):
            experiments.run(cfg, tmp_path / "out", fmt="xml")
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_minimal_config_files(self, tmp_path, moduli_d1):
        ini = tmp_path / "cfg.ini"
        ini.write_text(MINIMAL_INI)
        cfg = config.load_sweep(ini)
        res = experiments.run(cfg, tmp_path / "out", moduli=moduli_d1)
        assert res.all_passed
        rows = (tmp_path / "out" / "mini_rows.csv").read_text().splitlines()
        assert rows[0] == "sweep,n,trial,seed,metric,value,stderr"
        assert len(rows) > 1
        summary = (tmp_path / "out" / "mini_summary.json").read_text()
        assert '"all_passed": true' in summary
        assert (tmp_path / "out" / "mini_norm_p.dat").exists()

    def test_rerun_byte_identical_across_threads(self, tmp_path, moduli_d1):
        ini = tmp_path / "cfg.ini"
        ini.write_text(MINIMAL_INI)
        cfg = config.load_sweep(ini)
        experiments.run(cfg, tmp_path / "a", threads=1, moduli=moduli_d1)
        experiments.run(cfg, tmp_path / "b", threads=4, moduli=moduli_d1)
        for name in ("mini_rows.csv", "mini_summary.json", "mini_norm_p.dat"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_json_lines_format(self, tmp_path, moduli_d1):
        ini = tmp_path / "cfg.ini"
        ini.write_text(MINIMAL_INI)
        cfg = config.load_sweep(ini)
        experiments.run(cfg, tmp_path / "out", fmt="json-lines",
                        moduli=moduli_d1)
        import json
        lines = (tmp_path / "out" / "mini_rows.jsonl").read_text().splitlines()
        row = json.loads(lines[0])
        assert set(row) == set(experiments.CSV_COLUMNS)

    def test_seed_override(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text(MINIMAL_INI)
        cfg = config.load_sweep(ini, seed_override=99)
        assert cfg.master_seed == 99

    def test_config_beta_boundary_message_names_field(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text(MINIMAL_INI.replace(
            "kind = norm_vs_n", "kind = weighted_delta_sum\nbeta = 0.5"))
        with pytest.raises(ConfigInvalid, match="beta"):
            config.load_sweep(ini)

    def test_config_bumps_parse(self, tmp_path, params_d1):
        ini = tmp_path / "cfg.ini"
        ini.write_text("""
[params]
k = 1
p = 1.25
d = 1

[distribution]
ground_truth = bumps
bumps =
    0.0 0.2 1.5
    0.6 0.1 -0.5
sigma = quadratic
sigma_a = 0.25
sigma_b = 0.5
""")
        params, spec = config.load_distribution(ini)
        assert params == params_d1
        assert spec.ground_truth.n == 2
        assert spec.sigma_min == 0.5
        assert spec.g_values(np.array([0.0])) == 1.5
