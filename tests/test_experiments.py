import math
import re
import threading
import typing

import numpy as np
import pytest

from conftest import count_trees, random_dataset
from sobolab import (bump, config, experiments, geometry, interpolant,
                     model, rkhs)
from sobolab.errors import ConfigInvalid, InvalidRange
from sobolab.experiments import SweepConfig, derive_seed, fit_loglog


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

    @pytest.mark.parametrize("lengthscale", [math.inf, math.nan])
    def test_kernel_nonfinite_lengthscale_rejected(self, pure_noise_d1,
                                                   lengthscale):
        # an infinite lengthscale makes every kernel matrix all ones, which
        # no jitter rung can solve
        cfg = small_config(pure_noise_d1, kind="risk_vs_n",
                           predictor="kernel", kernel_nu=0.5,
                           kernel_lengthscale=lengthscale)
        with pytest.raises(ConfigInvalid,
                           match=r"sweep\.nu, sweep\.lengthscale: .*finite"):
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

    @pytest.mark.parametrize("name, stub", [
        # a NaN norm compares False with its bound
        ("sobolev_norm", lambda f, moduli: math.nan),
        # every norm meets an infinite bound, inf included
        ("min_norm_upper_bound", lambda ds, radii, moduli: math.inf),
    ], ids=["nan-norm", "infinite-bound"])
    def test_non_finite_fails_the_bound(self, pure_noise_d1, monkeypatch,
                                        name, stub):
        monkeypatch.setattr(interpolant, name, stub)
        cfg = small_config(pure_noise_d1)
        result = experiments.run_sweep(cfg)
        contract, = [c for c in result.contracts
                     if c.name == "norm_vs_n.norm_bound_violations"]
        assert contract.observed == len(cfg.n_grid) * cfg.trials
        assert not contract.passed

    def test_non_finite_residuals_are_violations(self):
        residual = np.array([0.0, np.nan, np.inf, -np.inf])
        assert experiments._interpolation_violations(residual) == 2

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
        # one evaluation at the data points feeds the interpolation count;
        # a budget below one Monte Carlo chunk adds one more per shrink
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

    def test_interpolation_miss_fails_its_contract(self, params_d2,
                                                   moduli_d2, monkeypatch):
        # a miss is a failed contract, as in the other sweeps, not an error
        monkeypatch.setattr(interpolant, "INTERPOLATION_TOL", -1.0)
        cfg = small_config(model.DistributionSpec(params=params_d2),
                           kind="risk_vs_gamma", n_grid=(16, 32, 48, 64),
                           shrink_grid=(1.0, 0.5), mc_samples=1000)
        res = experiments.run_sweep(cfg, moduli=moduli_d2)
        by_name = {c.name: c for c in res.contracts}
        miss = by_name["risk_vs_gamma.interpolation_violations"]
        assert not miss.passed
        assert miss.observed == 64 * len(cfg.shrink_grid) * cfg.trials


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

    @pytest.mark.parametrize("bumps, error", [
        ("0.0 0.2 1.5\n    0.6 nan -0.5", "line 2: non-numeric or non-finite"),
        ("0.0 0.2 1.5\n    0.3 0.2 -0.5", "supports of bumps 0 and 1 overlap"),
        ("0.0 0.2 1_5", "line 1: non-numeric or non-finite"),
    ], ids=["nan", "overlap", "underscore"])
    def test_config_bad_bumps_name_the_key(self, tmp_path, bumps, error):
        ini = tmp_path / "cfg.ini"
        ini.write_text(MINIMAL_INI.replace(
            "[distribution]",
            f"[distribution]\nground_truth = bumps\nbumps =\n    {bumps}"))
        with pytest.raises(ConfigInvalid,
                           match=f"^{re.escape(str(ini))}: "
                                 f"distribution\\.bumps: {error}"):
            config.load_distribution(ini)
