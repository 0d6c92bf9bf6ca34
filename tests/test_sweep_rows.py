"""Every sweep kind's rows, contracts and fits against a recorded run.

``tests/data/sweep_rows.json`` holds the output of :func:`record` for the
small configs below, one per sweep kind and predictor, written before the
sweep kinds shared one driver.  The ``norm_d3`` entry, whose (1, 4, 3)
table takes the exact even-p moduli path, was recorded with the box
quadrature's table, before that path existed.  Any later change to the
sweeps must reproduce it: every row (key exactly, value and standard error
to 1e-9 relative, the tolerance of ``bench/reference``), every contract's
name and verdict, and every fit.

Re-record (only after a deliberate change of the numbers) with

    PYTHONPATH=src python tests/test_sweep_rows.py
"""

import json
import math
from pathlib import Path

import pytest

from sobolab import bump, experiments, model

DATA = Path(__file__).parent / "data" / "sweep_rows.json"
REL_TOL = 1e-9
SEED = 0x5EE9


def _configs():
    d1 = bump.SobolevParams(k=1, p=1.25, d=1)
    d2 = bump.SobolevParams(k=1, p=2.5, d=2)
    d3 = bump.SobolevParams(k=1, p=4.0, d=3)
    noise_d1 = model.DistributionSpec(params=d1)
    noise_d2 = model.DistributionSpec(params=d2)
    noise_d3 = model.DistributionSpec(params=d3)
    truth_d2 = bump.BumpSum(centers=[[0.0, 0.0], [0.5, 0.0], [-0.4, 0.4]],
                            radii=[0.2, 0.15, 0.2], weights=[1.0, -0.5, 0.8])
    tilted_d2 = model.DistributionSpec(
        params=d2, density="parabolic", tilt=0.5, ground_truth=truth_d2,
        sigma_kind="quadratic", sigma_a=0.25, sigma_b=1.0)
    grid = (32, 64, 128, 256)
    base = dict(n_grid=grid, trials=5, master_seed=SEED, mc_samples=2000)
    specs = [
        ("norm_d1", "norm_vs_n", noise_d1, {}),
        ("delta_d1", "delta_subset", noise_d1,
         dict(n_grid=(64, 128, 256, 512))),
        ("weighted_d2", "weighted_delta_sum", noise_d2, dict(beta=0.8)),
        ("risk_bump_d1", "risk_vs_n", noise_d1, dict(shrink=0.7)),
        ("risk_bump_d2_tilted", "risk_vs_n", tilted_d2, {}),
        ("norm_d3", "norm_vs_n", noise_d3, {}),
        ("risk_kernel_d3", "risk_vs_n", noise_d3,
         dict(predictor="kernel", kernel_nu=0.5, plateau_ratio=0.1)),
        ("risk_bayes_d1", "risk_vs_n", noise_d1, dict(predictor="bayes")),
        ("gamma_d2_tilted", "risk_vs_gamma", tilted_d2, {}),
        ("morrey_exact_d1", "morrey", noise_d1, dict(trials=50)),
        ("morrey_diagnostic_d2", "morrey", noise_d2, {}),
    ]
    return {
        cid: experiments.SweepConfig(config_id=cid, kind=kind, spec=spec,
                                     **{**base, **extra})
        for cid, kind, spec, extra in specs
    }


def _snapshot(result):
    return {
        "rows": [[r["sweep"], r["n"], r["trial"], r["seed"], r["metric"],
                  r["value"], r["stderr"]] for r in result.rows],
        "contracts": [[c.name, c.passed] for c in result.contracts],
        "fits": {name: [f.slope, f.slope_stderr, f.intercept, f.points]
                 for name, f in sorted(result.fits.items())},
    }


def record(path=DATA):
    snapshots = {cid: _snapshot(experiments.run_sweep(cfg, threads=2))
                 for cid, cfg in _configs().items()}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(snapshots, indent=1, sort_keys=True) + "\n")


def _close(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("config_id", sorted(_configs()))
def test_sweep_matches_record(config_id, recorded):
    want = recorded[config_id]
    got = _snapshot(experiments.run_sweep(_configs()[config_id], threads=2))
    assert len(got["rows"]) == len(want["rows"])
    for g, w in zip(got["rows"], want["rows"]):
        assert g[:5] == w[:5]
        assert _close(g[5], w[5]) and _close(g[6], w[6]), (g, w)
    assert [tuple(c) for c in got["contracts"]] == \
        [tuple(c) for c in want["contracts"]]
    assert sorted(got["fits"]) == sorted(want["fits"])
    for name, fit in got["fits"].items():
        *floats, points = fit
        *want_floats, want_points = want["fits"][name]
        assert points == want_points
        assert all(map(_close, floats, want_floats)), (name, fit)


if __name__ == "__main__":
    record()
