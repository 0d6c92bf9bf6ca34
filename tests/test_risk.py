import math

import numpy as np
import pytest

from sobolab import bump, geometry, interpolant, model, quadrature, risk
from sobolab.errors import QuadratureNotConverged, UnsupportedSpec
from sobolab.geometry import Dataset
from sobolab.model import DistributionSpec

from line_oracle import integrate_1d
from loss_gap import excess_risk_loss_gap_mc


def bump_predictor(spec, n, seed, params, shrink=1.0):
    ds = model.sample(spec, n, seed)
    radii = geometry.nn_radii(ds)
    return interpolant.build(ds, radii, shrink, params)


def clipped_l2_oracle(center, radius, domain_radius):
    """integral of psi^2 over the part of one bump's support inside the
    domain (-R, R), by the panel-doubling box quadrature."""
    lo = max(center - radius, -domain_radius)
    hi = min(center + radius, domain_radius)
    value, _, _ = quadrature.adaptive_box(
        lambda x: bump.bump_eval(np.array([center]), radius, x) ** 2,
        [(lo, hi)], rel_tol=1e-13, start_panels=4, max_doublings=10)
    return value


class TestExcessRiskMc:
    def test_bayes_predictor_exactly_zero(self, pure_noise_d1):
        est = risk.excess_risk_mc(pure_noise_d1.g_values, pure_noise_d1,
                                  10_000, seed=1)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_constant_offset_is_one(self, pure_noise_d1):
        est = risk.excess_risk_mc(
            lambda xs: pure_noise_d1.g_values(xs) + 1.0,
            pure_noise_d1, 10_000, seed=2)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_deterministic_and_thread_invariant(self, pure_noise_d1, params_d1):
        f = bump_predictor(pure_noise_d1, 200, 3, params_d1)
        a = risk.excess_risk_mc(f, pure_noise_d1, 150_000, seed=5)
        b = risk.excess_risk_mc(f, pure_noise_d1, 150_000, seed=5)
        c = risk.excess_risk_mc(f, pure_noise_d1, 150_000, seed=5, threads=4)
        assert (a.mean, a.stderr) == (b.mean, b.stderr) == (c.mean, c.stderr)

    def test_minimum_samples(self, pure_noise_d1):
        with pytest.raises(UnsupportedSpec):
            risk.excess_risk_mc(pure_noise_d1.g_values, pure_noise_d1, 50, 0)

    def test_pooled_unbiasedness_proxy(self, pure_noise_d1, params_d1):
        # 50 independent estimates vs the exact value, pooled
        f = bump_predictor(pure_noise_d1, 128, 11, params_d1)
        exact = risk.excess_risk_semianalytic(f, pure_noise_d1).mean
        means, variances = [], []
        for s in range(50):
            est = risk.excess_risk_mc(f, pure_noise_d1, 2000, seed=100 + s)
            means.append(est.mean)
            variances.append(est.stderr ** 2)
        pooled_se = math.sqrt(sum(variances)) / 50
        assert abs(np.mean(means) - exact) <= 3 * pooled_se

    def test_total_expectation_identity(self, pure_noise_d1, params_d1):
        f = bump_predictor(pure_noise_d1, 128, 13, params_d1)
        reduced = risk.excess_risk_mc(f, pure_noise_d1, 100_000, seed=17)
        gap = excess_risk_loss_gap_mc(f, pure_noise_d1, 100_000, seed=19)
        spread = 3 * math.sqrt(reduced.stderr ** 2 + gap.stderr ** 2)
        assert abs(reduced.mean - gap.mean) <= spread


class TestSemianalytic:
    def test_single_bump_formula(self, params_d1):
        # y = 1, r = 1 on the interval (-2, 2): risk = M_2 / |Omega|
        spec = DistributionSpec(params=params_d1, radius=2.0)
        f = bump.BumpSum(centers=np.array([[0.0]]), radii=np.array([1.0]),
                         weights=np.array([1.0]))
        est = risk.excess_risk_semianalytic(f, spec)
        assert est.mean == pytest.approx(bump.l2_modulus(1) / 4.0, rel=1e-9)
        assert est.stderr == 0.0

    def test_zero_labels(self, pure_noise_d1, params_d1):
        ds = Dataset(points=np.array([[-0.5], [0.5]]),
                     labels=np.zeros(2))
        f = interpolant.build(ds, geometry.nn_radii(ds), 1.0, params_d1)
        assert risk.excess_risk_semianalytic(f, pure_noise_d1).mean == 0.0

    def test_three_bump_vs_quadrature(self, pure_noise_d1, params_d1):
        ds = Dataset(points=np.array([[-0.2], [0.4], [0.95]]),
                     labels=np.array([1.5, -2.0, 0.7]))
        f = interpolant.build(ds, geometry.nn_radii(ds), 1.0, params_d1)
        est = risk.excess_risk_semianalytic(f, pure_noise_d1)

        def integrand(pts):
            v = interpolant.evaluate_brute_force(f, pts)
            return v * v

        val, _, _ = quadrature.adaptive_box(integrand, [(-1.0, 1.0)],
                                            rel_tol=1e-9, start_panels=4,
                                            max_doublings=8)
        assert est.mean == pytest.approx(val / 2.0, rel=1e-6)

    def test_plateau_covering_the_domain(self, pure_noise_d1):
        # c = 0, r = 3 on (-1, 1): psi = 1 on all of Omega, so the integral
        # of psi^2 is exactly 2 and the risk is w^2
        f = bump.BumpSum(centers=[[0.0]], radii=[3.0], weights=[1.5])
        assert risk.excess_risk_semianalytic(f, pure_noise_d1).mean == 2.25

    @pytest.mark.parametrize("center", [-0.8, 0.8, -0.95, 0.95],
                             ids=["left-band", "right-band", "left-plateau",
                                  "right-plateau"])
    def test_bump_crossing_an_end(self, pure_noise_d1, center):
        # r = 0.3: at |c| = 0.8 the domain cuts the outer band, at 0.95 the
        # plateau and the whole outer band
        f = bump.BumpSum(centers=[[center]], radii=[0.3], weights=[2.0])
        got = risk.excess_risk_semianalytic(f, pure_noise_d1).mean
        want = 4.0 * clipped_l2_oracle(center, 0.3, 1.0) / 2.0
        assert got == pytest.approx(want, rel=1e-12)

    def test_many_clipped_bumps_match_the_box_oracle(self, pure_noise_d1):
        rng = np.random.default_rng(28)
        for _ in range(64):
            r = rng.uniform(0.05, 1.0)
            c = rng.choice([-1.0, 1.0]) * rng.uniform(1.0 - r, 1.0 + r)
            f = bump.BumpSum(centers=[[c]], radii=[r], weights=[1.0])
            got = risk.excess_risk_semianalytic(f, pure_noise_d1).mean
            want = clipped_l2_oracle(c, r, 1.0) / 2.0
            assert got == pytest.approx(want, rel=1e-12), (c, r)

    def test_unconverged_band_names_the_interval(self, pure_noise_d1,
                                                 monkeypatch):
        # the table is built first, so only the bump's own partial piece,
        # s in [1/2, 2/3] on its right, meets a ladder with no halving left
        bump._band_table("L^p", 2.0)
        monkeypatch.setattr(bump, "_BAND_HALVINGS", 0)
        f = bump.BumpSum(centers=[[0.8]], radii=[0.3], weights=[1.0])
        with pytest.raises(QuadratureNotConverged,
                           match=r"^L\^p integral over \[-1\.0, 1\.0\] not "
                                 r"converged"):
            risk.excess_risk_semianalytic(f, pure_noise_d1)

    def test_support_touching_the_sphere_is_interior(self, params_d2):
        # |c| + r == R exactly: the scaled modulus r^d M_2 / |Omega|
        spec = DistributionSpec(params=params_d2)
        f = bump.BumpSum(centers=[[0.5, 0.0]], radii=[0.5], weights=[2.0])
        est = risk.excess_risk_semianalytic(f, spec)
        assert est.mean == 4.0 * 0.5 ** 2 * bump.l2_modulus(2) / math.pi

    def test_support_one_ulp_past_the_sphere(self, params_d2):
        # |c| + r is the next double after R (see test_model's
        # test_ground_truth_touching_the_sphere)
        spec = DistributionSpec(params=params_d2)
        f = bump.BumpSum(centers=[[0.5, 0.0]],
                         radii=[np.nextafter(1.0, 2.0) - 0.5], weights=[2.0])
        with pytest.raises(UnsupportedSpec, match="crossing the boundary"):
            risk.excess_risk_semianalytic(f, spec)

    def test_requires_pure_noise(self, params_d1):
        g = bump.BumpSum(centers=[[0.0]], radii=[0.2], weights=[1.0])
        spec = DistributionSpec(params=params_d1, ground_truth=g)
        f = bump.BumpSum(centers=np.array([[0.0]]), radii=np.array([0.1]),
                         weights=np.array([1.0]))
        with pytest.raises(UnsupportedSpec):
            risk.excess_risk_semianalytic(f, spec)

    def test_agrees_with_monte_carlo(self, pure_noise_d1, params_d1):
        for seed in (23, 29, 31):
            f = bump_predictor(pure_noise_d1, 256, seed, params_d1)
            sa = risk.excess_risk_semianalytic(f, pure_noise_d1)
            mc = risk.excess_risk_mc(f, pure_noise_d1, 200_000, seed=seed + 1)
            assert mc.within(sa.mean)


class TestBayesRisk:
    def test_constant_sigma_exact(self, pure_noise_d1):
        est = risk.bayes_risk_mc(pure_noise_d1, 5000, seed=1)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_quadratic_sigma_matches_moment(self, params_d2):
        spec = DistributionSpec(params=params_d2, sigma_kind="quadratic",
                                sigma_a=0.5, sigma_b=2.0)
        est = risk.bayes_risk_mc(spec, 400_000, seed=7)
        # E ||x||^2 on the uniform ball via the radial quadrature oracle
        moment = integrate_1d(
            lambda r: 2 * math.pi * r ** 3 / spec.volume,
            np.linspace(0, 1, 5))
        want = 0.5 + 2.0 * moment
        assert abs(est.mean - want) <= 3 * est.stderr
