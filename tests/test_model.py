import hashlib
import math

import numpy as np
import pytest

from conftest import CANONICAL
from line_oracle import integrate_1d
from sobolab import bump, geometry, model
from sobolab.errors import OutOfDomain, TooFewPoints, UnsupportedSpec
from sobolab.geometry import Dataset
from sobolab.model import DistributionSpec


@pytest.fixture(scope="module")
def bumpy_spec(params_d2):
    """Nontrivial spec: parabolic density, bump ground truth, varying noise."""
    g = bump.BumpSum(centers=[[0.0, 0.0], [0.5, 0.0]], radii=[0.2, 0.15],
                     weights=[1.0, -0.5])
    return DistributionSpec(params=params_d2, density="parabolic", tilt=0.5,
                            ground_truth=g, sigma_kind="quadratic",
                            sigma_a=0.25, sigma_b=1.0)


class TestSpecValidation:
    def test_defaults(self, params_d1):
        spec = DistributionSpec(params=params_d1)
        assert spec.sigma_min == spec.sigma_max == 1.0
        assert spec.density_lower == spec.density_upper == 1.0 / spec.volume

    def test_parabolic_bounds(self, bumpy_spec):
        assert bumpy_spec.density_lower < bumpy_spec.density_upper
        xs = np.array([[0.0, 0.0], [0.9, 0.0], [0.0, -0.99]])
        vals = bumpy_spec.density_values(xs)
        assert np.all(vals >= bumpy_spec.density_lower - 1e-15)
        assert np.all(vals <= bumpy_spec.density_upper + 1e-15)

    def test_sigma_bounds(self, bumpy_spec):
        assert bumpy_spec.sigma_min == 0.5
        assert bumpy_spec.sigma_max == pytest.approx(math.sqrt(1.25))

    def test_ground_truth_must_fit(self, params_d1):
        g = bump.BumpSum(centers=[[0.9]], radii=[0.3], weights=[1.0])
        with pytest.raises(UnsupportedSpec):
            DistributionSpec(params=params_d1, ground_truth=g)

    def test_unknown_density(self, params_d1):
        with pytest.raises(UnsupportedSpec):
            DistributionSpec(params=params_d1, density="gaussian")

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("kwargs", [
        dict(radius=math.inf),
        dict(radius=math.nan),
        dict(radius=1e200),                   # R^2 overflows
        dict(sigma_a=math.inf),
        dict(sigma_a=1e200),                  # the variance sigma_a^2
        dict(sigma_b=math.nan),
        dict(sigma_b=math.inf),
        dict(sigma_kind="quadratic", sigma_a=1e308, sigma_b=1e308),
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_nonfinite_or_overflowing_rejected(self, d, kwargs):
        params = bump.SobolevParams(**CANONICAL[d])
        # Python floats raise on overflow, numpy scalars warn and give inf
        for cast in (float, np.float64):
            with pytest.raises(UnsupportedSpec):
                DistributionSpec(params=params, **{
                    k: v if k == "sigma_kind" else cast(v)
                    for k, v in kwargs.items()})

    def test_volume_overflow_rejected(self, params_d3):
        # R^2 = 1e240 is finite, the volume 4/3 pi R^3 is not
        with pytest.raises(UnsupportedSpec, match="volume"):
            DistributionSpec(params=params_d3, radius=1e120)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("density, tilt",
                             [("uniform", 0.0), ("parabolic", 0.5)])
    def test_density_integrates_to_one(self, d, density, tilt):
        spec = DistributionSpec(params=bump.SobolevParams(**CANONICAL[d]),
                                radius=1.7, density=density, tilt=tilt)
        area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[d]  # |S^(d-1)|

        def radial(r):
            on_axis = np.zeros((len(r), d))
            on_axis[:, 0] = r
            return area * r ** (d - 1) * spec.density_values(on_axis)

        # a polynomial of degree d + 1 in r, so Gauss-Legendre is exact
        total = integrate_1d(radial, np.linspace(0.0, spec.radius, 9))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_deterministic(self, pure_noise_d1):
        a = model.sample(pure_noise_d1, 500, seed=7)
        b = model.sample(pure_noise_d1, 500, seed=7)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_too_few(self, pure_noise_d1):
        with pytest.raises(TooFewPoints):
            model.sample(pure_noise_d1, 1, seed=0)

    def test_half_domain_mass(self, pure_noise_d1):
        ds = model.sample(pure_noise_d1, 100_000, seed=13)
        frac = float(np.mean(ds.points[:, 0] > 0))
        assert abs(frac - 0.5) <= 3.0 * 0.5 / math.sqrt(100_000)

    def test_pure_noise_moments(self, pure_noise_d1):
        ds = model.sample(pure_noise_d1, 100_000, seed=29)
        assert abs(ds.labels.mean()) <= 3.0 / math.sqrt(100_000)
        assert abs(ds.labels.var() - 1.0) <= 0.05

    def test_points_inside_domain(self, bumpy_spec):
        ds = model.sample(bumpy_spec, 5000, seed=3)
        assert np.all(np.linalg.norm(ds.points, axis=1) <= bumpy_spec.radius)

    def test_parabolic_histogram_sandwich(self, params_d1):
        spec = DistributionSpec(params=params_d1, density="parabolic",
                                tilt=0.8)
        n = 100_000
        ds = model.sample(spec, n, seed=5)
        edges = np.linspace(-1, 1, 21)
        counts, _ = np.histogram(ds.points[:, 0], bins=edges)
        width = edges[1] - edges[0]
        for c in counts:
            dens = c / (n * width)
            se = math.sqrt(max(c, 1.0)) / (n * width)
            assert dens >= spec.density_lower - 4 * se
            assert dens <= spec.density_upper + 4 * se


# sha256 prefixes of the bytes of _uniform_ball (500 points, radius 1.3,
# center 0.25 on every axis), then sample_points (500 points, parabolic
# tilt 0.5, radius 1.3), then density_values and sigma_sq_values (quadratic,
# a = 0.25, b = 1) at those points, all from one default_rng(seed): the
# outputs of np.linalg.norm and np.sum(x ** 2) before both became _sq_norm.
_SAMPLER_DIGESTS = {
    (1, 0): ("acd352aecca11e13", "c84cae31c0272b41", "b923f96f3aedb3c3",
             "e8407a2412acb934"),
    (1, 5): ("d8381fbfebe42076", "338e173eaeeca98a", "85ad236a431c91b7",
             "8d2c8bc96230335c"),
    (1, 781508): ("0235fc1c75d9dd9e", "2499b99e19dd1095", "748e763f9442e596",
                  "18a4975aa7673b45"),
    (2, 0): ("f3105579407a7758", "9cd21b85dca5354d", "0900740286833cee",
             "e6fe6b94fe2493ae"),
    (2, 5): ("b2fcfa41f3037ffd", "712a4040d78c1af9", "371824943376afe1",
             "a0493830c563225e"),
    (2, 781508): ("8ef414b7e17af228", "af489076aa0c24e0", "1185b9b95c08c569",
                  "05c4aedfed8641d6"),
    (3, 0): ("991a5c8d9b776deb", "b4267fa22fa103f9", "dc829aae8007d7aa",
             "a4d99daf806393d5"),
    (3, 5): ("4d9a863fa49c7ac0", "c1634b1e9341e298", "bbd7a7d571dc5ebf",
             "08777e6d0762ab3a"),
    (3, 781508): ("43ec14e8d8cc6d05", "450f465b7ee39c1f", "79dc00bd6c63be2d",
                  "3e9daa9ad490bbb8"),
}


# sha256 prefixes of sample_points (3000 points, radius 1.3, tilt 0.5 when
# parabolic) from default_rng(781508), and of the stream's next four
# uniforms, recorded before the sampler scaled column by column and kept
# rows with np.compress: the sampler draws the same stream to the same bits.
_SAMPLE_POINTS_DIGESTS = {
    ("uniform", 1): ("e57ab95077c2ae7d", "d0da49259375d0ad"),
    ("uniform", 2): ("2ba27d01cc5004df", "859ae1906efc0d77"),
    ("uniform", 3): ("8db3114ce634dbae", "51df45195c24614e"),
    ("parabolic", 1): ("b0f62e80ee4adbd9", "5a709643527699de"),
    ("parabolic", 2): ("3e2ead3032766e07", "ad978018e37b626f"),
    ("parabolic", 3): ("fc7b3a7046d3bc76", "696717ff2c381764"),
}


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


class TestSamplerBits:
    @pytest.mark.parametrize("d, seed", sorted(_SAMPLER_DIGESTS))
    def test_pinned_outputs(self, d, seed):
        params = bump.SobolevParams(**CANONICAL[d])
        spec = DistributionSpec(params=params, radius=1.3, density="parabolic",
                                tilt=0.5, sigma_kind="quadratic",
                                sigma_a=0.25, sigma_b=1.0)
        rng = np.random.default_rng(seed)
        ball = model._uniform_ball(rng, 500, d, 1.3, center=np.full(d, 0.25))
        pts = model.sample_points(spec, 500, rng)
        got = tuple(_digest(a) for a in (ball, pts, spec.density_values(pts),
                                         spec.sigma_sq_values(pts)))
        assert got == _SAMPLER_DIGESTS[d, seed]

    @pytest.mark.parametrize("density, d", sorted(_SAMPLE_POINTS_DIGESTS))
    def test_sample_points_pinned(self, density, d):
        spec = DistributionSpec(params=bump.SobolevParams(**CANONICAL[d]),
                                radius=1.3, density=density,
                                tilt=0.5 if density == "parabolic" else 0.0)
        rng = np.random.default_rng(781508)
        pts = model.sample_points(spec, 3000, rng)
        assert pts.shape == (3000, d) and pts.flags.c_contiguous
        got = (_digest(pts), _digest(rng.random(4)))
        assert got == _SAMPLE_POINTS_DIGESTS[density, d]


class TestConditionalLoss:
    def test_bayes_point(self, bumpy_spec):
        x = np.array([0.5, 0.0])
        g = bumpy_spec.g_values(x)
        assert model.conditional_loss(bumpy_spec, g, x) == \
            bumpy_spec.sigma_sq_values(x)
        assert model.regret(bumpy_spec, g, x) == 0.0

    def test_unit_noise_formula(self, pure_noise_d1):
        # sigma = 1, g = 0, y_hat = 2 -> 1 + 4
        assert model.conditional_loss(pure_noise_d1, 2.0,
                                      np.array([0.3])) == 5.0

    def test_regret_shift(self, params_d1):
        g = bump.BumpSum(centers=[[0.0]], radii=[0.3], weights=[1.0])
        spec = DistributionSpec(params=params_d1, ground_truth=g,
                                sigma_kind="constant", sigma_a=0.7)
        # g(0) = 1, y_hat = 3 -> regret 4 regardless of sigma
        assert model.regret(spec, 3.0, np.array([0.0])) == 4.0

    def test_regret_is_loss_minus_bayes(self, bumpy_spec):
        rng = np.random.default_rng(41)
        xs = model.sample_points(bumpy_spec, 100, rng)
        y_hat = rng.normal(size=100)
        lhs = model.regret(bumpy_spec, y_hat, xs)
        rhs = model.conditional_loss(bumpy_spec, y_hat, xs) - \
            bumpy_spec.sigma_sq_values(xs)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_out_of_domain(self, pure_noise_d1):
        with pytest.raises(OutOfDomain):
            model.conditional_loss(pure_noise_d1, 0.0, np.array([1.5]))

    def test_monte_carlo_oracle(self, bumpy_spec):
        rng = np.random.default_rng(47)
        xs = model.sample_points(bumpy_spec, 5, rng)
        for x in xs:
            y_hat = float(rng.normal())
            sig = math.sqrt(bumpy_spec.sigma_sq_values(x))
            g = bumpy_spec.g_values(x)
            draws = g + sig * rng.standard_normal(100_000)
            vals = (y_hat - draws) ** 2
            est = float(vals.mean())
            se = float(vals.std(ddof=1)) / math.sqrt(len(vals))
            assert abs(model.conditional_loss(bumpy_spec, y_hat, x) - est) \
                <= 3 * se

    def test_grid_minimizer_recovers_bayes(self, bumpy_spec):
        rng = np.random.default_rng(53)
        xs = model.sample_points(bumpy_spec, 100, rng)
        grid = np.linspace(-3, 3, 6001)
        for x in xs[:20]:
            losses = model.conditional_loss(
                bumpy_spec, grid, np.broadcast_to(x, (len(grid), 2)))
            best = grid[np.argmin(losses)]
            assert abs(best - bumpy_spec.g_values(x)) <= 1.5e-3
            assert abs(losses.min() - bumpy_spec.sigma_sq_values(x)) <= 1e-6


class TestNoiseConstants:
    def test_exact_rho(self, pure_noise_d1):
        nc = model.noise_constants(pure_noise_d1)
        assert nc.rho == pytest.approx(0.3173105078629141, abs=1e-15)
        assert 0.1 <= nc.rho  # the constant the model is usually quoted with
        assert nc.sigma_floor == 1.0
        assert nc.c_y == pytest.approx(math.sqrt(2.0))

    def test_verification_passes(self, bumpy_spec):
        nc = model.check_noise_constants(bumpy_spec, seed=1)
        assert nc.sigma_floor == 0.25
        assert nc.c_y == pytest.approx(math.sqrt(2.0) * (1.0 + math.sqrt(1.25)))

    def test_mislabel_probability_frequency(self, pure_noise_d1):
        nc = model.noise_constants(pure_noise_d1)
        rng = np.random.default_rng(61)
        draws = rng.standard_normal(200_000)
        freq = float(np.mean(draws ** 2 >= nc.sigma_floor))
        se = math.sqrt(freq * (1 - freq) / len(draws))
        assert abs(freq - nc.rho) <= 3 * se


class TestSubset:
    def test_noiseless_labels_excluded(self, params_d1):
        spec = DistributionSpec(params=params_d1)
        # labels equal g = 0 exactly: W fails everywhere
        ds = Dataset(points=np.array([[-0.5], [0.5]]),
                     labels=np.array([0.0, 0.0]))
        sel = model.noisy_separated_subset(ds, geometry.nn_radii(ds), spec)
        assert sel.size == 0

    def test_hand_built_singleton(self, params_d1):
        spec = DistributionSpec(params=params_d1)
        nc = model.noise_constants(spec)
        # thresholds: delta >= 1/6 (C_1 = 1, n = 3), |y| <= C_y sqrt(log(4/rho))
        cap = nc.c_y * math.sqrt(math.log(4.0 / nc.rho))
        ds = Dataset(points=np.array([[-0.9], [0.0], [0.8]]),
                     labels=np.array([cap + 1.0, 1.5, 0.05]))
        sel = model.noisy_separated_subset(ds, geometry.nn_radii(ds), spec)
        assert sel.indices.tolist() == [1]
        assert sel.z.all()
        assert sel.y.tolist() == [False, True, True]
        assert sel.w.tolist() == [True, True, False]
        assert sel.radius_threshold == pytest.approx(1.0 / 6.0)

    def test_members_satisfy_all_conditions(self, pure_noise_d1):
        ds = model.sample(pure_noise_d1, 2048, seed=71)
        radii = geometry.nn_radii(ds)
        sel = model.noisy_separated_subset(ds, radii, pure_noise_d1)
        assert sel.size > 0
        member_r = radii[sel.indices]
        member_y = ds.labels[sel.indices]
        assert np.all(member_r >= sel.radius_threshold)
        assert np.all(np.abs(member_y) <= sel.label_cap)
        assert np.all(member_y ** 2 >= sel.noise_margin)

    def test_size_exceeds_rho_n_over_8(self, pure_noise_d1):
        hits = 0
        for s in range(20):
            ds = model.sample(pure_noise_d1, 2048, seed=900 + s)
            sel = model.noisy_separated_subset(
                ds, geometry.nn_radii(ds), pure_noise_d1)
            hits += sel.size >= model.RHO_EXACT * 2048 / 8
        assert hits == 20


class TestDomainBallFraction:
    def test_interior_ball(self, params_d2):
        spec = DistributionSpec(params=params_d2)
        frac, se = model.domain_ball_fraction(
            spec, np.zeros(2), 0.5, 20_000, seed=5)
        assert frac == 1.0 and se == 0.0

    def test_boundary_full_diameter(self, params_d1, params_d2, params_d3):
        for params in (params_d1, params_d2, params_d3):
            spec = DistributionSpec(params=params)
            x0 = np.zeros(params.d)
            x0[0] = 1.0
            frac, se = model.domain_ball_fraction(spec, x0, 2.0, 200_000,
                                                  seed=11)
            want = 2.0 ** -params.d
            assert abs(frac - want) <= max(3 * se, 1e-3)
            assert frac >= 2.0 ** -params.d - 3 * se

    def test_half_interval(self, params_d1):
        spec = DistributionSpec(params=params_d1)
        frac, se = model.domain_ball_fraction(
            spec, np.array([1.0]), 1.0, 100_000, seed=3)
        assert abs(frac - 0.5) <= 3 * se

    def test_center_outside_rejected(self, params_d1):
        spec = DistributionSpec(params=params_d1)
        with pytest.raises(OutOfDomain):
            model.domain_ball_fraction(spec, np.array([1.1]), 0.5, 1000, 0)

    def test_radius_beyond_diameter_rejected(self, params_d1):
        spec = DistributionSpec(params=params_d1)
        with pytest.raises(OutOfDomain):
            model.domain_ball_fraction(spec, np.array([0.0]), 2.5, 1000, 0)
