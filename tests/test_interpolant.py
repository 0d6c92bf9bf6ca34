import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from sobolab import bump, geometry, interpolant, model, quadrature
from sobolab.errors import (
    InvalidShrink,
    MalformedInput,
    MismatchedLengths,
    NonpositiveRadius,
    NotInterpolating,
    ParamsMismatch,
)
from sobolab.geometry import Dataset

from conftest import CANONICAL, random_dataset, support_probes


def line_dataset(xs, ys):
    return Dataset(points=np.asarray(xs, dtype=float).reshape(-1, 1),
                   labels=np.asarray(ys, dtype=float))


def built(ds, shrink, params):
    return interpolant.build(ds, geometry.nn_radii(ds), shrink, params)


class TestBuild:
    def test_far_separated_pair(self, params_d1):
        f = built(line_dataset([0, 10], [1, 0]), 1.0, params_d1)
        assert interpolant.evaluate(f, np.array([0.0])) == 1.0
        assert interpolant.evaluate(f, np.array([5.0])) == 0.0

    def test_adjacent_pair_supports_open(self, params_d1):
        f = built(line_dataset([0, 1], [2, -3]), 1.0, params_d1)
        assert interpolant.evaluate(f, np.array([0.0])) == 2.0
        assert interpolant.evaluate(f, np.array([1.0])) == -3.0
        # distance 0.5 equals the support radius: open balls exclude it
        assert interpolant.evaluate(f, np.array([0.5])) == 0.0

    def test_shrink_halves_radii_and_still_interpolates(self, params_d1):
        ds = line_dataset([0, 1, 3], [1.0, 2.0, -0.5])
        full = built(ds, 1.0, params_d1)
        half = built(ds, 0.5, params_d1)
        assert np.array_equal(half.radii, full.radii / 2)
        assert np.array_equal(interpolant.evaluate(half, ds.points), ds.labels)

    @pytest.mark.parametrize("s", [0.0, -0.1, 1.5])
    def test_invalid_shrink(self, s, params_d1):
        ds = line_dataset([0, 1], [1, 1])
        with pytest.raises(InvalidShrink):
            built(ds, s, params_d1)

    def test_oversized_radii_rejected(self):
        with pytest.raises(MismatchedLengths, match="bumps 0 and 1 overlap"):
            bump.BumpSum(centers=np.array([[0.0], [1.0]]),
                         radii=np.array([0.8, 0.8]),
                         weights=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("n", [3, 200])
    def test_build_rejects_radii_above_half_nn(self, n, params_d1):
        ds = random_dataset(np.random.default_rng(n), n, 1)
        radii = geometry.nn_radii(ds)
        with pytest.raises(InvalidShrink):
            interpolant.build(ds, radii * 1.01, 1.0, params_d1)
        radii[n // 2] = np.nan
        with pytest.raises(NonpositiveRadius):
            interpolant.build(ds, radii, 1.0, params_d1)

    def test_build_equals_direct_construction(self, params_d2):
        ds = random_dataset(np.random.default_rng(4), 300, 2)
        f = built(ds, 0.5, params_d2)
        direct = bump.BumpSum(centers=ds.points, radii=f.radii,
                              weights=ds.labels)
        assert np.array_equal(direct.radii, f.radii)
        assert direct._certified and f._certified
        assert np.array_equal(interpolant.evaluate(direct, ds.points),
                              interpolant.evaluate(f, ds.points))


class TestEvaluate:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_brute_force(self, d, params_d1, params_d2,
                                          params_d3):
        params = {1: params_d1, 2: params_d2, 3: params_d3}[d]
        rng = np.random.default_rng(d)
        ds = random_dataset(rng, 300, d)
        f = built(ds, 1.0, params)
        xs = rng.uniform(-1.2, 1.2, size=(5000, d))
        fast = interpolant.evaluate(f, xs)
        brute = interpolant.evaluate_brute_force(f, xs)
        assert np.array_equal(fast, brute)

    def test_interpolation_exact_at_nodes(self, params_d2):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 400, 2)
        f = built(ds, 1.0, params_d2)
        vals = interpolant.evaluate(f, ds.points)
        assert np.max(np.abs(vals - ds.labels)) <= 1e-12

    def test_far_from_supports_zero(self, params_d1):
        f = built(line_dataset([0, 1], [5, -7]), 1.0, params_d1)
        assert interpolant.evaluate(f, np.array([100.0])) == 0.0

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 80),
           d=st.integers(1, 3), shrink=st.sampled_from([1.0, 0.5, 0.25]))
    def test_property_bit_identical_on_support_probes(self, seed, n, d,
                                                      shrink):
        rng = np.random.default_rng(seed)
        f = built(random_dataset(rng, n, d), shrink,
                  bump.SobolevParams(**CANONICAL[d]))
        pts = np.vstack([support_probes(f.centers, f.radii),
                         rng.uniform(-1.2, 1.2, size=(40, d))])
        half = len(pts) // 2
        for x in (pts, pts[:2 * half].reshape(2, half, d), pts[0], pts[-1]):
            got = interpolant.evaluate(f, x)
            want = interpolant.evaluate_brute_force(f, x)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
           d=st.integers(1, 3), shrink=st.sampled_from([1.0, 0.5]),
           side=st.sampled_from(["fewer", "equal", "more"]))
    @example(seed=1, n=1, d=2, shrink=1.0, side="more")
    @example(seed=2, n=1, d=3, shrink=1.0, side="fewer")
    @example(seed=3, n=12, d=2, shrink=1.0, side="equal")
    def test_property_bit_identical_across_the_size_switch(self, seed, n, d,
                                                           shrink, side):
        # up to bump._MASK_MAX_BUMPS bumps take one mask each; a larger
        # interpolant pairs its own centers with their bumps, indexes its
        # centers for any other batch of at most n points, and the batch
        # itself beyond that.  Every path must keep every bit, signed zeros
        # included, of the per-bump sum.
        rng = np.random.default_rng(seed)
        params = bump.SobolevParams(**CANONICAL[d])
        if n == 1:
            f = bump.BumpSum(centers=rng.uniform(-1, 1, size=(1, d)),
                             radii=[rng.uniform(0.1, 1.0)],
                             weights=[rng.standard_normal()])
            contact = np.empty((0, d))
        else:
            ds = random_dataset(rng, n, d)
            f = built(ds, shrink, params)
            # the closest pair is a mutual nearest-neighbor pair: at s = 1
            # their supports touch at the midpoint
            i = int(np.argmin(ds.nn_sq_dists))
            sq = np.sum((ds.points - ds.points[i]) ** 2, axis=1)
            sq[i] = np.inf
            j = int(np.argmin(sq))
            contact = (ds.points[[i]] + ds.points[[j]]) / 2.0
        pool = np.vstack([contact,
                          support_probes(f.centers, f.radii),
                          rng.uniform(-1.2, 1.2, size=(4 * n + 8, d))])
        m = {"fewer": int(rng.integers(0, n)), "equal": n,
             "more": int(rng.integers(n + 1, len(pool) + 1))}[side]
        pts = pool[:m]
        shapes = [(m, d), (1, m, d)] + ([(2, m // 2, d)] if m % 2 == 0 else [])
        for shape in shapes:
            x = pts.reshape(shape)
            got = interpolant.evaluate(f, x)
            want = interpolant.evaluate_brute_force(f, x)
            assert np.shape(got) == shape[:-1]
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        # the centers themselves, and a permuted copy that is not them
        for x in (f.centers, np.roll(f.centers, 1, axis=0)):
            got = interpolant.evaluate(f, x)
            want = interpolant.evaluate_brute_force(f, x)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("shape", [(4, 3), (3,), (2, 2, 1)])
    def test_wrong_point_dimension(self, params_d2, shape):
        f = built(random_dataset(np.random.default_rng(4), 20, 2), 1.0,
                  params_d2)
        with pytest.raises(MismatchedLengths, match="dimension"):
            interpolant.evaluate(f, np.zeros(shape))

    def test_empty_batch(self, params_d2):
        f = built(random_dataset(np.random.default_rng(4), 20, 2), 1.0,
                  params_d2)
        assert interpolant.evaluate(f, np.zeros((0, 2))).shape == (0,)

    def test_support_disjointness_check(self, params_d2):
        rng = np.random.default_rng(17)
        ds = random_dataset(rng, 100, 2)
        f = built(ds, 1.0, params_d2)
        assert f._certified
        assert geometry._violating_pairs(f.centers, 2.0 * f.radii) == []

    def test_support_disjointness_single_bump(self):
        f = bump.BumpSum(centers=[[0.0]], radii=[0.3], weights=[1.0])
        assert f._certified
        assert geometry._violating_pairs(f.centers, 2.0 * f.radii) == []
        assert interpolant.evaluate(f, np.array([0.0])) == 1.0


class TestSobolevNorm:
    def test_single_unit_bump_matches_bump_norm(self, params_d1, moduli_d1):
        ds = line_dataset([0, 10], [1.0, 0.0])
        f = built(ds, 1.0, params_d1)
        # zero-weight bump contributes nothing; r = 5 for both
        want = bump.bump_norm(5.0, moduli_d1)
        assert interpolant.sobolev_norm(f, moduli_d1) == pytest.approx(
            want, rel=1e-12)

    def test_homogeneous_in_labels(self, params_d1, moduli_d1):
        ds = line_dataset([0, 1, 3], [1.0, -2.0, 0.5])
        scaled = line_dataset([0, 1, 3], [3.0, -6.0, 1.5])
        a = interpolant.sobolev_norm(built(ds, 1.0, params_d1), moduli_d1)
        b = interpolant.sobolev_norm(built(scaled, 1.0, params_d1), moduli_d1)
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_params_mismatch(self, params_d1, moduli_d2):
        f = built(line_dataset([0, 1], [1, 1]), 1.0, params_d1)
        with pytest.raises(ParamsMismatch):
            interpolant.sobolev_norm(f, moduli_d2)

    def test_two_bump_norm_vs_quadrature_1d(self, params_d1, moduli_d1):
        ds = line_dataset([0.0, 0.9], [2.0, -1.0])
        f = built(ds, 1.0, params_d1)
        p = params_d1.p
        want = 0.0
        for alpha in moduli_d1.indices:
            def integrand(pts, alpha=alpha):
                out = np.zeros(pts.shape[0])
                for c, r, w in zip(f.centers, f.radii, f.weights):
                    out = out + w * bump.bump_partial(alpha, c, float(r), pts)
                return np.abs(out) ** p
            val, _, _ = quadrature.adaptive_box(
                integrand, [(-1.0, 2.0)], rel_tol=1e-9, max_doublings=8)
            want += val ** (1 / p)
        assert interpolant.sobolev_norm(f, moduli_d1) == pytest.approx(
            want, rel=1e-6)

    def test_two_bump_norm_vs_quadrature_2d(self, params_d2, moduli_d2):
        ds = Dataset(points=np.array([[0.0, 0.0], [0.8, 0.1]]),
                     labels=np.array([1.0, 2.0]))
        f = built(ds, 1.0, params_d2)
        p = params_d2.p
        want = 0.0
        for alpha in moduli_d2.indices:
            def integrand(pts, alpha=alpha):
                out = np.zeros(pts.shape[0])
                for c, r, w in zip(f.centers, f.radii, f.weights):
                    out = out + w * bump.bump_partial(alpha, c, float(r), pts)
                return np.abs(out) ** p
            val, _, _ = quadrature.adaptive_box(
                integrand, [(-0.5, 1.3), (-0.5, 0.6)], rel_tol=1e-8,
                max_doublings=7)
            want += val ** (1 / p)
        assert interpolant.sobolev_norm(f, moduli_d2) == pytest.approx(
            want, rel=1e-6)

    def test_shrink_monotone_on_sampled_data(self, params_d1, moduli_d1,
                                             pure_noise_d1):
        # top-order seminorms dominate for sampled datasets (delta << 1),
        # making the norm non-increasing across the shrink grid
        ds = model.sample(pure_noise_d1, 64, seed=21)
        radii = geometry.nn_radii(ds)
        norms = [interpolant.sobolev_norm(
            interpolant.build(ds, radii, s, params_d1), moduli_d1)
            for s in np.arange(0.1, 1.01, 0.1)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


class TestMinNormBound:
    def test_single_point_formula(self, params_d1, moduli_d1):
        ds = line_dataset([0.0, 2.0], [1.0, 1.0])
        radii = geometry.nn_radii(ds)
        got = interpolant.min_norm_upper_bound(ds, radii, moduli_d1)
        p, d, k = params_d1.p, params_d1.d, params_d1.k
        c_m = (len(moduli_d1.table) ** (p - 1)
               * sum(moduli_d1.table.values())
               * 2.0 ** (k * p - d) * max(1.0, 1.0 ** (k * p)))
        want = c_m * 2.0 * (1.0 + 2.0 ** (d - k * p))
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_labels(self, params_d1, moduli_d1):
        ds = line_dataset([0, 1, 3], [0.0, 0.0, 0.0])
        radii = geometry.nn_radii(ds)
        f = built(ds, 1.0, params_d1)
        assert interpolant.sobolev_norm(f, moduli_d1) == 0.0
        bound = interpolant.min_norm_upper_bound(ds, radii, moduli_d1)
        assert bound >= 0.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_bound_dominates_norm_randomized(self, d, params_d1, params_d2,
                                             moduli_d1, moduli_d2):
        params = {1: params_d1, 2: params_d2}[d]
        moduli = {1: moduli_d1, 2: moduli_d2}[d]
        rng = np.random.default_rng(31 + d)
        for _ in range(200):
            ds = random_dataset(rng, int(rng.integers(2, 50)), d)
            radii = geometry.nn_radii(ds)
            f = interpolant.build(ds, radii, 1.0, params)
            norm_p = interpolant.sobolev_norm(f, moduli) ** params.p
            bound = interpolant.min_norm_upper_bound(ds, radii, moduli)
            assert norm_p <= bound * (1 + 1e-12)


class TestGammaReport:
    def test_reference_interpolant_has_gamma_one(self, params_d1, moduli_d1):
        ds = line_dataset([0, 1, 3], [1.0, -2.0, 0.5])
        radii = geometry.nn_radii(ds)
        f = interpolant.build(ds, radii, 1.0, params_d1)
        rep = interpolant.gamma_report(f, ds, radii, moduli_d1)
        assert rep.gamma_lower_bound == pytest.approx(1.0, rel=1e-14)

    def test_half_shrink_in_fine_spacing_regime(self, params_d1, moduli_d1):
        # spacing 1e-4: the top-order seminorm dominates, so the norm ratio
        # approaches shrink^((d - kp)/p) = 2^0.2
        xs = np.arange(6) * 1e-4
        ds = line_dataset(xs, [1.0, -1.0, 2.0, 0.5, -0.25, 1.5])
        radii = geometry.nn_radii(ds)
        f = interpolant.build(ds, radii, 0.5, params_d1)
        rep = interpolant.gamma_report(f, ds, radii, moduli_d1)
        assert rep.gamma_lower_bound == pytest.approx(2.0 ** 0.2, rel=1e-3)

    def test_doubling_a_weight_increases_gamma(self, params_d1, moduli_d1):
        ds = line_dataset([0, 1, 3], [1.0, -2.0, 0.5])
        radii = geometry.nn_radii(ds)
        f = interpolant.build(ds, radii, 1.0, params_d1)
        heavier = bump.BumpSum(centers=f.centers, radii=f.radii,
                               weights=f.weights * np.array([2.0, 1.0, 1.0]))
        loud = interpolant.sobolev_norm(heavier, moduli_d1)
        base = interpolant.sobolev_norm(f, moduli_d1)
        assert loud > base

    def test_not_interpolating(self, params_d1, moduli_d1):
        ds = line_dataset([0, 1, 3], [1.0, -2.0, 0.5])
        radii = geometry.nn_radii(ds)
        f = interpolant.build(ds, radii, 1.0, params_d1)
        wrong = bump.BumpSum(centers=f.centers, radii=f.radii,
                             weights=f.weights + 0.001)
        with pytest.raises(NotInterpolating):
            interpolant.gamma_report(wrong, ds, radii, moduli_d1)


class TestCsv:
    def test_roundtrip(self, params_d2, tmp_path):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 23, 2)
        f = built(ds, 0.7, params_d2)
        path = tmp_path / "interp.csv"
        interpolant.save_interpolant(f, params_d2, 0.7, path)
        assert path.read_text().startswith(
            "# k=1 p=2.5 d=2 shrink=0.7\nc_1,c_2,radius,weight\n")
        back, params, shrink = interpolant.load_interpolant(path)
        assert params == params_d2
        assert shrink == 0.7
        assert np.array_equal(back.centers, f.centers)
        assert np.array_equal(back.radii, f.radii)
        assert np.array_equal(back.weights, f.weights)

    def test_save_rejects_params_of_another_dimension(self, params_d1,
                                                       params_d2, tmp_path):
        f = built(random_dataset(np.random.default_rng(5), 8, 2), 1.0,
                  params_d2)
        path = tmp_path / "interp.csv"
        with pytest.raises(ParamsMismatch):
            interpolant.save_interpolant(f, params_d1, 1.0, path)
        assert not path.exists()

    @pytest.mark.parametrize("text, error, where", [
        ("# k=1 d=1 shrink=1.0\nc_1,radius,weight\n0.0,0.25,1.0\n",
         MalformedInput, "line 1"),
        ("# k=1 p=x d=1 shrink=1.0\nc_1,radius,weight\n0.0,0.25,1.0\n",
         MalformedInput, "line 1"),
        ("# k=1 p=1.25 d=1 shrink=1.0\nc_1,radius,weight\n"
         "0.0,0.25,1.0\nabc,0.25,1.0\n", MalformedInput, "line 4"),
        ("# k=1 p=1.25 d=1 shrink=1.0\nc_1,radius,weight\n0.0,0.25\n",
         MismatchedLengths, "line 3"),
        ("# k=1 p=2.5 d=2 shrink=1.0\nc_1,radius,weight\n0.0,0.25,1.0\n",
         MalformedInput, "line 1: header says d=2"),
        ("# k=1 p=1.25 d=1 shrink=1.0\nc_1,radius,weight\n0.0,nan,1.0\n",
         MalformedInput, "line 3"),
        ("# k=1 p=1.25 d=1 shrink=1.0\nc_1,radius,weight\n0.0,0.25,inf\n",
         MalformedInput, "line 3"),
        ("# k=1 p=1.25 d=1 shrink=1.0\na,b,c\n0.0,0.25,1.0\n",
         MismatchedLengths, "line 2: expected columns c_1,radius,weight"),
        ("# k=1 p=0.5 d=1 shrink=1.0\nc_1,radius,weight\n0.0,0.25,1.0\n",
         MalformedInput, "line 1: p must lie in"),
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, text, error,
                                                where):
        path = tmp_path / "bad_interp.csv"
        path.write_text(text)
        with pytest.raises(error, match=f"bad_interp\\.csv: {where}"):
            interpolant.load_interpolant(path)
