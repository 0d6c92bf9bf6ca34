import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from sobolab import rkhs
from sobolab.errors import MismatchedLengths, UnsupportedNu, UnsupportedSpec
from sobolab.geometry import Dataset

from conftest import peak_traced_bytes, random_dataset

MB = 1e6


class TestKernelEval:
    def test_diagonal(self):
        for nu in (0.5, 1.5):
            spec = rkhs.KernelSpec(nu=nu)
            assert rkhs.kernel_eval(spec, 0.0) == 1.0

    def test_exponential_value(self):
        spec = rkhs.KernelSpec(nu=0.5, lengthscale=1.0)
        assert rkhs.kernel_eval(spec, 1.0) == pytest.approx(math.exp(-1.0))

    def test_matern32_value(self):
        spec = rkhs.KernelSpec(nu=1.5, lengthscale=2.0)
        t = math.sqrt(3.0) * 0.8 / 2.0
        assert rkhs.kernel_eval(spec, 0.8) == pytest.approx(
            (1.0 + t) * math.exp(-t), rel=1e-14)

    def test_range(self):
        spec = rkhs.KernelSpec(nu=1.5)
        r = np.linspace(0, 10, 1000)
        v = rkhs.kernel_eval(spec, r)
        assert np.all((0.0 < v) & (v <= 1.0))

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    @pytest.mark.parametrize("lengthscale", [1.0, 0.37])
    def test_array_equals_closed_form_and_input_untouched(self, nu,
                                                          lengthscale):
        spec = rkhs.KernelSpec(nu=nu, lengthscale=lengthscale)
        r = np.random.default_rng(5).uniform(0.0, 4.0, size=(40, 7))
        r[0, 0] = 0.0
        before = r.copy()
        s = r / lengthscale
        if nu == 0.5:
            want = np.exp(-s)
        else:
            want = (1.0 + math.sqrt(3.0) * s) * np.exp(-(math.sqrt(3.0) * s))
        got = rkhs.kernel_eval(spec, r)
        assert np.array_equal(got, want)
        assert np.array_equal(r, before)

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_matrix_over_many_sub_blocks_equals_closed_form(self, nu):
        # 600 rows fill three row sub-blocks, the last one of 88 rows
        rng = np.random.default_rng(6)
        x, z = rng.uniform(-1, 1, (600, 3)), rng.uniform(-1, 1, (70, 3))
        spec = rkhs.KernelSpec(nu=nu, lengthscale=0.37)
        want = rkhs.kernel_eval(spec, cdist(x, z))
        assert np.array_equal(rkhs.kernel_matrix(spec, x, z), want)
        out = np.empty((600, 70))
        assert rkhs.kernel_matrix(spec, x, z, out=out) is out
        assert np.array_equal(out, want)

    def test_unsupported_nu(self):
        with pytest.raises(UnsupportedNu):
            rkhs.KernelSpec(nu=2.5)

    def test_positive_definite_on_random_points(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(50, 3))
        for nu in (0.5, 1.5):
            k = rkhs.kernel_matrix(rkhs.KernelSpec(nu=nu), pts)
            assert np.array_equal(k, k.T)
            assert np.linalg.eigvalsh(k).min() > 0.0


class TestMinNormInterpolant:
    def test_single_point_closed_form(self):
        ds = Dataset(points=np.array([[0.0], [50.0]]),
                     labels=np.array([1.0, 0.0]))
        u = rkhs.min_norm_interpolant(ds, rkhs.KernelSpec(nu=0.5))
        # far-away zero-label point decouples: u(x) ~ exp(-|x|) near 0
        for x in (0.0, 0.5, 1.0, 2.0):
            assert u(np.array([x])) == pytest.approx(math.exp(-abs(x)),
                                                     abs=1e-10)

    def test_two_point_hand_solved(self):
        ds = Dataset(points=np.array([[0.0], [1.0]]),
                     labels=np.array([2.0, -1.0]))
        spec = rkhs.KernelSpec(nu=0.5)
        u = rkhs.min_norm_interpolant(ds, spec)
        # 2x2 closed-form inverse oracle
        e = math.exp(-1.0)
        det = 1.0 - e * e
        want = np.array([(2.0 - e * -1.0) / det, (-1.0 - e * 2.0) / det])
        assert np.allclose(u.coefficients, want, rtol=1e-10)

    def test_residual_contract_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            d = int(rng.integers(1, 4))
            ds = random_dataset(rng, n, d)
            u = rkhs.min_norm_interpolant(ds, rkhs.KernelSpec(nu=0.5))
            resid = np.abs(u(ds.points) - ds.labels)
            assert resid.max() <= rkhs.RESIDUAL_TOL

    def test_dense_cap(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 4097, 1)
        with pytest.raises(UnsupportedSpec):
            rkhs.min_norm_interpolant(ds, rkhs.KernelSpec(nu=0.5))

    def test_coefficients_equal_plain_cholesky_at_zero_jitter(self):
        rng = np.random.default_rng(12)
        for nu in (0.5, 1.5):
            ds = random_dataset(rng, 80, 3)
            spec = rkhs.KernelSpec(nu=nu, lengthscale=0.37)
            u = rkhs.min_norm_interpolant(ds, spec)
            assert u.jitter_used == 0.0
            factor = cho_factor(rkhs.kernel_matrix(spec, ds.points),
                                lower=True, check_finite=False)
            want = cho_solve(factor, ds.labels, check_finite=False)
            assert np.array_equal(u.coefficients, want)

    def test_jittered_coefficients_equal_plain_cholesky(self):
        # two points 2e-9 apart make the nu = 3/2 kernel matrix singular in
        # doubles; the ladder's first jitter is added to its diagonal
        ds = Dataset(points=np.array([[0.0], [2e-9]]),
                     labels=np.array([1.0, 1.0]))
        spec = rkhs.KernelSpec(nu=1.5)
        u = rkhs.min_norm_interpolant(ds, spec)
        assert u.jitter_used == rkhs.JITTER_LADDER[1]
        a = rkhs.kernel_matrix(spec, ds.points) + u.jitter_used * np.eye(2)
        want = cho_solve(cho_factor(a, lower=True, check_finite=False),
                         ds.labels, check_finite=False)
        assert np.array_equal(u.coefficients, want)
        assert np.max(np.abs(u(ds.points) - ds.labels)) <= rkhs.RESIDUAL_TOL

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_solve_holds_one_kernel_matrix(self, nu):
        # the matrix is factored in place, and the residual is measured
        # through the blocked predict (a second n x n array: 2 n^2 8 bytes)
        n = 1024
        ds = random_dataset(np.random.default_rng(13), n, 3)
        spec = rkhs.KernelSpec(nu=nu)
        peak = peak_traced_bytes(lambda: rkhs.min_norm_interpolant(ds, spec))
        assert peak < n * n * 8 + 3 * MB


def _oracle_predict(u, x):
    """kernel_eval(cdist(x, centers)) @ c, one 4096-row slice at a time."""
    return np.concatenate([
        rkhs.kernel_eval(u.kernel, cdist(x[i:i + 4096], u.centers))
        @ u.coefficients
        for i in range(0, len(x), 4096)
    ])


class TestPredict:
    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(21)
        # the first 9000 queries are those of a 9000-point draw
        return random_dataset(rng, 60, 3), rng.uniform(-1.2, 1.2, (12289, 3))

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    @pytest.mark.parametrize("lengthscale", [1.0, 0.37])
    @pytest.mark.parametrize("m", [1, 257, 4095, 4096, 4097, 9000, 255, 256,
                                   258, 271, 272, 513, 4353, 4367, 12289])
    def test_equals_per_block_oracle(self, data, nu, lengthscale, m):
        # a plain split into 256-row sub-blocks would end m = 257, 513 and
        # 4353 in a 1-row block, whose product differs in the last bits;
        # 271 and 4367 join a 15-row tail to the sub-block before it, 272
        # keeps a 16-row one, and 12289 ends in a 1-row 4096-row span, as
        # the oracle does
        ds, queries = data
        u = rkhs.min_norm_interpolant(
            ds, rkhs.KernelSpec(nu=nu, lengthscale=lengthscale))
        x = queries[:m]
        assert np.array_equal(u(x), _oracle_predict(u, x))

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_point_batch_and_empty_shapes(self, data, nu):
        ds, queries = data
        u = rkhs.min_norm_interpolant(ds, rkhs.KernelSpec(nu=nu))
        single = u(queries[0])
        assert isinstance(single, float)
        assert single == _oracle_predict(u, queries[:1])[0]
        batch = queries[:10].reshape(2, 5, 3)
        got = u(batch)
        assert got.shape == (2, 5)
        assert np.array_equal(got.ravel(), _oracle_predict(u, queries[:10]))
        empty = u(np.empty((0, 3)))
        assert empty.shape == (0,)

    @pytest.mark.parametrize("shape", [(5, 2), (2,)])
    def test_wrong_point_dimension(self, data, shape):
        ds, _ = data
        u = rkhs.min_norm_interpolant(ds, rkhs.KernelSpec(nu=0.5))
        with pytest.raises(MismatchedLengths, match="dimension"):
            u(np.zeros(shape))

    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_memory_is_one_sub_block(self, nu):
        # at n = 1024 a sub-block buffer is 271 x 1024 doubles, 2.2 MB; a
        # 4096-row block was 33.6 MB, and nu = 3/2 took a second one
        rng = np.random.default_rng(14)
        ds = random_dataset(rng, 1024, 3)
        u = rkhs.min_norm_interpolant(ds, rkhs.KernelSpec(nu=nu))
        x = rng.uniform(-1, 1, (20000, 3))
        assert peak_traced_bytes(lambda: u(x)) < 5 * MB


class TestRkhsNorm:
    @pytest.mark.parametrize("nu", [0.5, 1.5])
    def test_equals_dense_quadratic_form(self, nu):
        rng = np.random.default_rng(15)
        ds = random_dataset(rng, 300, 3)
        u = rkhs.min_norm_interpolant(ds, rkhs.KernelSpec(nu=nu))
        c = u.coefficients
        k_mat = rkhs.kernel_matrix(u.kernel, u.centers)
        assert rkhs.rkhs_norm(u) == pytest.approx(math.sqrt(c @ k_mat @ c),
                                                  rel=1e-12)

    def test_single_point_unit(self):
        ds = Dataset(points=np.array([[0.0], [80.0]]),
                     labels=np.array([1.0, 0.0]))
        u = rkhs.min_norm_interpolant(ds, rkhs.KernelSpec(nu=0.5))
        assert rkhs.rkhs_norm(u) == pytest.approx(1.0, abs=1e-9)

    def test_label_scaling(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 30, 2)
        scaled = Dataset(points=ds.points, labels=2.5 * ds.labels)
        spec = rkhs.KernelSpec(nu=1.5)
        a = rkhs.rkhs_norm(rkhs.min_norm_interpolant(ds, spec))
        b = rkhs.rkhs_norm(rkhs.min_norm_interpolant(scaled, spec))
        assert b == pytest.approx(2.5 * a, rel=1e-8)

    def test_superset_with_consistent_labels_preserves_norm(self):
        # min-norm over more constraints cannot be cheaper; when the extra
        # labels come from the current solution, the solution is unchanged
        rng = np.random.default_rng(10)
        ds = random_dataset(rng, 40, 2)
        spec = rkhs.KernelSpec(nu=0.5)
        u = rkhs.min_norm_interpolant(ds, spec)
        extra = rng.uniform(-1, 1, size=(10, 2))
        sup = Dataset(points=np.vstack([ds.points, extra]),
                      labels=np.concatenate([ds.labels, u(extra)]))
        v = rkhs.min_norm_interpolant(sup, spec)
        nu_, nv = rkhs.rkhs_norm(u), rkhs.rkhs_norm(v)
        assert nv >= nu_ - 1e-8
        assert nv == pytest.approx(nu_, rel=1e-8)
        probes = rng.uniform(-1, 1, size=(50, 2))
        assert np.allclose(u(probes), v(probes), atol=1e-7)
