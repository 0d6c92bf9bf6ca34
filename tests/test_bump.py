import math
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from sobolab import bump, geometry, interpolant, morrey, quadrature
from sobolab.errors import (
    InvalidRange,
    MalformedInput,
    MismatchedLengths,
    NonpositiveRadius,
    QuadratureNotConverged,
    UnknownMultiIndex,
    UnsupportedDimension,
    UnsupportedOrder,
)

from box_oracle import integrate_partial_power, integrate_partial_power_fixed
from conftest import peak_traced_bytes, support_probes
from fdiff import fd_partial
from scaling_law import scaled_seminorm


class TestParams:
    def test_strict_range_flags(self):
        assert bump.SobolevParams(k=1, p=1.25, d=1).strict_range
        assert bump.SobolevParams(k=2, p=2.0, d=3).strict_range
        # kp = 3 > d = 1 is valid but k = 1 is above 1.5 d/p = 0.5
        assert not bump.SobolevParams(k=1, p=3.0, d=1).strict_range

    def test_subcritical_rejected(self):
        with pytest.raises(InvalidRange):
            bump.SobolevParams(k=1, p=2.0, d=3)

    def test_dimension_rejected(self):
        with pytest.raises(UnsupportedDimension):
            bump.SobolevParams(k=2, p=2.0, d=4)

    def test_order_cap(self):
        with pytest.raises(UnsupportedOrder):
            bump.SobolevParams(k=4, p=9.0, d=1)


class TestProfile:
    def test_plateau_value(self):
        assert bump.profile_eval(0.0) == 1.0
        assert bump.profile_eval(0.25) == 1.0

    def test_support_value(self):
        assert bump.profile_eval(1.0) == 0.0
        assert bump.profile_eval(2.0) == 0.0

    def test_interior_value(self):
        # phi(0.5) = h(2/3) / (h(2/3) + h(1/3)) = 1 / (1 + exp(-3/2))
        v = bump.profile_eval(0.5)
        assert 0.0 < v < 1.0
        assert v == pytest.approx(1.0 / (1.0 + math.exp(-1.5)), rel=1e-12)

    def test_range_everywhere(self):
        t = np.linspace(0, 2, 4001)
        v = bump.profile_values(t)
        assert np.all((0.0 <= v) & (v <= 1.0))
        assert np.all(np.diff(v) <= 1e-15)  # non-increasing

    def test_derivatives_flat_on_branches(self):
        for j in (1, 2, 3):
            assert bump.profile_eval(0.1, j) == 0.0
            assert bump.profile_eval(1.5, j) == 0.0

    def test_derivatives_vs_finite_differences(self):
        for t0 in (0.3, 0.5, 0.8, 0.95):
            for j in (1, 2, 3):
                want = fd_partial(lambda x: bump.profile_eval(x[0]), [t0],
                                  (0,) * j)
                assert bump.profile_eval(t0, j) == pytest.approx(
                    want, rel=2e-6, abs=1e-9)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrder):
            bump.profile_eval(0.5, 4)

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_derivatives_vs_mpmath_across_band(self, j):
        for t in np.linspace(0.2505, 0.9995, 60):
            want = _mp_profile(t, j)
            assert bump.profile_eval(t, j) == pytest.approx(
                want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_derivatives_vs_mpmath_near_edges(self, j):
        # phi^(j) falls to 1e-98 here, and to 0 in double within 1e-12 of
        # an edge; the closed form keeps full relative precision
        ks = np.arange(1.0, 2.5, 0.1)
        ts = [0.25 + 10.0 ** -ks, 1.0 - 10.0 ** -ks,
              [0.25 + 1e-12, 0.25 + 1e-13, 1.0 - 1e-12, 1.0 - 1e-13]]
        for t in np.concatenate(ts):
            want = _mp_profile(t, j)
            assert bump.profile_eval(t, j) == pytest.approx(
                want, rel=1e-12, abs=0.0)


def _mp_profile(t, j):
    """phi^(j)(t) by mpmath differentiation at 50 digits, as a float.

    Below t = 5/8, phi = 1 - h(1-s) / (h(s) + h(1-s)) is differentiated
    through its small second term, so phi^(j) keeps its relative precision
    where phi itself rounds to 1.
    """
    with mpmath.workdps(50):
        t = mpmath.mpf(float(t))
        upper = j == 0 or t >= mpmath.mpf(5) / 8

        def f(t):
            s = (1 - t) * 4 / mpmath.mpf(3)
            h1, h2 = mpmath.exp(-1 / s), mpmath.exp(-1 / (1 - s))
            return h1 / (h1 + h2) if upper else -h2 / (h1 + h2)

        return float(mpmath.diff(f, t, j))


@st.composite
def _partial_cases(draw):
    """A multi-index 1 <= |alpha| <= 3 in d = 1..3, a center, a radius, and
    a unit direction."""
    d = draw(st.integers(1, 3))
    alpha = draw(st.tuples(*[st.integers(0, 3)] * d)
                 .filter(lambda a: 1 <= sum(a) <= 3))
    center = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d,
                                    max_size=d)))
    delta = draw(st.floats(0.05, 20.0))
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d,
                                       max_size=d)
                              .filter(lambda v: np.linalg.norm(v) > 0.1)))
    return alpha, center, delta, direction / np.linalg.norm(direction)


@st.composite
def _bump_sums(draw, max_bumps=5):
    """A sum of 1 to ``max_bumps`` disjoint bumps in d = 1..3 and a
    multi-index |alpha| <= 3.

    Centers step along the first axis by r_i + r_(i+1) plus a gap, and every
    coordinate is a multiple of 1/64, so supports with no gap and no lateral
    offset touch exactly.  Neighbours of unequal radii break
    r_i <= delta_i / 2, which a sum of bumps does not promise.
    """
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, max_bumps))
    radii = np.array(draw(st.lists(st.integers(1, 32), min_size=m,
                                   max_size=m))) / 64.0
    gaps = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 5, 20]),
                                  min_size=m - 1, max_size=m - 1))) / 64.0
    centers = np.zeros((m, d))
    centers[1:, 0] = np.cumsum(radii[:-1] + radii[1:] + gaps)
    centers[:, 1:] = np.array(draw(st.lists(
        st.sampled_from([0, 0, 3, -7]), min_size=m * (d - 1),
        max_size=m * (d - 1)))).reshape(m, d - 1) / 64.0
    weights = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=m,
                                     max_size=m)))
    alpha = draw(st.sampled_from(bump.multi_indices(d, bump.MAX_ORDER)))
    return bump.BumpSum(centers=centers, radii=radii, weights=weights), alpha


def _chain(radii, d):
    """Bumps of the given radii along the last axis, each touching the
    next, with alternating weights."""
    radii = np.array(radii) / 64.0
    centers = np.zeros((len(radii), d))
    centers[1:, -1] = np.cumsum(radii[:-1] + radii[1:])
    weights = np.resize([1.5, -0.5], len(radii))
    return bump.BumpSum(centers=centers, radii=radii, weights=weights)


# Twelve touching bumps: unequal neighbours break the certificate, equal
# ones meet it exactly.
_TOUCHING_CHAIN = _chain([1, 3] * 6, 1)
_EVEN_CHAIN = _chain([2] * 12, 2)


class TestBumpEval:
    def test_center_and_boundary(self):
        c = np.array([0.3, -0.2])
        assert bump.bump_eval(c, 0.7, c) == 1.0
        edge = c + np.array([0.7, 0.0])
        assert bump.bump_eval(c, 0.7, edge) == 0.0

    def test_midrange_value(self):
        c = np.zeros(1)
        # ||x - c|| = 0.6 delta -> phi(0.36)
        v = bump.bump_eval(c, 2.0, np.array([1.2]))
        assert 0.0 < v < 1.0
        assert v == pytest.approx(bump.profile_eval(0.36), rel=1e-12)

    def test_plateau_and_support_probes(self):
        rng = np.random.default_rng(5)
        for d in (1, 2, 3):
            c = rng.uniform(-1, 1, size=d)
            delta = float(rng.uniform(0.3, 2.0))
            dirs = rng.standard_normal((10_000, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = rng.uniform(0, 1, size=10_000)
            inner = c + dirs * (radii * delta / 2)[:, None] * 0.999
            outer = c + dirs * (delta * (1.0 + radii))[:, None]
            vals_in = bump.bump_eval(c, delta, inner)
            vals_out = bump.bump_eval(c, delta, outer)
            assert np.all(vals_in == 1.0)
            assert np.all(vals_out == 0.0)
            anywhere = c + dirs * (radii * 2 * delta)[:, None]
            v = bump.bump_eval(c, delta, anywhere)
            assert np.all((0.0 <= v) & (v <= 1.0))

    def test_nonpositive_radius(self):
        with pytest.raises(NonpositiveRadius):
            bump.bump_eval(np.zeros(1), 0.0, np.zeros(1))


class TestBumpPartial:
    def test_zero_on_plateau(self):
        c = np.array([0.1, 0.4])
        for alpha in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            assert bump.bump_partial(alpha, c, 1.0, c) == 0.0

    def test_scaling_chain_rule_identity(self):
        # D^alpha psi_delta(delta x) = delta^(-|alpha|) D^alpha psi_1(x)
        rng = np.random.default_rng(7)
        delta = 1.7
        for alpha in [(1,), (2,), (3,)]:
            for _ in range(5):
                x = rng.uniform(-1, 1, size=1)
                lhs = bump.bump_partial(alpha, np.zeros(1), delta, delta * x)
                rhs = delta ** (-sum(alpha)) * bump.bump_partial(
                    alpha, np.zeros(1), 1.0, x)
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("alpha", [(1, 0, 0), (1, 1, 0), (2, 0, 0),
                                       (1, 1, 1), (2, 1, 0), (3, 0, 0)])
    def test_vs_finite_differences(self, alpha):
        rng = np.random.default_rng(sum(alpha))
        c = np.array([0.05, -0.1, 0.2])
        delta = 1.3
        hits = 0
        while hits < 20:
            x = c + rng.uniform(-1, 1, size=3) * delta
            r = np.linalg.norm(x - c) / delta
            if not 0.55 <= r <= 0.95:  # stay away from flat branches
                continue
            hits += 1
            axes = [j for j, a in enumerate(alpha) for _ in range(a)]
            # third-order stencils need a larger step or roundoff
            # (eps / h^3) dominates the comparison budget; at 6e-3 the
            # truncation error near r = 0.55 reaches 1e-5 relative
            h = (1e-3 if sum(alpha) <= 2 else 2e-3) * delta
            want = fd_partial(
                lambda v: bump.bump_eval(c, delta, v), x, tuple(axes), h=h)
            got = bump.bump_partial(alpha, c, delta, x)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-8)

    @given(case=_partial_cases(), r=st.floats(0.55, 0.95))
    def test_property_vs_finite_differences(self, case, r):
        alpha, c, delta, direction = case
        x = c + r * delta * direction
        axes = tuple(j for j, a in enumerate(alpha) for _ in range(a))
        order = len(axes)
        # third-order stencils trade roundoff (about 1e-7 = eps / h^3 in
        # the units of delta) against the h^8 truncation near the band
        # edges; h = 2e-3 balances them
        h, floor = (1e-3, 1e-8) if order <= 2 else (2e-3, 2e-7)
        want = fd_partial(lambda v: bump.bump_eval(c, delta, v), x, axes,
                          h=h * delta)
        got = bump.bump_partial(alpha, c, delta, x)
        assert got == pytest.approx(want, rel=1e-6, abs=floor * delta ** -order)

    @given(case=_partial_cases(),
           r=st.one_of(st.floats(0.0, 0.5), st.floats(1.0, 3.0)))
    def test_property_exactly_zero_off_band(self, case, r):
        alpha, c, delta, direction = case
        x = c + r * delta * direction
        u = float(np.sum(((x - c) / delta) ** 2))
        if 0.25 < u < 1.0:  # rounding put x back on the band
            return
        assert bump.bump_partial(alpha, c, delta, x) == 0.0

    def test_batch_shapes(self):
        c = np.zeros(2)
        x = np.random.default_rng(3).uniform(-1, 1, size=(4, 5, 2))
        got = bump.bump_partial((1, 1), c, 1.0, x)
        assert got.shape == (4, 5)
        for i, j in np.ndindex(4, 5):
            assert got[i, j] == bump.bump_partial((1, 1), c, 1.0, x[i, j])
        assert bump.bump_partial((1, 1), c, 1.0, np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("alpha", [(0, 0), (1, 0), (1, 1), (0, 3)])
    def test_per_point_centers_and_radii(self, alpha):
        # numpy's array power rounds about 5% of r^-2 and r^-3 differently
        # from a Python-float power; 600 points, most on the band, show it
        rng = np.random.default_rng(sum(alpha))
        centers = rng.uniform(-1, 1, size=(20, 30, 2))
        radii = rng.uniform(0.2, 2.0, size=(20, 30))
        x = centers + radii[..., None] * rng.uniform(-0.8, 0.8,
                                                     size=(20, 30, 2))
        got = bump.bump_partial(alpha, centers, radii, x)
        assert got.shape == (20, 30)
        for i, j in np.ndindex(20, 30):
            want = bump.bump_partial(alpha, centers[i, j], float(radii[i, j]),
                                     x[i, j])
            assert (np.float64(got[i, j]).tobytes()
                    == np.float64(want).tobytes())
        with pytest.raises(NonpositiveRadius):
            bump.bump_partial(alpha, centers,
                              np.where(radii > 1.0, radii, 0.0), x)

    def test_order_cap_and_shape_checks(self):
        with pytest.raises(UnsupportedOrder):
            bump.bump_partial((2, 2), np.zeros(2), 1.0, np.zeros(2))
        with pytest.raises(MismatchedLengths):
            bump.bump_partial((1,), np.zeros(2), 1.0, np.zeros(2))

    @pytest.mark.parametrize("width", [1, 2])
    @pytest.mark.parametrize("alpha", [(0, 0, 0), (1, 0, 0)])
    def test_point_dimension_must_match_center(self, width, alpha):
        # broadcasting would read a width-1 point as (x, x, x)
        x = np.full((2, width), 0.4)
        with pytest.raises(MismatchedLengths, match="dimension"):
            bump.bump_partial(alpha, np.zeros(3), 1.0, x)
        with pytest.raises(MismatchedLengths, match="dimension"):
            bump.bump_eval(np.zeros(3), 1.0, x)


def _refuse_offsets(monkeypatch):
    """Make every later (x - c) / r pass of bump_partial raise."""
    def refuse(*args):
        raise AssertionError("offsets formed again")

    monkeypatch.setattr(bump, "bump_partial", refuse)
    monkeypatch.setattr(bump, "_scaled_offsets", refuse)


class TestBumpSum:
    def test_overlap_rejected(self):
        with pytest.raises(MismatchedLengths):
            bump.BumpSum(centers=[[0.0], [0.5]], radii=[0.4, 0.4],
                         weights=[1.0, 1.0])

    @pytest.mark.parametrize("field, value, error", [
        ("radii", np.nan, NonpositiveRadius),
        ("radii", np.inf, NonpositiveRadius),
        ("radii", 0.0, NonpositiveRadius),
        ("weights", np.nan, MalformedInput),
        ("weights", np.inf, MalformedInput),
        ("weights", -np.inf, MalformedInput),
        ("centers", np.nan, MalformedInput),
        ("centers", -np.inf, MalformedInput),
    ])
    def test_nonfinite_rejected(self, field, value, error):
        args = dict(centers=np.array([[0.0], [1.0], [3.0]]),
                    radii=np.array([0.25, 0.25, 0.5]),
                    weights=np.array([1.0, 2.0, 3.0]))
        args[field] = args[field].copy()
        args[field][1] = value
        with pytest.raises(error):
            bump.BumpSum(**args)

    def test_sup_abs_and_eval(self):
        f = bump.BumpSum(centers=[[0.0], [2.0]], radii=[0.5, 0.5],
                         weights=[3.0, -4.0])
        assert f.sup_abs == 4.0
        assert f(np.array([2.0])) == -4.0
        assert f(np.array([1.0])) == 0.0

    def test_touching_supports_accepted(self):
        f = bump.BumpSum(centers=[[0.0], [1.0]], radii=[0.5, 0.5],
                         weights=[1.0, 1.0])
        assert f(np.array([0.5])) == 0.0

    @pytest.mark.parametrize("centers, first", [
        ([[0.0], [0.1], [0.2]], (0, 1)),
        ([[5.0], [0.0], [0.1], [5.1]], (0, 3)),
    ])
    def test_first_overlapping_pair_named(self, centers, first):
        with pytest.raises(MismatchedLengths,
                           match=f"bumps {first[0]} and {first[1]} overlap"):
            bump.BumpSum(centers=centers, radii=[0.3] * len(centers),
                         weights=[1.0] * len(centers))

    def test_single_bump(self):
        f = bump.BumpSum(centers=[[0.2, 0.1]], radii=[0.4], weights=[-2.0])
        assert f(np.array([0.2, 0.1])) == -2.0
        assert geometry._violating_pairs(f.centers, 2.0 * f.radii) == []

    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(64, 256),
           d=st.integers(1, 3), spread=st.sampled_from([0.0, 0.5]))
    def test_overlap_verdict_equals_brute_force(self, seed, m, d, spread):
        rng = np.random.default_rng(seed)
        ds = geometry.Dataset(points=rng.uniform(-1, 1, size=(m, d)),
                              labels=np.zeros(m))
        radii = geometry.nn_radii(ds) / 2.0 * rng.uniform(
            1.0 - spread, 1.0 + spread, size=m)
        want = geometry.check_packing_brute_force(ds, 2.0 * radii)
        assert geometry._violating_pairs(ds.points, 2.0 * radii) == want
        if spread == 0.0:
            assert want == []
        args = dict(centers=ds.points, radii=radii, weights=np.ones(m))
        if want:
            with pytest.raises(MismatchedLengths,
                               match=f"bumps {want[0][0]} and {want[0][1]} "):
                bump.BumpSum(**args)
        else:
            bump.BumpSum(**args)

    def test_empty_sum_rejected(self):
        with pytest.raises(MismatchedLengths, match="at least one bump"):
            bump.BumpSum(centers=np.zeros((0, 2)), radii=[], weights=[])

    def test_zero_dimensional_centers_rejected(self):
        with pytest.raises(MismatchedLengths, match="dimension >= 1"):
            bump.BumpSum(centers=np.zeros((2, 0)), radii=[0.1, 0.1],
                         weights=[1.0, 1.0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("radii, certified, overlap", [
        ([0.5, 0.5], True, False),  # touching, both at half the gap
        ([0.25, 0.75], False, False),  # touching, one beyond half the gap
        # one ulp past: the sum of the radii rounds back to the gap
        ([0.5, 0.5 + 2.0 ** -53], False, False),
        ([0.5, 0.5 + 2.0 ** -52], False, True),  # two ulps past
    ])
    def test_certificate_against_overlap_search_at_touching_supports(
            self, d, radii, certified, overlap):
        centers = np.zeros((2, d))
        centers[:, -1] = [-0.375, 0.625]
        radii = np.array(radii)
        assert geometry._violating_pairs(centers, 2.0 * radii) == (
            [(0, 1)] if overlap else [])
        args = dict(centers=centers, radii=radii, weights=[1.0, -1.0])
        if overlap:
            with pytest.raises(MismatchedLengths, match="bumps 0 and 1"):
                bump.BumpSum(**args)
            return
        u = bump.BumpSum(**args)
        assert u._certified is certified
        assert u(centers).tolist() == [1.0, -1.0]

    @pytest.mark.parametrize("n", [2, 2 * bump._MASK_MAX_BUMPS, 70])
    def test_overflowing_center_distance_rejected(self, n):
        # 0 and 1e160 are 1e160 apart, but the squared distance overflows:
        # it certifies nothing, and the overlap search cannot decide it
        centers = np.arange(n, dtype=float)[:, None]
        centers[1] = 1e160
        with pytest.raises(MalformedInput, match="distances .* overflow"):
            bump.BumpSum(centers=centers, radii=np.full(n, 1e200),
                         weights=np.ones(n))
        with pytest.raises(MalformedInput, match="distances .* overflow"):
            bump.BumpSum(centers=centers, radii=np.full(n, 0.25),
                         weights=np.ones(n))

    def test_radius_whose_double_overflows(self):
        assert bump.BumpSum(centers=[[0.0]], radii=[1e308],
                            weights=[1.0])._certified
        with pytest.raises(MismatchedLengths, match="bumps 0 and 1"):
            bump.BumpSum(centers=[[0.0], [1.0]], radii=[1e308, 0.25],
                         weights=[1.0, 1.0])

    @pytest.mark.parametrize("far", [(), (1e200,), (-1e308, 1.7e308)])
    @pytest.mark.parametrize("m", [1, 3, 40])
    def test_far_and_edge_points_in_the_batch_tree(self, m, far):
        # far points, whose offsets from the grid's box overflow, and points
        # on and just past the outer supports' edges; m = 1 and 3 are
        # batches no larger than the sum
        n = 2 * bump._MASK_MAX_BUMPS
        u = bump.BumpSum(centers=np.arange(n, dtype=float)[:, None] / 2.0,
                         radii=np.full(n, 0.25), weights=np.arange(1.0, n + 1))
        hi, lo = u.centers[-1, 0] + 0.25, -0.25
        # 0.95 r from the outer centers, where the bumps are still nonzero
        probes = [hi - 0.0125, lo + 0.0125, lo, hi, np.nextafter(hi, 9.0),
                  np.nextafter(lo, -9.0), 0.0, 0.375]
        x = np.append(np.resize(probes, m), far)[:, None]
        want = np.zeros(len(x))
        for c, r, w in zip(u.centers, u.radii, u.weights):
            near = np.abs(x[:, 0] - c[0]) < 1.0
            want[near] += w * bump.bump_eval(c, float(r), x[near])
        assert u(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("base", [1e153, 1e160])
    @pytest.mark.parametrize("near", [(0,), (1,), (0, 1)],
                             ids=["first", "second", "both"])
    def test_far_clusters_in_the_batch_tree(self, base, near):
        # two clusters of bumps, base apart: every nearest-neighbor distance
        # is finite, so the sum certifies and evaluates at its centers with
        # no grid, but at 1e160 the squared diagonal of the grid's reach box
        # overflows, whichever cluster the batch is near
        n = bump._MASK_MAX_BUMPS
        step = base * 1e-15
        centers = np.append(np.arange(n), base + step * np.arange(n))[:, None]
        radii = np.append(np.full(n, 0.25), np.full(n, step / 4.0))
        u = bump.BumpSum(centers=centers, radii=radii,
                         weights=np.arange(1.0, 2 * n + 1))
        assert u._certified
        assert u(centers).tolist() == u.weights.tolist()
        x = np.array([(0.125, base + step / 8.0)[i] for i in near])[:, None]
        if base == 1e160:
            with pytest.raises(MalformedInput, match="distances .* overflow"):
                u(x)
            return
        want = np.zeros(len(x))
        for c, r, w in zip(u.centers, u.radii, u.weights):
            want += w * bump.bump_eval(c, float(r), x)
        assert u(x).tobytes() == want.tobytes()

    @given(d=st.integers(1, 3), m=st.integers(2, 40),
           seed=st.integers(0, 2 ** 32 - 1), widen=st.booleans())
    def test_certificate_implies_no_overlap(self, d, m, seed, widen):
        # centers on a grid of 1/8, every radius at exactly half its
        # nearest-neighbor distance, so supports touch; widening one
        # radius by one ulp breaks the certificate
        rng = np.random.default_rng(seed)
        centers = rng.choice(64, size=(m, d)) / 8.0
        nn_sq = geometry._nn_sq_dists(centers)
        if np.min(nn_sq) == 0.0:
            return
        radii = np.sqrt(nn_sq) / 2.0
        if widen:
            j = int(rng.integers(m))
            radii[j] = np.nextafter(radii[j], np.inf)
        pairs = geometry._violating_pairs(centers, 2.0 * radii)
        args = dict(centers=centers, radii=radii, weights=np.ones(m))
        if pairs:
            assert widen
            with pytest.raises(MismatchedLengths,
                               match=f"bumps {pairs[0][0]} and {pairs[0][1]} "):
                bump.BumpSum(**args)
        else:
            assert bump.BumpSum(**args)._certified is not widen

    @pytest.mark.parametrize("shape", [(4, 3), (3,), (2, 2, 1)])
    def test_wrong_point_dimension(self, shape):
        f = bump.BumpSum(centers=[[0.0, 0.0]], radii=[1.0], weights=[1.0])
        with pytest.raises(MismatchedLengths, match="dimension"):
            f(np.zeros(shape))

    def test_empty_batch(self):
        f = bump.BumpSum(centers=[[0.0, 0.0]], radii=[1.0], weights=[1.0])
        assert f(np.zeros((0, 2))).shape == (0,)
        assert f(np.zeros((0, 2))).dtype == np.float64
        got = f.partial((1, 0), np.zeros((2, 0, 2)))
        assert got.shape == (2, 0)
        assert got.dtype == np.float64

    @pytest.mark.parametrize("n", [1, 2, 3 * bump._MASK_MAX_BUMPS])
    def test_batch_in_no_support_is_float_zeros(self, n):
        # np.bincount of no pairs counts in int64; a batch that meets no
        # support still evaluates to float64 zeros, on every shortlist
        u = bump.BumpSum(centers=np.arange(n, dtype=float)[:, None],
                         radii=np.full(n, 0.25), weights=np.ones(n))
        for x in ([[100.0]], [[n + 5.0], [n + 6.0]], np.full((n, 1), -3.0)):
            got = u(np.array(x))
            assert got.dtype == np.float64
            assert got.tolist() == [0.0] * len(x)

    @pytest.mark.parametrize("n, m", [
        (3, 4),  # masks
        (2 * bump._MASK_MAX_BUMPS, 2 * bump._MASK_MAX_BUMPS),  # identity's size
        (2 * bump._MASK_MAX_BUMPS, 5),  # grid
    ], ids=["masks", "identity", "grid"])
    def test_nan_point_rejected_on_every_shortlist(self, n, m):
        u = bump.BumpSum(centers=np.arange(n, dtype=float)[:, None],
                         radii=np.full(n, 0.25), weights=np.ones(n))
        x = np.resize(u.centers, (m, 1)).copy()
        x[-1] = np.nan
        with pytest.raises(MalformedInput, match="NaN"):
            u(x)
        with pytest.raises(MalformedInput, match="NaN"):
            u.partial((1,), x)
        # infinite and far finite points lie in no support, as documented
        x[-1] = np.inf
        x[0] = -np.inf
        got = u(np.vstack([x, [[1e200], [-1e308], [1.7e308]]]))
        assert got[0] == got[m - 1] == 0.0
        assert got[1:m - 1].tolist() == [1.0] * (m - 2)
        assert got[m:].tolist() == [0.0] * 3

    @given(case=_bump_sums(), seed=st.integers(0, 2 ** 32 - 1))
    def test_property_equals_per_bump_sum(self, case, seed):
        u, alpha = case
        rng = np.random.default_rng(seed)
        lo = u.centers.min(axis=0) - u.radii.max()
        hi = u.centers.max(axis=0) + u.radii.max()
        pts = np.vstack([support_probes(u.centers, u.radii),
                         rng.uniform(lo, hi, size=(40, u.dim))])
        half = len(pts) // 2
        batches = (pts, pts[:2 * half].reshape(2, half, u.dim), pts[0],
                   pts[-1])
        for x in batches:
            got = u.partial(alpha, x)
            want = np.zeros(x.shape[:-1])
            for c, r, w in zip(u.centers, u.radii, u.weights):
                want = want + w * bump.bump_partial(alpha, c, float(r), x)
            assert np.shape(got) == want.shape
            assert np.asarray(got).dtype == np.float64
            assert np.asarray(got).tobytes() == want.tobytes()

    @given(case=_bump_sums(max_bumps=3 * bump._MASK_MAX_BUMPS),
           seed=st.integers(0, 2 ** 32 - 1),
           side=st.sampled_from(["fewer", "equal", "more"]))
    @example(case=(_TOUCHING_CHAIN, (1,)), seed=3, side="equal")
    @example(case=(_TOUCHING_CHAIN, (2,)), seed=4, side="fewer")
    @example(case=(_EVEN_CHAIN, (0, 1)), seed=5, side="equal")
    @example(case=(_EVEN_CHAIN, (0, 0)), seed=6, side="more")
    def test_property_every_shortlist_equals_per_bump_sum(self, case, seed,
                                                          side):
        # the shortlists of BumpSum._support_pairs: masks for a few bumps,
        # the identity at a certified sum's own centers, else the grid
        u, alpha = case
        rng = np.random.default_rng(seed)
        lo = u.centers.min(axis=0) - u.radii.max()
        hi = u.centers.max(axis=0) + u.radii.max()
        pool = np.vstack([support_probes(u.centers, u.radii),
                          rng.uniform(lo, hi, size=(4 * u.n + 8, u.dim))])
        m = {"fewer": int(rng.integers(0, u.n)), "equal": u.n,
             "more": int(rng.integers(u.n + 1, len(pool) + 1))}[side]
        x = pool[:m]
        got = u(x)
        assert got.dtype == np.float64
        assert got.tobytes() == interpolant.evaluate_brute_force(u, x).tobytes()
        want = np.zeros(m)
        for c, r, w in zip(u.centers, u.radii, u.weights):
            want = want + w * bump.bump_partial(alpha, c, float(r), x)
        got = u.partial(alpha, x)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shortlist", ["masks", "identity", "grid"])
    def test_values_take_the_shortlists_u(self, shortlist, monkeypatch):
        # at alpha = 0 the value is phi of the u that decided the pair, so
        # no offset is formed again; a derivative still forms them
        rng = np.random.default_rng(17)
        n = 3 if shortlist == "masks" else 4 * bump._MASK_MAX_BUMPS
        ds = geometry.Dataset(points=rng.uniform(-1.0, 1.0, size=(n, 2)),
                              labels=rng.standard_normal(n))
        u = interpolant.build(ds, geometry.nn_radii(ds), 1.0,
                              bump.SobolevParams(k=1, p=2.5, d=2))
        x = (u.centers if shortlist == "identity"
             else rng.uniform(-1.2, 1.2, size=(500, 2)))
        want = u(x)
        _refuse_offsets(monkeypatch)
        assert u(x).tobytes() == want.tobytes()
        assert (u._grid is None) == (shortlist != "grid")
        with pytest.raises(AssertionError, match="offsets formed again"):
            u.partial((1, 0), x)

    def test_morrey_batch_forms_no_offsets_again(self, monkeypatch):
        block = morrey._draw_block(np.random.default_rng(18), 8)
        want = morrey._exact_block(*block, 1.25)
        _refuse_offsets(monkeypatch)
        assert morrey._exact_block(*block, 1.25) == want


def _lattice(side, spacing, origin):
    """side x side centers on a square lattice in the plane."""
    steps = np.arange(side) * spacing
    grid = np.stack(np.meshgrid(steps, steps, indexing="ij"), axis=-1)
    return grid.reshape(-1, 2) + np.asarray(origin)


def _per_bump_sum_near(u, x):
    """The per-bump sum at ``x``, each bump evaluated at the points of its
    support's box alone: everywhere else its term is an exact zero."""
    want = np.zeros(len(x))
    for c, r, w in zip(u.centers, u.radii, u.weights):
        near = np.flatnonzero((np.abs(x - c) <= r).all(axis=1))
        want[near] = want[near] + w * bump.bump_eval(c, float(r), x[near])
    return want


class TestSupportGrid:
    """BumpSum's cell grid against the per-bump sum, where a grid with one
    cell width, or a dense table, would be slow or large."""

    POINTS = 65536

    def _check(self, u, x):
        want = _per_bump_sum_near(u, x)
        assert np.count_nonzero(want) > len(x) // 8
        fresh = bump.BumpSum(centers=u.centers, radii=u.radii,
                             weights=u.weights)
        peak = peak_traced_bytes(lambda: fresh(x))  # the grid's build too
        assert peak < 6 * 2 ** 20
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            got = u(x)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.1
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert fresh(x).tobytes() == want.tobytes()

    def test_two_far_clusters(self):
        # 2 x 500 bumps of radius 1e-3, 1e6 apart: one level, whose box
        # would hold about 1e18 cells; its table wraps instead
        rng = np.random.default_rng(11)
        near = _lattice(23, 4e-3, (0.0, 0.0))[:500]
        centers = np.vstack([near, near + 1e6])
        u = bump.BumpSum(centers=centers, radii=np.full(1000, 1e-3),
                         weights=rng.uniform(-2.0, 2.0, 1000))
        half = self.POINTS // 2
        x = np.vstack([rng.uniform(-2e-3, 0.09, size=(half, 2)),
                       1e6 + rng.uniform(-2e-3, 0.09, size=(half, 2))])
        self._check(u, x)
        assert len(u._grid.levels) == 1

    def test_one_large_bump_among_many_tiny(self):
        # a bump of radius 1 and 576 of radius 1e-3: cells as wide as the
        # tiny radii would list the large bump about 4e6 times, and cells as
        # wide as the large one would hold every tiny bump in one cell
        rng = np.random.default_rng(12)
        tiny = _lattice(24, 4e-3, (2.0, 0.0))
        centers = np.vstack([[0.0, 0.0], tiny])
        radii = np.append(1.0, np.full(len(tiny), 1e-3))
        u = bump.BumpSum(centers=centers, radii=radii,
                         weights=rng.uniform(-2.0, 2.0, len(centers)))
        assert u._certified
        half = self.POINTS // 2
        x = np.vstack([rng.uniform(-1.0, 1.0, size=(half, 2)),
                       rng.uniform(1.998, 2.094, size=(half, 2))])
        self._check(u, x)
        assert len(u._grid.levels) == 2

    def test_level_wider_than_exact_cell_coordinates(self):
        # two clusters 2^55 apart on both axes, where the spacing of doubles
        # is 8: cells of twice the median radius would number 2^52 per axis,
        # so the level takes cells 2^50 times narrower than its box, and
        # cell coordinates stay exact integers
        rng = np.random.default_rng(13)
        near = _lattice(4, 8.0, (0.0, 0.0))
        apart = np.array([2.0 ** 55, -2.0 ** 55])
        u = bump.BumpSum(centers=np.vstack([near, near + apart]),
                         radii=np.full(32, 4.0),
                         weights=rng.uniform(-2.0, 2.0, 32))
        x = np.vstack([support_probes(u.centers, u.radii),
                       rng.uniform(-4.0, 28.0, size=(500, 2)),
                       apart + rng.uniform(-4.0, 28.0, size=(500, 2))])
        got = u(x)
        assert got.dtype == np.float64
        assert got.tobytes() == _per_bump_sum_near(u, x).tobytes()
        (level,) = u._grid.levels
        assert level[1] > 16.0  # the median radius is 4

    @given(d=st.integers(1, 3), m=st.integers(bump._MASK_MAX_BUMPS + 1, 40),
           seed=st.integers(0, 2 ** 32 - 1),
           alpha_index=st.integers(0, 19))
    def test_property_levels_equal_per_bump_sum(self, d, m, seed,
                                                alpha_index):
        # radii over 24 octaves along a chain of touching supports spread
        # the bumps over several levels, with stray small and large ones
        rng = np.random.default_rng(seed)
        radii = 2.0 ** -rng.integers(0, 24, size=m)
        gaps = rng.choice([0.0, 0.0, 1.0, 100.0], size=m - 1) * radii[1:]
        centers = np.zeros((m, d))
        centers[1:, 0] = np.cumsum(radii[:-1] + radii[1:] + gaps)
        u = bump.BumpSum(centers=centers, radii=radii,
                         weights=rng.uniform(-3.0, 3.0, m))
        alphas = bump.multi_indices(d, bump.MAX_ORDER)
        alpha = alphas[alpha_index % len(alphas)]
        scale = radii[rng.integers(0, m, size=200)][:, None]
        x = np.vstack([support_probes(u.centers, u.radii),
                       u.centers[rng.integers(0, m, size=200)]
                       + rng.uniform(-1.5, 1.5, size=(200, d)) * scale])
        want = np.zeros(len(x))
        for c, r, w in zip(u.centers, u.radii, u.weights):
            want = want + w * bump.bump_partial(alpha, c, float(r), x)
        got = u.partial(alpha, x)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


class TestModuli:
    def test_m0_sandwich_d1(self, moduli_d1):
        # psi^p is 1 on B(0, 1/2) and <= 1 on B(0, 1)
        m0 = moduli_d1.modulus((0,))
        assert 1.0 <= m0 <= 2.0

    def test_m0_sandwich_d2(self, moduli_d2):
        m0 = moduli_d2.modulus((0, 0))
        assert math.pi / 4 <= m0 <= math.pi

    def test_all_positive_and_complete(self, moduli_d2):
        want = set(bump.multi_indices(2, 1))
        assert set(moduli_d2.table) == want
        assert all(v > 0 for v in moduli_d2.table.values())

    def test_panel_doubling_self_consistency(self, moduli_d1):
        # a fixed box rule, independent of how the table was built (its
        # entries count radial panels)
        for alpha, m in moduli_d1.table.items():
            refined = integrate_partial_power_fixed(
                alpha, moduli_d1.params.p, 1.0, panels=32)
            assert refined == pytest.approx(m, rel=1e-8)

    def test_permutation_symmetry(self, moduli_d2):
        assert moduli_d2.modulus((1, 0)) == moduli_d2.modulus((0, 1))

    def test_unknown_index(self, moduli_d1):
        with pytest.raises(UnknownMultiIndex):
            moduli_d1.modulus((5,))

    def test_not_converged_raises(self, params_d1, monkeypatch):
        # M_(0,) needs 16 panels, two doublings from 4
        monkeypatch.setattr(bump, "_MAX_DOUBLINGS", 1)
        with pytest.raises(QuadratureNotConverged):
            bump.reference_moduli(params_d1)

    @pytest.mark.parametrize("kpd, nodes, match", [
        pytest.param((2, 1.6, 2), 24,
                     r"^class \(0, 2\) .*: no convergence to rel 1e-13 of "
                     r"the inner rule: 24 and 48 nodes differ",
                     id="not-converged"),
        pytest.param((2, 301.0, 1), bump._JACOBI_NODES,
                     r"^class \(2,\) .*: integral is inf at 4 panels: the "
                     r"integrand overflows", id="overflow"),
    ])
    def test_order_two_box_path_raises(self, kpd, nodes, match,
                                       monkeypatch):
        # the order <= 1 classes converge on the radial ladder either way;
        # at 24 nodes the inner rule in theta_j of (0, 2) at p = 1.6 is off
        # by more than 1e-13, and |4 r^2 phi'' + 2 phi'|^301 overflows where
        # |2 r phi'|^301 does not
        monkeypatch.setattr(bump, "_JACOBI_NODES", nodes)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(QuadratureNotConverged, match=match):
                bump.reference_moduli(bump.SobolevParams(*kpd))


def _radial_oracle(alpha, p, d):
    """M_alpha for alpha = 0 or e_d by scipy's adaptive quadrature in r.

    D^alpha psi_1(r theta) is phi(r^2) or 2 r phi'(r^2) theta_d, so M_alpha
    is a radial integral over the band times the sphere integral of
    |theta_d|^q, 2 Gamma((q+1)/2) Gamma(1/2)^(d-1) / Gamma((q+d)/2), with
    q = 0 or p; alpha = 0 adds the plateau, the ball of radius 1/2.
    """
    order = sum(alpha)
    q = p if order else 0.0
    sphere = (2.0 * math.gamma((q + 1) / 2) * math.gamma(0.5) ** (d - 1)
              / math.gamma((q + d) / 2))

    def radial(r):
        v = bump.profile_eval(r * r, order) * (2.0 * r) ** order
        return r ** (d - 1) * abs(v) ** p

    band, _ = quad(radial, 0.5, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    plateau = 0.0 if order else sphere / (d * 2.0 ** d)
    return sphere * band + plateau


class TestExactModuli:
    """The radial path: Folland's sphere moments and one radial ladder."""

    @pytest.mark.parametrize("beta, want", [
        ((0,), 2.0),
        ((0, 0), 2.0 * math.pi),
        ((0, 0, 0), 4.0 * math.pi),
        ((0, 0, 2), 4.0 * math.pi / 3.0),
        ((2, 0, 0), 4.0 * math.pi / 3.0),
        ((2, 2), math.pi / 4.0),
    ])
    def test_sphere_moment_closed_forms(self, beta, want):
        assert bump._sphere_moment(beta) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("beta", [(1,), (0, 3), (2, 1, 0), (1, 1, 2)])
    def test_sphere_moment_odd_exponent_is_zero(self, beta):
        assert bump._sphere_moment(beta) == 0.0

    @pytest.mark.parametrize("beta, want", [
        ((1,), 2.0),
        ((0, 1), 4.0),                     # integral of |sin t| over a turn
        ((0, 0, 3), math.pi),              # 2 pi integral of |x|^3 on [-1, 1]
        ((0, 2.5), float(4 * mpmath.quad(lambda t: mpmath.sin(t) ** 2.5,
                                          [0, mpmath.pi / 2]))),
    ], ids=["1", "0-1", "0-0-3", "0-2.5"])
    def test_absolute_sphere_moment_has_no_parity_rule(self, beta, want):
        assert bump._sphere_moment(beta, absolute=True) == pytest.approx(
            want, rel=1e-14)

    @pytest.mark.parametrize("beta, log_scale", [
        ((1000, 1000, 1000), 0.0),  # 1e-719: would flush to 0
        ((0,), 710.0),              # 2 e^710: would overflow
    ])
    def test_sphere_moment_outside_double_range_raises(self, beta, log_scale):
        with pytest.raises(QuadratureNotConverged, match="double range"):
            bump._sphere_moment(beta, log_scale)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0])
    def test_ladder_value_not_finite_and_positive_raises(self, monkeypatch,
                                                         value):
        # the modulus is checked again after the ladder, whatever it returns
        monkeypatch.setattr(quadrature, "refine",
                            lambda *args, **kw: (value, 8, value))
        with pytest.raises(QuadratureNotConverged, match="double range"):
            bump._radial_modulus((0, 1), 4.0)

    @pytest.mark.parametrize("kpd", [(1, 4.0, 1), (2, 2.0, 2), (1, 4.0, 3)])
    def test_matches_box_quadrature_every_class(self, kpd):
        params = bump.SobolevParams(*kpd)
        moduli = bump.reference_moduli(params)
        for rep in {tuple(sorted(a)) for a in moduli.indices}:
            box, _, _ = integrate_partial_power(rep, params.p, 1.0)
            assert moduli.modulus(rep) == pytest.approx(box, rel=1e-10), rep

    @pytest.mark.parametrize("kpd", [(3, 64.0, 1), (2, 64.0, 2),
                                     (2, 128.0, 2)])
    def test_large_even_p_matches_box_quadrature(self, kpd):
        # every term of the polar integrand is of one sign, so no
        # cancellation grows with p
        params = bump.SobolevParams(*kpd)
        moduli = bump.reference_moduli(params)
        for rep in {tuple(sorted(a)) for a in moduli.indices}:
            box, _, _ = integrate_partial_power(rep, params.p, 1.0,
                                                max_doublings=8)
            assert moduli.modulus(rep) == pytest.approx(box, rel=1e-11), rep

    def test_p160_order_two_matches_box_quadrature(self):
        # where the expansion at even p raised; the box, at rel 1e-13 and
        # 256 panels, gives 6.358580888439865e+278
        moduli = bump.reference_moduli(bump.SobolevParams(2, 160.0, 1))
        assert moduli.modulus((2,)) == pytest.approx(6.358580888439865e+278,
                                                     rel=1e-13)

    @pytest.mark.parametrize("alpha, p", [
        ((0, 2), 2.5), ((1, 1), 2.5), ((0, 2), 3.3), ((1, 1), 3.3),
        ((1, 2), 3.3), ((0, 3), 5.0)])
    def test_order_two_and_three_match_box_quadrature_d2(self, alpha, p):
        # the box stalls short of 1e-8 on (0, 3) below p = 4.5 and on
        # (1, 2) below 3.3: its grid does not follow the zero set of
        # D^alpha psi_1
        box, _, _ = integrate_partial_power(alpha, p, 1.0)
        value, _, _ = bump._radial_modulus(alpha, p)
        assert value == pytest.approx(box, rel=1e-8)

    @pytest.mark.parametrize("p", [1.1, 1.25, 1.5, 1.6])
    @pytest.mark.parametrize("alpha", [(2,), (3,)])
    def test_d1_classes_match_split_adaptive_quadrature(self, alpha, p):
        # scipy's adaptive quadrature of |D^alpha psi_1|^p over the band,
        # split at the zeros of D^alpha psi_1; the integrand is even
        def f(x):
            return float(bump.bump_partial(alpha, [0.0], 1.0, [x]))

        grid = np.linspace(0.5, 1.0, 2001)
        sign = np.sign([f(x) for x in grid])
        zeros = [brentq(f, grid[i], grid[i + 1], xtol=1e-15)
                 for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0)]
        ends = [0.5, *zeros, 1.0]
        want = 2.0 * sum(quad(lambda x: abs(f(x)) ** p, lo, hi, epsabs=0.0,
                              epsrel=1e-13, limit=200)[0]
                         for lo, hi in zip(ends[:-1], ends[1:]))
        value, _, _ = bump._radial_modulus(alpha, p)
        assert value == pytest.approx(want, rel=1e-12)

    def test_tables_of_order_two_and_three_integrate_on_one_axis(
            self, monkeypatch):
        axes = []

        def box(f, bounds, *args, **kwargs):
            axes.append(len(bounds))
            return integrate_box(f, bounds, *args, **kwargs)

        integrate_box = quadrature.integrate_box
        monkeypatch.setattr(quadrature, "integrate_box", box)
        for kpd in [(2, 1.6, 2), (2, 2.5, 3), (3, 1.5, 3), (2, 160.0, 1),
                    (3, 1.1, 2)]:
            moduli = bump.reference_moduli(bump.SobolevParams(*kpd))
            assert set(moduli.panels.values()) <= {8, 16, 32, 64}, kpd
            for alpha, m in moduli.table.items():
                assert 0.0 <= moduli.est_error[alpha] <= 2e-13 * m, kpd
        assert all(n <= 1 for n in axes)

    def test_order_two_class_reports_its_quadrature(self):
        # every entry has its diagnostics, and an order-2 class has panels
        # and an error estimate of its own
        moduli = bump.reference_moduli(bump.SobolevParams(2, 1.6, 2))
        assert (moduli.panels.keys() == moduli.est_error.keys()
                == moduli.table.keys())
        assert moduli.panels[(0, 2)] > 0 and moduli.est_error[(0, 2)] > 0.0

    @pytest.mark.parametrize("alpha, p", [
        ((0, 2), 1.6), ((0, 3), 1.25), ((0, 3), 1.1), ((1, 2), 1.5),
        ((0, 0, 2), 1.1), ((0, 1, 2), 1.5)])
    def test_est_error_covers_the_inner_rule(self, alpha, p, monkeypatch):
        value, _, err = bump._radial_modulus(alpha, p)
        monkeypatch.setattr(bump, "_JACOBI_NODES", 2 * bump._JACOBI_NODES)
        finer, _, _ = bump._radial_modulus(alpha, p)
        assert abs(finer - value) <= err

    def test_graded_rule(self):
        # with no interior break, integrate_box's rule node for node; an
        # interior break grades the panels next to it
        x, w = quadrature.graded_rule([0.5, 1.0], 8)
        edges = np.linspace(0.5, 1.0, 9)
        want_x, want_w = quadrature.rule_from_panels(edges[:-1], edges[1:])
        assert x.tobytes() == want_x.tobytes()
        assert w.tobytes() == want_w.tobytes()
        x, w = quadrature.graded_rule([0.0, 0.3, 1.0], 4)
        want = (0.3 ** 1.6 + 0.7 ** 1.6) / 1.6
        assert np.sum(np.abs(x - 0.3) ** 0.6 * w) == pytest.approx(
            want, rel=1e-13)

    @pytest.mark.parametrize("table", ["d1", "d2", "d3", "143"])
    def test_radial_oracle_alpha_zero_and_e_d(self, table, request):
        if table == "143":
            moduli = bump.reference_moduli(bump.SobolevParams(1, 4.0, 3))
        else:
            moduli = request.getfixturevalue(f"moduli_{table}")
        p, d = moduli.params.p, moduli.params.d
        for alpha in [(0,) * d, (0,) * (d - 1) + (1,)]:
            assert moduli.modulus(alpha) == pytest.approx(
                _radial_oracle(alpha, p, d), rel=1e-11), alpha

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.01, 1.25, 2.5, 3.0, 3.05, 3.5, 5.0, 7.3])
    def test_order_one_classes_match_radial_oracle(self, p, d):
        # kp > d does not hold for every (1, p, d) here, so the classes are
        # integrated one by one, as a table of any order takes them
        for alpha in bump.multi_indices(d, 1):
            value, _, _ = bump._radial_modulus(alpha, p)
            assert value == pytest.approx(
                _radial_oracle(tuple(sorted(alpha)), p, d), rel=1e-11), alpha

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [2.5, 3.0, 3.05, 3.5, 5.0, 7.3])
    def test_order_one_classes_match_box_quadrature(self, p, d):
        # below p = 2.5 the box stalls short of 1e-12 in d = 2: |x_j|^p is
        # not smooth at x_j = 0, an edge of the box
        for rep in [(0,) * d, (0,) * (d - 1) + (1,)]:
            box, _, _ = integrate_partial_power(rep, p, 1.0, rel_tol=1e-12)
            value, _, _ = bump._radial_modulus(rep, p)
            assert value == pytest.approx(box, rel=1e-12), rep

    @pytest.mark.parametrize("kpd", [(1, 1.25, 1), (1, 2.5, 2), (1, 3.0, 2),
                                     (1, 3.05, 3), (1, 7.3, 2), (1, 4.0, 3)])
    def test_order_one_tables_never_run_the_box(self, kpd, monkeypatch):
        def box(*args, **kwargs):
            raise AssertionError("box quadrature in an order-1 table")

        def breaks(fns):
            assert not fns, "a search for breaks in an order-1 table"
            return real_breaks(fns)

        real_breaks = bump._breaks
        monkeypatch.setattr(quadrature, "integrate_box", box)
        monkeypatch.setattr(bump, "_breaks", breaks)
        moduli = bump.reference_moduli(bump.SobolevParams(*kpd))
        assert set(moduli.panels.values()) <= {8, 16, 32, 64, 128, 256}
        for alpha, m in moduli.table.items():
            assert 0.0 <= moduli.est_error[alpha] <= 1e-13 * m

    def test_non_even_tables_keep_their_bits(self, moduli_d1, moduli_d2):
        assert moduli_d1.modulus((0,)) == float.fromhex("0x1.8b0c8dc1ee18ep+0")
        assert moduli_d1.modulus((1,)) == float.fromhex("0x1.585339f46e2dep+1")
        assert moduli_d2.modulus((0, 0)) == \
            float.fromhex("0x1.ada089b3640c1p+0")
        assert moduli_d2.modulus((0, 1)) == \
            float.fromhex("0x1.e302d2683a3adp+3")

    def test_panels_and_error_are_the_radial_ladder(self, moduli_d3):
        assert set(moduli_d3.panels.values()) <= {8, 16, 32, 64, 128, 256}
        for alpha, m in moduli_d3.table.items():
            assert 0.0 <= moduli_d3.est_error[alpha] <= 1e-13 * m

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_l2_modulus_is_the_exact_alpha_zero_p2_modulus(self, d):
        box, _, _ = integrate_partial_power((0,) * d, 2.0, 1.0, rel_tol=1e-10)
        assert bump.l2_modulus(d) == pytest.approx(box, rel=1e-12)

    def test_l2_modulus_equals_table_entry(self, moduli_d3):
        assert bump.l2_modulus(3) == moduli_d3.modulus((0, 0, 0))

    @pytest.mark.parametrize("kpd", [(1, 1000.0, 1), (1, 1e20, 1),
                                     (2, 1e20, 3), (1, 488.0, 2)])
    def test_large_even_p_raises_quickly(self, kpd):
        start = time.perf_counter()
        with pytest.raises(QuadratureNotConverged):
            bump.reference_moduli(bump.SobolevParams(*kpd))
        assert time.perf_counter() - start < 5.0

    def test_box_power_overflow_raises_without_warnings(self):
        # |psi'|^1001 leaves the double range on the radial ladder
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(QuadratureNotConverged,
                               match="overflows the double range"):
                bump.reference_moduli(bump.SobolevParams(1, 1001.0, 1))

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_ladder_raises_at_first_level_not_finite(self, value):
        calls = []

        def f(pts):
            calls.append(len(pts))
            return np.full(len(pts), value if len(calls) > 1 else 1.0)

        with pytest.raises(QuadratureNotConverged,
                           match=r"at 2 panels: the integrand overflows"):
            quadrature.adaptive_box(f, [(0.0, 1.0)])
        assert len(calls) == 2

    def test_one_axis_ladder_names_panels_not_per_axis(self):
        with pytest.raises(QuadratureNotConverged,
                           match=r"after 256 panels$"):
            bump.reference_moduli(bump.SobolevParams(1, 1e20, 1))
        with pytest.raises(QuadratureNotConverged,
                           match=r"after 1 panels per axis$"):
            quadrature.adaptive_box(lambda pts: pts[:, 0], [(0, 1), (0, 1)],
                                    max_doublings=0)

    def test_no_doublings_raises(self, monkeypatch):
        monkeypatch.setattr(bump, "_MAX_DOUBLINGS", 0)
        with pytest.raises(QuadratureNotConverged):
            bump.reference_moduli(bump.SobolevParams(1, 4.0, 3))


class TestScaledSeminorm:
    def test_identity_at_delta_one(self, moduli_d1):
        for alpha in moduli_d1.indices:
            assert scaled_seminorm(alpha, 1.0, moduli_d1) == \
                moduli_d1.modulus(alpha)

    def test_volume_scaling_alpha_zero(self, moduli_d1):
        assert scaled_seminorm((0,), 2.0, moduli_d1) == \
            pytest.approx(2.0 * moduli_d1.modulus((0,)), rel=1e-15)

    def test_scaling_law_vs_quadrature(self, moduli_d1, moduli_d2):
        for moduli in (moduli_d1, moduli_d2):
            p = moduli.params.p
            for alpha in {tuple(sorted(a)) for a in moduli.indices}:
                for delta in (0.5, 2.0):
                    direct = integrate_partial_power_fixed(
                        alpha, p, delta, panels=16)
                    formula = scaled_seminorm(alpha, delta, moduli)
                    assert direct == pytest.approx(formula, rel=1e-6)


class TestBumpNorm:
    """The W^{k,p} norm of one bump, as the program computes it."""

    @staticmethod
    def norm(delta, moduli):
        u = bump.BumpSum(centers=[[0.0]], radii=[delta], weights=[1.0])
        return interpolant.sobolev_norm(u, moduli)

    def test_delta_one(self, moduli_d1):
        p = moduli_d1.params.p
        want = sum(m ** (1 / p) for m in moduli_d1.table.values())
        assert self.norm(1.0, moduli_d1) == pytest.approx(want, rel=1e-15)

    def test_small_delta_growth_is_the_top_order(self, moduli_d1):
        # delta^((kp-d)/p) * norm converges to M_k^(1/p); bounded between
        # moduli-determined constants on the whole dyadic grid
        params = moduli_d1.params
        p = params.p
        lo = moduli_d1.modulus((1,)) ** (1 / p)
        hi = lo + moduli_d1.modulus((0,)) ** (1 / p)
        e = (params.k * p - params.d) / p
        for delta in [2.0 ** -j for j in range(1, 9)]:
            scaled = self.norm(delta, moduli_d1) * delta ** e
            assert lo <= scaled <= hi

    def test_norm_bound_constant(self, moduli_d1):
        # ||psi_delta|| <= C_M (1 + delta^((d-kp)/p)) for delta <= 1, with
        # C_M = sum_alpha max(M_alpha^(1/p), 1)
        params = moduli_d1.params
        c_m = sum(max(m ** (1.0 / params.p), 1.0)
                  for m in moduli_d1.table.values())
        e = (params.d - params.k * params.p) / params.p
        for delta in np.geomspace(0.01, 1.0, 40):
            assert self.norm(delta, moduli_d1) <= \
                c_m * (1.0 + delta ** e) * (1 + 1e-12)

    def test_norm_vs_full_quadrature(self, moduli_d1):
        # independent oracle: quadrature of each seminorm at delta = 0.7
        p = moduli_d1.params.p
        delta = 0.7
        want = 0.0
        for alpha in moduli_d1.indices:
            val, _, _ = quadrature.adaptive_box(
                lambda pts, a=alpha: np.abs(
                    bump.bump_partial(a, np.zeros(1), delta, pts)) ** p,
                [(-delta, delta)], rel_tol=1e-9, start_panels=2,
                max_doublings=8)
            want += val ** (1 / p)
        assert self.norm(delta, moduli_d1) == pytest.approx(want, rel=1e-6)
