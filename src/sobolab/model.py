"""Gaussian heteroskedastic data model on a ball domain.

Labels are ``y = g(x) + eps`` with ``eps ~ N(0, sigma(x)^2)`` conditional on
``x``, the marginal density bounded between explicit constants on the closed
ball B(0, R).  Squared loss makes everything closed form:

    conditional loss  L(yhat; x) = sigma(x)^2 + (yhat - g(x))^2
    regret            R(yhat; x) = (yhat - g(x))^2

and g is the Bayes predictor.  The module also derives the noise constants
of the model (noise margin sigma_min^2, mislabel probability 2 Phi(-1),
sub-Gaussian scale C_y), and selects the noisy-separated subset whose size
and separation drive the harmful-overfitting lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bump import BumpSum, SobolevParams
from .errors import (
    MismatchedLengths,
    OutOfDomain,
    RejectionBudgetExceeded,
    TooFewPoints,
    UnsupportedDimension,
    UnsupportedSpec,
)
from .geometry import Dataset, _checked_radii, _sq_norm

# Exact mislabel probability of the Gaussian model: P(eps^2 >= sigma_min^2)
# is at least 2 Phi(-1) since sigma(x) >= sigma_min everywhere.
RHO_EXACT = math.erfc(1.0 / math.sqrt(2.0))

_UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def unit_ball_volume(d):
    try:
        return _UNIT_BALL_VOLUME[int(d)]
    except KeyError:
        raise UnsupportedDimension(f"ball volumes tabulated for d <= 3, got {d}")


@dataclass(frozen=True)
class DistributionSpec:
    """Domain ball, marginal density, ground truth, and noise profile.

    density kinds:
      * ``uniform``:   p(x) = 1 / |Omega|
      * ``parabolic``: p(x) proportional to 1 + tilt (1 - ||x||^2 / R^2),
        tilt in [0, 1); bounded between explicit c_D and C_D.

    sigma kinds:
      * ``constant``:  sigma(x) = sigma_a        (sigma_a is a std dev)
      * ``quadratic``: sigma(x)^2 = sigma_a + sigma_b ||x||^2
        (sigma_a a variance floor, sigma_b >= 0)
    """

    params: SobolevParams
    radius: float = 1.0
    density: str = "uniform"
    tilt: float = 0.0
    ground_truth: BumpSum | None = None
    sigma_kind: str = "constant"
    sigma_a: float = 1.0
    sigma_b: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise UnsupportedSpec(
                f"domain radius must be finite and positive, got {self.radius}")
        if self.density not in ("uniform", "parabolic"):
            raise UnsupportedSpec(f"unknown density kind {self.density!r}")
        if self.density == "parabolic" and not (0.0 <= self.tilt < 1.0):
            raise UnsupportedSpec(f"parabolic tilt must lie in [0, 1), got {self.tilt}")
        if self.density == "uniform" and self.tilt != 0.0:
            raise UnsupportedSpec("uniform density takes no tilt")
        if self.sigma_kind not in ("constant", "quadratic"):
            raise UnsupportedSpec(f"unknown sigma kind {self.sigma_kind!r}")
        if not (0.0 < self.sigma_a < math.inf
                and 0.0 <= self.sigma_b < math.inf):
            raise UnsupportedSpec("need finite sigma_a > 0 and sigma_b >= 0")
        # the constants that sampling, densities and noise are formed from;
        # Python floats raise on overflow, numpy scalars give inf
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                derived = (self.radius ** 2, self.volume, self.density_upper,
                           self.sigma_max ** 2)
        except ArithmeticError:
            derived = (math.inf,)
        if not np.isfinite(derived).all():
            raise UnsupportedSpec(
                f"the domain volume, density or noise variance overflows "
                f"(radius {self.radius}, sigma_a {self.sigma_a}, "
                f"sigma_b {self.sigma_b})")
        g = self.ground_truth
        if g is not None:
            if g.dim != self.params.d:
                raise MismatchedLengths(
                    f"ground truth dimension {g.dim} != d={self.params.d}"
                )
            if np.any(self.crossing(g)):
                raise UnsupportedSpec(
                    "ground-truth bump supports must lie inside the domain"
                )

    # -- geometry ----------------------------------------------------------

    @property
    def d(self):
        return self.params.d

    @property
    def volume(self):
        return unit_ball_volume(self.d) * self.radius ** self.d

    def contains(self, x):
        """Whether each point lies in the closed domain ball; a NaN point
        does not, and one whose squared norm overflows lies outside."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        with np.errstate(over="ignore"):
            return np.sqrt(_sq_norm(x)) <= self.radius

    def crossing(self, bumps):
        """Whether each bump's support reaches past the domain ball:
        |c_i| + r_i > R.  A support touching the sphere does not."""
        return np.sqrt(_sq_norm(bumps.centers)) + bumps.radii > self.radius

    # -- density -----------------------------------------------------------

    @property
    def _normalizer(self):
        # integral of the unnormalized weight w(r) = 1 + tilt (1 - r^2/R^2)
        # over the ball; the second moment of the uniform ball gives the
        # closed form.
        return self.volume * (1.0 + 2.0 * self.tilt / (self.d + 2.0))

    @property
    def density_lower(self):
        return 1.0 / self._normalizer

    @property
    def density_upper(self):
        return (1.0 + self.tilt) / self._normalizer

    def density_values(self, x):
        x = np.asarray(x, dtype=float)
        r2 = _sq_norm(np.atleast_2d(x))
        w = 1.0 + self.tilt * (1.0 - r2 / self.radius ** 2)
        return w / self._normalizer

    # -- ground truth and noise ---------------------------------------------

    def g_values(self, x):
        x = np.asarray(x, dtype=float)
        if self.ground_truth is None:
            return 0.0 if x.ndim == 1 else np.zeros(x.shape[:-1])
        return self.ground_truth(x)

    @property
    def g_sup_abs(self):
        return 0.0 if self.ground_truth is None else self.ground_truth.sup_abs

    def sigma_sq_values(self, x):
        x = np.asarray(x, dtype=float)
        r2 = _sq_norm(np.atleast_2d(x))
        if self.sigma_kind == "constant":
            out = np.full(r2.shape, self.sigma_a ** 2)
        else:
            out = self.sigma_a + self.sigma_b * r2
        if x.ndim == 1:
            return float(out[0])
        return out

    @property
    def sigma_min(self):
        if self.sigma_kind == "constant":
            return self.sigma_a
        return math.sqrt(self.sigma_a)

    @property
    def sigma_max(self):
        if self.sigma_kind == "constant":
            return self.sigma_a
        return math.sqrt(self.sigma_a + self.sigma_b * self.radius ** 2)


def _require_in_domain(spec, x):
    x = np.asarray(x, dtype=float)
    if not np.all(spec.contains(x)):
        raise OutOfDomain("query point outside the closed domain ball")
    return x


# -- sampling -----------------------------------------------------------------


def _uniform_ball(rng, m, d, radius, center=None):
    """Exact uniform sample of m points from B(center, radius)."""
    pts = rng.standard_normal((m, d))
    norm = np.sqrt(_sq_norm(pts))
    r = radius * rng.random(m) ** (1.0 / d)
    # column by column: an (m, 1) broadcast runs numpy's length-d loop
    for j in range(d):
        column = pts[:, j]
        column /= norm
        column *= r
    if center is not None:
        pts += center
    return pts


def sample_points(spec, m, rng):
    """m points from the marginal density (rejection against the uniform
    envelope when the density is tilted)."""
    if spec.density == "uniform":
        return _uniform_ball(rng, m, spec.d, spec.radius)
    out = np.empty((m, spec.d))
    filled = 0
    attempts = 0
    max_attempts = 1000 * m + 10_000
    while filled < m:
        want = max(m - filled, 1024)
        attempts += want
        if attempts > max_attempts:
            raise RejectionBudgetExceeded(
                f"acceptance rate collapsed after {attempts} proposals"
            )
        cand = _uniform_ball(rng, want, spec.d, spec.radius)
        w = 1.0 + spec.tilt * (1.0 - _sq_norm(cand) / spec.radius ** 2)
        keep = rng.random(want) <= w / (1.0 + spec.tilt)
        kept = np.compress(keep, cand, axis=0)
        take = min(len(kept), m - filled)
        out[filled:filled + take] = kept[:take]
        filled += take
    return out


def sample(spec, n, seed):
    """Draw an i.i.d. training set of size n; deterministic in ``seed``."""
    if n < 2:
        raise TooFewPoints(f"need n >= 2 samples, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    points = sample_points(spec, n, rng)
    noise = rng.standard_normal(n) * np.sqrt(spec.sigma_sq_values(points))
    labels = spec.g_values(points) + noise
    return Dataset(points=points, labels=labels)


# -- closed-form loss ----------------------------------------------------------


def conditional_loss(spec, y_hat, x):
    """L(yhat; x) = sigma(x)^2 + (yhat - g(x))^2, exactly."""
    x = _require_in_domain(spec, x)
    g = spec.g_values(x)
    return spec.sigma_sq_values(x) + (y_hat - g) ** 2


def regret(spec, y_hat, x):
    """Conditional loss above its Bayes value: (yhat - g(x))^2."""
    x = _require_in_domain(spec, x)
    return (y_hat - spec.g_values(x)) ** 2


# -- noise constants ------------------------------------------------------------


@dataclass(frozen=True)
class NoiseConstants:
    """(sigma, rho, C_y) of the label-noise and sub-Gaussian assumptions."""

    sigma_floor: float      # additive loss margin, = sigma_min^2
    rho: float              # exact mislabel probability bound, 2 Phi(-1)
    c_y: float              # sub-Gaussian scale sqrt(2) (sup|g| + sigma_max)


def noise_constants(spec):
    """The closed forms of (sigma, rho, C_y)."""
    return NoiseConstants(
        sigma_floor=spec.sigma_min ** 2,
        rho=RHO_EXACT,
        c_y=math.sqrt(2.0) * (spec.g_sup_abs + spec.sigma_max),
    )


def check_noise_constants(spec, seed):
    """:func:`noise_constants` of ``spec``, checked by Monte Carlo.

    At each of 20 probe points, 100 000 noise draws give a mislabel
    frequency that must not fall more than 3 standard errors below rho, and
    a tail of |y| that must not exceed the sub-Gaussian bound by more than 3
    standard errors at t in {1, 2, 3}; else :class:`UnsupportedSpec`.
    """
    constants = noise_constants(spec)
    probes, draws = 20, 100_000
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5eed]))
    xs = sample_points(spec, probes, rng)
    sigma_sq = spec.sigma_sq_values(xs)
    g = spec.g_values(xs)
    for i in range(probes):
        eps = rng.standard_normal(draws) * math.sqrt(sigma_sq[i])
        freq = float(np.mean(eps ** 2 >= constants.sigma_floor))
        stderr = math.sqrt(max(freq * (1.0 - freq), 1e-12) / draws)
        if freq < constants.rho - 3.0 * stderr:
            raise UnsupportedSpec(
                f"mislabel probability check failed at probe {i}: "
                f"{freq:.4f} < rho={constants.rho:.4f} - 3se"
            )
        y = g[i] + eps
        for t in (1.0, 2.0, 3.0):
            tail = float(np.mean(np.abs(y) >= t))
            stderr = math.sqrt(max(tail * (1.0 - tail), 1e-12) / draws)
            bound = 2.0 * math.exp(-t * t / constants.c_y ** 2)
            if tail > bound + 3.0 * stderr:
                raise UnsupportedSpec(
                    f"sub-Gaussian tail check failed at probe {i}, t={t}: "
                    f"{tail:.4f} > {bound:.4f} + 3se"
                )
    return constants


# -- noisy separated subset ------------------------------------------------------


@dataclass(frozen=True)
class SubsetSelection:
    """Indices passing the separation (Z), label-cap (Y), noise (W) tests."""

    indices: np.ndarray
    z: np.ndarray
    y: np.ndarray
    w: np.ndarray
    radius_threshold: float
    label_cap: float
    noise_margin: float

    @property
    def size(self):
        return len(self.indices)


def noisy_separated_subset(dataset, radii, spec):
    """The subset of training points that are separated, bounded, and noisy.

    Z_i: delta_i >= (2 C_1 n)^(-1/d) with C_1 = C_D vol(B(0,1)), the minimal
         constant with P(||x - x'|| < t) <= C_1 t^d under the density bound.
    Y_i: |y_i| <= C_y sqrt(log(4 / rho)).
    W_i: (y_i - g(x_i))^2 >= sigma_min^2 (conditional loss exceeds the Bayes
         value by the noise margin).
    """
    radii = _checked_radii(dataset, radii)
    constants = noise_constants(spec)
    c1 = spec.density_upper * unit_ball_volume(spec.d)
    threshold = (2.0 * c1 * dataset.n) ** (-1.0 / spec.d)
    cap = constants.c_y * math.sqrt(math.log(4.0 / constants.rho))
    g = spec.g_values(dataset.points)
    z = radii >= threshold
    y = np.abs(dataset.labels) <= cap
    w = (dataset.labels - g) ** 2 >= constants.sigma_floor
    members = z & y & w
    return SubsetSelection(
        indices=np.nonzero(members)[0],
        z=z, y=y, w=w,
        radius_threshold=threshold,
        label_cap=cap,
        noise_margin=constants.sigma_floor,
    )


# -- domain/ball intersection -----------------------------------------------------


def domain_ball_fraction(spec, x0, delta, m, seed):
    """Monte Carlo |Omega cap B(x0, delta)| / |B(x0, delta)| with stderr."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if not spec.contains(x0)[0]:
        raise OutOfDomain("ball center must lie in the closed domain")
    if not 0.0 < delta <= 2.0 * spec.radius:
        raise OutOfDomain(
            f"ball radius must lie in (0, diam(Omega)], got {delta}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = _uniform_ball(rng, int(m), spec.d, delta, center=x0)
    frac = float(np.mean(spec.contains(pts)))
    stderr = math.sqrt(max(frac * (1.0 - frac), 0.0) / m)
    return frac, stderr
