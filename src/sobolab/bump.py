"""Smooth bump functions and their exact W^{k,p} norms.

The radial profile is the canonical C-infinity step built from
``h(s) = exp(-1/s)``:

    phi(t) = S((1 - t) / (3/4)),   S(s) = h(s) / (h(s) + h(1 - s)),

so ``phi = 1`` on [0, 1/4], ``phi = 0`` on [1, inf), and the scaled bump
``psi_delta(x) = phi(||x - c||^2 / delta^2)`` equals 1 on the half-radius
ball and vanishes outside radius ``delta``.

Mixed partials of order up to 3 are closed forms.  On its transition band
1/4 < t < 1 the profile is a logistic in z = 1/(1 - s) - 1/s, so phi',
phi'' and phi''' are short expressions in e^(-|z|), 1/s and 1/(1 - s); off
the band they vanish exactly.  psi is phi of a sum of one square per
coordinate, so D^alpha psi is a sum of phi^(|m|) times products of partial
Bell polynomials B_{a_j, m_j}(2 w_j, 2) (see :func:`bump_partial`).
Reference moduli ``M_alpha = integral |D^alpha psi_1|^p`` are computed once,
after which every seminorm of every scaled bump follows from the change of
variables

    integral |D^alpha psi_delta|^p = delta^(d - |alpha| p) * M_alpha.

The path depends on p alone.  For an even integer p, |D^alpha psi_1|^p is a
polynomial in the direction theta = x/|x| with coefficients in r = |x|; its
theta-monomials integrate over the sphere in closed form (G. B. Folland,
"How to integrate a polynomial over a sphere", Amer. Math. Monthly 108
(2001) 446-448), which leaves one integral in r over the band
1/2 <= r <= 1 (see :func:`_even_power_modulus`).  Every other p takes the
tensor Gauss-Legendre box quadrature of :func:`integrate_partial_power`,
which also serves as the oracle for the even-p path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from . import quadrature
from .errors import (
    InvalidRange,
    MalformedInput,
    MismatchedLengths,
    NonpositiveRadius,
    QuadratureNotConverged,
    UnknownMultiIndex,
    UnsupportedDimension,
    UnsupportedOrder,
)
from .geometry import _sq_norm, _violating_pairs

PLATEAU_END = 0.25
SUPPORT_END = 1.0
MAX_ORDER = 3

_STEP_SCALE = 1.0 / (SUPPORT_END - PLATEAU_END)  # 4/3


@dataclass(frozen=True)
class SobolevParams:
    """The (k, p, d) triple in the supercritical regime kp > d."""

    k: int
    p: float
    d: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise UnsupportedDimension(f"d must be 1, 2 or 3, got {self.d}")
        if not (isinstance(self.k, int) and 1 <= self.k):
            raise UnsupportedOrder(f"k must be a positive integer, got {self.k}")
        if self.k > MAX_ORDER:
            raise UnsupportedOrder(f"derivative orders capped at {MAX_ORDER}")
        if not (1.0 <= self.p < math.inf):
            raise InvalidRange(f"p must lie in [1, inf), got {self.p}")
        if self.k * self.p <= self.d:
            raise InvalidRange(
                f"need kp > d for pointwise evaluation, got kp={self.k * self.p}"
            )

    @property
    def strict_range(self):
        """True iff k in (d/p, 1.5 d/p), the regime of the scaling laws."""
        return self.d / self.p < self.k < 1.5 * self.d / self.p


def multi_indices(d, k):
    """All multi-indices alpha with |alpha| <= k, sorted by (|alpha|, alpha)."""
    idx = [a for a in product(range(k + 1), repeat=d) if sum(a) <= k]
    return sorted(idx, key=lambda a: (sum(a), a))


# -- profile ----------------------------------------------------------------


def profile_values(t):
    """phi(t) = S((1 - t) 4/3), vectorized, with the flat branches exact."""
    s = (1.0 - np.asarray(t, dtype=float)) * _STEP_SCALE
    safe = np.where((s > 0.0) & (s < 1.0), s, 0.5)
    h1 = np.exp(-1.0 / safe)
    h2 = np.exp(-1.0 / (1.0 - safe))
    return np.where(s <= 0.0, 0.0, np.where(s >= 1.0, 1.0, h1 / (h1 + h2)))


def _band_derivatives(t, order):
    """phi^(j)(t) for j = 1..order, computed on the transition band only.

    Returns ``(band, derivs)``: ``band`` holds the flat indices of the
    entries of ``t`` in the transition band 1/4 < t < 1, and
    ``derivs[j - 1]`` holds phi^(j) there.  Off the band every derivative
    is exactly 0; phi^(0) itself is :func:`profile_values`.

    With s = (1 - t) * 4/3, phi(t) = S(s) = sigma(z), the logistic of
    z = 1/(1 - s) - 1/s, so

        S'   = sigma' z',
        S''  = sigma'' z'^2 + sigma' z'',
        S''' = sigma''' z'^3 + 3 sigma'' z' z'' + sigma' z''',

    with sigma' = g = sigma (1 - sigma), sigma'' = g (1 - 2 sigma) and
    sigma''' = g (1 - 6 g), and phi^(j) = (-4/3)^j S^(j).  1/s and
    1/(1 - s) are formed from t - 1/4 and 1 - t, which keeps their relative
    error at rounding level next to either edge.  sigma and g are written
    through e^(-|z|) <= 1, so nothing overflows at the edges: there g
    underflows to 0 while the powers of 1/s and 1/(1 - s) stay finite.
    """
    t = np.asarray(t, dtype=float).reshape(-1)
    band = np.flatnonzero((t > PLATEAU_END) & (t < SUPPORT_END))
    t = t[band]
    width = SUPPORT_END - PLATEAU_END
    a = width / (SUPPORT_END - t)  # 1/s
    b = width / (t - PLATEAU_END)  # 1/(1 - s)
    a2, b2 = a * a, b * b
    e = np.exp(-np.abs(b - a))
    q = 1.0 / (1.0 + e)
    g = e * q * q
    dz1 = a2 + b2
    derivs = [-_STEP_SCALE * (g * dz1)]
    if order >= 2:
        g2 = g * np.copysign((1.0 - e) * q, a - b)  # g (1 - 2 sigma)
        dz2 = 2.0 * (b2 * b - a2 * a)
        derivs.append(_STEP_SCALE ** 2 * (g2 * dz1 * dz1 + g * dz2))
    if order >= 3:
        g3 = g * (1.0 - 6.0 * g)
        dz3 = 6.0 * (b2 * b2 + a2 * a2)
        derivs.append(-_STEP_SCALE ** 3 * (
            g3 * dz1 * dz1 * dz1 + 3.0 * g2 * dz1 * dz2 + g * dz3))
    return band, derivs[:order]


def profile_eval(t, derivative_order=0):
    """phi^(j)(t) for j <= 3, vectorized; a scalar t gives a float."""
    j = int(derivative_order)
    if not (0 <= j <= MAX_ORDER):
        raise UnsupportedOrder(f"profile derivatives implemented up to {MAX_ORDER}")
    t = np.asarray(t, dtype=float)
    if j == 0:
        out = profile_values(t)
    else:
        out = np.zeros(t.shape)
        band, derivs = _band_derivatives(t, j)
        out.reshape(-1)[band] = derivs[-1]
    return float(out) if out.ndim == 0 else out


# -- scaled bumps ------------------------------------------------------------


def _scaled_offsets(center, delta, x):
    """(x - center) / delta, after checking delta and the dimensions."""
    delta = np.asarray(delta, dtype=float)
    if not (delta > 0.0).all():
        raise NonpositiveRadius(f"bump radius must be positive, got {delta.min()}")
    center = np.asarray(center, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != center.shape[-1:]:
        raise MismatchedLengths(
            f"points of dimension {x.shape[-1:]} for a center of dimension "
            f"{center.shape[-1:]}"
        )
    # a 0-d delta keeps numpy's array-by-scalar loop, which is faster
    return (x - center) / (delta[..., None] if delta.ndim else delta)


def bump_eval(center, delta, x):
    """psi_delta centered at ``center``, evaluated at ``x`` (batched)."""
    return profile_values(_sq_norm(_scaled_offsets(center, delta, x)))


@lru_cache(maxsize=None)
def _bell_terms(orders):
    """The terms of D^orders phi(sum_j w_j^2), in the units of w.

    One ``(r, c, powers)`` per choice of m_j in [ceil(a_j/2), a_j]: the term
    phi^(r)(u) * c * prod_j (2 w_j)^powers[j], with r = |m| and
    c (2w)^(2m-a) = B_{a,m}(2w, 2) = a! / ((2m-a)! (a-m)!) (2w)^(2m-a),
    the partial Bell polynomial of the derivatives (2w, 2, 0, ...) of w^2.
    """
    terms = []
    for ms in product(*(range((a + 1) // 2, a + 1) for a in orders)):
        c = math.prod(
            math.factorial(a) // (math.factorial(2 * m - a) * math.factorial(a - m))
            for a, m in zip(orders, ms)
        )
        powers = tuple(2 * m - a for a, m in zip(orders, ms))
        terms.append((sum(ms), float(c), powers))
    return tuple(terms)


def bump_partial(alpha, center, delta, x):
    """Exact mixed partial D^alpha psi_delta at ``x`` (batched), |alpha| <= 3.

    With w = (x - c)/delta and u = sum_j w_j^2, psi_delta = phi(u).  u is a
    sum of one quadratic per coordinate, so the multivariate Faa di Bruno
    formula collapses to

        D^alpha psi_delta = delta^-|alpha| sum_m phi^(|m|)(u)
                            prod_j B_{a_j, m_j}(2 w_j, 2),

    summed over m_j in [ceil(a_j/2), a_j], where B is the partial Bell
    polynomial (M. Hardy, "Combinatorics of partial derivatives", Electron.
    J. Combin. 13 (2006) R1).  Every phi^(j), j >= 1, vanishes off the
    transition band 1/4 < u < 1, so the sum is formed on the band's points
    only and every other point gets exactly 0.

    ``center`` (..., d) and ``delta`` (...) may also give one bump per
    point, broadcast against ``x``; delta^-|alpha| stays a Python-float
    power per radius, as numpy's array power may round it differently.
    """
    center = np.asarray(center, dtype=float)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != center.shape[-1]:
        raise MismatchedLengths(
            f"multi-index length {len(alpha)} != dimension {center.shape[-1]}"
        )
    if any(a < 0 for a in alpha):
        raise UnsupportedOrder("multi-index entries must be nonnegative")
    total = sum(alpha)
    if total > MAX_ORDER:
        raise UnsupportedOrder(f"mixed partials implemented up to order {MAX_ORDER}")
    if total == 0:
        return bump_eval(center, delta, x)

    w = _scaled_offsets(center, delta, x)
    batch = w.shape[:-1]
    w = w.reshape(-1, w.shape[-1])
    u = _sq_norm(w)
    band, derivs = _band_derivatives(u, total)

    active = [j for j, a in enumerate(alpha) if a > 0]
    two_w = [2.0 * w[band, j] for j in active]
    acc = 0.0
    for r, c, powers in _bell_terms(tuple(alpha[j] for j in active)):
        term = derivs[r - 1] * c
        for v, k in zip(two_w, powers):
            for _ in range(k):
                term = term * v
        acc = acc + term
    if np.ndim(delta) == 0:
        scale = float(delta) ** -total
    else:
        band_delta = np.broadcast_to(delta, batch).reshape(-1)[band]
        radii = np.unique(band_delta)
        inverse = np.array([float(v) ** -total for v in radii])
        scale = inverse[np.searchsorted(radii, band_delta)]
    out = np.zeros(len(u))
    out[band] = acc * scale
    out = out.reshape(batch)
    return float(out) if out.ndim == 0 else out


def _sum_over_pairs(alpha, centers, radii, weights, x, shortlist):
    """D^alpha sum_i w_i psi_{r_i}(x - c_i) over the ``(bump, point)`` pairs
    that ``shortlist(pts)`` finds in open supports; pairs in bump order give
    each point the bits of the per-bump sum."""
    x = np.asarray(x, dtype=float)
    d = centers.shape[1]
    if x.shape[-1:] != (d,):
        raise MismatchedLengths(
            f"points of dimension {x.shape[-1:]} for bumps of dimension {d}")
    pts = x.reshape(-1, d)
    bump, point = shortlist(pts)
    values = bump_partial(alpha, centers[bump], radii[bump], pts[point])
    out = np.bincount(point, weights=weights[bump] * values,
                      minlength=len(pts)).reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BumpSum:
    """A finite sum of disjointly supported bumps, sum_i w_i psi_{r_i}.

    This is the ground-truth/interpolant building block: disjoint supports
    make every norm computation a sum over the individual bumps.  Nothing
    bounds a radius by the gaps to other centers, so evaluation pairs each
    bump with the points at scaled squared distance below 1 from its center.
    """

    centers: np.ndarray
    radii: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(np.array(self.centers, dtype=float))
        radii = np.atleast_1d(np.array(self.radii, dtype=float))
        weights = np.atleast_1d(np.array(self.weights, dtype=float))
        if not (len(centers) == len(radii) == len(weights)):
            raise MismatchedLengths("centers, radii, weights must align")
        if not (np.isfinite(centers).all() and np.isfinite(weights).all()):
            raise MalformedInput("centers and weights must be finite")
        if not (np.isfinite(radii).all() and np.all(radii > 0.0)):
            raise NonpositiveRadius("all support radii must be finite and positive")
        for arr in (centers, radii, weights):
            arr.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "weights", weights)
        overlaps = _violating_pairs(centers, 2.0 * radii)
        if overlaps:
            i, j = overlaps[0]
            raise MismatchedLengths(f"supports of bumps {i} and {j} overlap")

    @property
    def n(self):
        return len(self.weights)

    @property
    def dim(self):
        return self.centers.shape[1]

    @property
    def sup_abs(self):
        """sup |f|: bumps peak at their weights and never overlap."""
        return float(np.max(np.abs(self.weights), initial=0.0))

    def __call__(self, x):
        return self.partial((0,) * self.dim, x)

    def partial(self, alpha, x):
        return _sum_over_pairs(alpha, self.centers, self.radii, self.weights,
                               x, self._support_pairs)

    def _support_pairs(self, pts):
        inside = [np.flatnonzero(_sq_norm((pts - c) / r) < 1.0)
                  for c, r in zip(self.centers, self.radii)]
        bump = np.repeat(np.arange(self.n), [len(i) for i in inside])
        return bump, np.concatenate(inside)


# -- reference moduli ---------------------------------------------------------


@dataclass(frozen=True)
class ReferenceModuli:
    """Table of M_alpha = integral |D^alpha psi_1|^p over |alpha| <= k.

    ``panels`` and ``est_error`` describe the quadrature that produced each
    entry.  For the box path (p not an even integer) they are the panel
    count per axis of the d-dimensional box and the difference between its
    last two refinements; for the exact even-p path they are the panel
    count of the radial integral over 1/2 <= r <= 1 and the difference
    between its last two levels.
    """

    params: SobolevParams
    table: dict
    panels: dict = field(default_factory=dict)
    est_error: dict = field(default_factory=dict)
    rel_tol: float = 1e-8

    def modulus(self, alpha):
        alpha = tuple(int(a) for a in alpha)
        try:
            return self.table[alpha]
        except KeyError:
            raise UnknownMultiIndex(
                f"multi-index {alpha} not in the table (k={self.params.k})"
            ) from None

    @property
    def indices(self):
        return sorted(self.table, key=lambda a: (sum(a), a))


def _partial_power_box(alpha, p, delta):
    """|D^alpha psi_delta|^p and the box [0, delta]^d it is integrated over.

    The integrand is even in every coordinate, so the integral over R^d is
    2^d times the integral over the box.
    """
    alpha = tuple(int(a) for a in alpha)
    center = np.zeros(len(alpha))

    def integrand(pts):
        with np.errstate(over="ignore"):  # the ladder raises on inf
            return np.abs(bump_partial(alpha, center, delta, pts)) ** p

    return integrand, [(0.0, delta)] * len(alpha)


def integrate_partial_power(alpha, p, delta, rel_tol=1e-8, max_doublings=6,
                            order=quadrature.GL_ORDER):
    """Adaptive quadrature of integral |D^alpha psi_delta|^p over R^d.

    Independent of the scaling shortcut: the integrand is evaluated at the
    requested delta, over [0, delta]^d (the integrand is even in every
    coordinate), and only then compared against delta^(d-|alpha|p) M_alpha
    by callers that test the identity.
    """
    integrand, box = _partial_power_box(alpha, p, delta)
    value, panels, err = quadrature.adaptive_box(
        integrand, box, rel_tol=rel_tol,
        start_panels=1, max_doublings=max_doublings, order=order,
    )
    scale = 2.0 ** len(box)
    return scale * value, panels, scale * err


def integrate_partial_power_fixed(alpha, p, delta, panels,
                                  order=quadrature.GL_ORDER):
    """Like :func:`integrate_partial_power` but at a fixed panel count.

    Useful when a converged panel count is already known (for example from
    the moduli metadata) and re-running the refinement ladder would only
    repeat work.
    """
    integrand, box = _partial_power_box(alpha, p, delta)
    return 2.0 ** len(box) * quadrature.integrate_box(integrand, box, panels,
                                                      order=order)


# Levels of the even-p radial ladder agree to this relative tolerance, or
# to a tighter caller's one.  Tighter stalls in rounding: at (k, p, d) =
# (3, 32, 3), alpha = (0, 0, 3), successive levels keep differing near 1e-15.
_EXACT_REL_TOL = 1e-13
_LOG_DBL_MAX = math.log(sys.float_info.max)
_LOG_DBL_MIN = math.log(sys.float_info.min)


def _sphere_moment(beta, log_scale=0.0):
    """e^log_scale times integral_{S^(d-1)} theta^beta, d = len(beta).

    Folland's closed form: 2 prod_j Gamma((beta_j + 1)/2) /
    Gamma((|beta| + d)/2) when every beta_j is even, and 0 otherwise.  It is
    formed from log-gamma, so exponents of any size stay finite; a value
    that leaves the normal double range raises
    :class:`QuadratureNotConverged` instead of overflowing or flushing to 0.
    """
    if any(b % 2 for b in beta):
        return 0.0
    halves = [(b + 1) / 2 for b in beta]
    log_m = (sum(map(math.lgamma, halves)) - math.lgamma(sum(halves))
             + math.log(2.0) + log_scale)
    if not _LOG_DBL_MIN < log_m < _LOG_DBL_MAX:
        raise QuadratureNotConverged(
            f"sphere moment of theta^{tuple(beta)} leaves the double range")
    return math.exp(log_m)


def _compositions(total, parts):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _even_power_modulus(alpha, p, rel_tol=1e-8, max_doublings=6,
                        order=quadrature.GL_ORDER):
    """M_alpha = integral |D^alpha psi_1|^p for an even integer p.

    Returns ``(value, panels, est_error)`` like
    :func:`integrate_partial_power`.  At x = r theta the terms of
    :func:`_bell_terms` give

        D^alpha psi_1 = sum_t g_t(r) theta^(w_t),
        g_t(r) = c_t (2r)^|w_t| phi^(m_t)(r^2),

    so the multinomial expansion of the p-th power is a sum over the
    compositions n of p of (p; n) prod_t g_t^(n_t) theta^(sum_t n_t w_t),
    and each theta-monomial integrates over the sphere in closed form
    (:func:`_sphere_moment`).  What remains is one integral in r of
    r^(d-1) times that sum over the band 1/2 <= r <= 1, where every
    derivative of phi lives.  It runs on a Gauss-Legendre panel-doubling
    ladder from 4 panels until two levels agree to 1e-13 relative, or to
    ``rel_tol`` if that is tighter.  alpha = 0 adds the plateau r < 1/2,
    where psi_1 = 1: |S^(d-1)| / (d 2^d).

    An integrand that overflows, or a modulus that is not finite and
    positive, raises :class:`QuadratureNotConverged`.  M_(e_d) overflows
    for every even p >= 488 (d = 1, 2, 3), and a table computes it (one
    term, so one composition) before any modulus of two terms, whose
    expansion has p + 1 compositions; so a large p raises before it could
    loop long.
    """
    alpha = tuple(int(a) for a in alpha)
    d, p, order_alpha = len(alpha), int(p), sum(alpha)
    terms = _bell_terms(alpha)
    expansion = []
    for n in _compositions(p, len(terms)):
        beta = [sum(nt * w[j] for nt, (_, _, w) in zip(n, terms))
                for j in range(d)]
        log_multinomial = math.lgamma(p + 1) - sum(math.lgamma(nt + 1)
                                                   for nt in n)
        weight = _sphere_moment(beta, log_multinomial)
        if weight:
            expansion.append((weight, n))

    def radial(pts):
        r = pts[:, 0]
        u = r * r
        g = [c * (2.0 * r) ** sum(w) * profile_eval(u, m)
             for m, c, w in terms]
        acc = 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # ladder raises
            for weight, n in expansion:
                term = weight
                for gt, nt in zip(g, n):
                    if nt:
                        term = term * gt ** nt
                acc = acc + term
            return acc * r ** (d - 1)

    value, panels, err = quadrature.adaptive_box(
        radial, [(PLATEAU_END ** 0.5, SUPPORT_END)],
        rel_tol=min(rel_tol, _EXACT_REL_TOL), start_panels=4,
        max_doublings=max_doublings, order=order,
    )
    if not order_alpha:
        value += _sphere_moment((0,) * d) / (d * 2.0 ** d)
    if not (math.isfinite(value) and value > 0.0):
        raise QuadratureNotConverged(
            f"M_{alpha} at p={p} is {value}, outside the double range")
    return value, panels, err


def reference_moduli(params, rel_tol=1e-8, max_doublings=6,
                     order=quadrature.GL_ORDER):
    """Compute the full M_alpha table for ``params`` deterministically.

    The path depends on ``params.p`` alone.  An even integer p takes the
    exact path of :func:`_even_power_modulus`: closed-form sphere moments
    (Folland) and one radial Gauss-Legendre ladder from 4 panels, stopped
    when two levels agree to 1e-13 relative or to ``rel_tol`` if tighter.
    Every other p takes the adaptive box quadrature of
    :func:`integrate_partial_power` over [0, 1]^d from 1 panel per axis,
    stopped at ``rel_tol``.  Either ladder raises
    :class:`QuadratureNotConverged` after ``max_doublings`` doublings, or
    at the first level whose integrand overflows.

    psi_1 is radial, so M_alpha is exactly invariant under permutations of
    alpha; only one representative per permutation class is integrated and
    the value is shared across the class.
    """
    table, panels, errs = {}, {}, {}
    by_class = {}
    for alpha in multi_indices(params.d, params.k):
        rep = tuple(sorted(alpha))
        if rep not in by_class:
            if params.p % 2 == 0:
                by_class[rep] = _even_power_modulus(
                    alpha, params.p, rel_tol=rel_tol,
                    max_doublings=max_doublings, order=order,
                )
            else:
                by_class[rep] = integrate_partial_power(
                    alpha, params.p, 1.0, rel_tol=rel_tol,
                    max_doublings=max_doublings, order=order,
                )
        value, n_panels, err = by_class[rep]
        table[alpha] = value
        panels[alpha] = n_panels
        errs[alpha] = err
    return ReferenceModuli(params=params, table=table, panels=panels,
                           est_error=errs, rel_tol=rel_tol)


def scaled_seminorm(alpha, delta, moduli):
    """Exact integral |D^alpha psi_delta|^p = delta^(d-|alpha|p) M_alpha."""
    if not delta > 0.0:
        raise NonpositiveRadius(f"bump radius must be positive, got {delta}")
    m = moduli.modulus(alpha)
    params = moduli.params
    return delta ** (params.d - sum(alpha) * params.p) * m


def bump_norm(delta, moduli):
    """Exact W^{k,p} norm of psi_delta: sum_alpha (scaled seminorm)^(1/p).

    Bounded by ``moduli_constant(moduli) * (1 + delta^((d-kp)/p))`` for
    delta <= 1 (for large delta the plateau's L^p mass grows like
    delta^(d/p) instead).
    """
    if not delta > 0.0:
        raise NonpositiveRadius(f"bump radius must be positive, got {delta}")
    p = moduli.params.p
    return sum(scaled_seminorm(a, delta, moduli) ** (1.0 / p)
               for a in moduli.indices)


def moduli_constant(moduli):
    """C_M = sum_alpha max(M_alpha^(1/p), 1), the profile-dependent constant
    in the small-radius norm bound."""
    p = moduli.params.p
    return sum(max(m ** (1.0 / p), 1.0) for m in moduli.table.values())


@lru_cache(maxsize=None)
def l2_modulus(d):
    """integral psi_1^2 over R^d (the alpha = 0, p = 2 modulus)."""
    return _even_power_modulus((0,) * d, 2)[0]


# -- cache file --------------------------------------------------------------


def save_moduli(moduli, path):
    """Key-value cache: one line per multi-index, hex-float full precision."""
    params = moduli.params
    lines = [
        "# sobolab reference moduli",
        f"# k={params.k} p={params.p!r} d={params.d} "
        f"rel_tol={moduli.rel_tol!r} order={quadrature.GL_ORDER}",
    ]
    for alpha in moduli.indices:
        lines.append(
            f"# meta {' '.join(map(str, alpha))} panels={moduli.panels.get(alpha, 0)} "
            f"err={float(moduli.est_error.get(alpha, 0.0)).hex()}"
        )
    for alpha in moduli.indices:
        lines.append(
            f"{' '.join(map(str, alpha))} {float(moduli.table[alpha]).hex()}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_HEADER_FIELDS = {"k": int, "p": float, "d": int, "rel_tol": float}


def _multi_index(cells):
    if not cells:
        raise ValueError("no multi-index")
    return tuple(int(v) for v in cells)


def _keyed(token, key):
    name, eq, value = token.partition("=")
    if name != key or not eq:
        raise ValueError(f"expected {key}=..., got {token!r}")
    return value


def load_moduli(path):
    """Read a :func:`save_moduli` file back bit-exactly.

    A malformed header value, ``# meta`` record or table row raises
    :class:`MalformedInput` naming the file and line, as does a table that
    misses a multi-index |alpha| <= k or holds one that does not fit the
    header's (k, d), or a modulus that is negative or not finite.
    """
    header = {}
    meta_panels, meta_err, table, row_line = {}, {}, {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("# meta "):
                    *cells, panels, err = line[len("# meta "):].split()
                    alpha = _multi_index(cells)
                    meta_panels[alpha] = int(_keyed(panels, "panels"))
                    meta_err[alpha] = float.fromhex(_keyed(err, "err"))
                elif line.startswith("#"):
                    for tok in line[1:].split():
                        key, eq, val = tok.partition("=")
                        if eq and key in _HEADER_FIELDS:
                            header[key] = _HEADER_FIELDS[key](val)
                else:
                    *cells, cell = line.split()
                    alpha = _multi_index(cells)
                    value = float.fromhex(cell)
                    if not (math.isfinite(value) and value >= 0.0):
                        raise ValueError(f"modulus {value} is not finite and >= 0")
                    table[alpha] = value
                    row_line[alpha] = lineno
            except ValueError as exc:
                raise MalformedInput(
                    f"{path}: line {lineno}: malformed record {line!r} ({exc})"
                ) from None
    try:
        params = SobolevParams(k=header["k"], p=header["p"], d=header["d"])
    except KeyError as exc:
        raise MalformedInput(f"{path}: header lacks {exc.args[0]}=") from None
    want = set(multi_indices(params.d, params.k))
    for alpha, lineno in row_line.items():
        if alpha not in want:
            raise MalformedInput(
                f"{path}: line {lineno}: multi-index {alpha} does not fit "
                f"k={params.k}, d={params.d}"
            )
    if want - set(table):
        raise MalformedInput(
            f"{path}: no modulus for multi-index {min(want - set(table))}"
        )
    return ReferenceModuli(params=params, table=table, panels=meta_panels,
                           est_error=meta_err,
                           rel_tol=header.get("rel_tol", 1e-8))
