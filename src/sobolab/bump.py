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

Every modulus takes one polar path (see :func:`_radial_modulus`).  At
x = r theta, D^alpha psi_1 is a sum of radial factors times monomials in
the direction theta.  With every a_i <= 1 it is one factor times
theta^alpha, so |D^alpha psi_1|^p splits into Folland's closed-form moment
of |theta^alpha|^p over the sphere (G. B. Folland, "How to integrate a
polynomial over a sphere", Amer. Math. Monthly 108 (2001) 446-448) and one
integral in r over the band 1/2 <= r <= 1.  Any other class of order <= 3
has one coordinate j with a_j >= 2; conditioning the sphere on theta_j
leaves a Folland moment over the other coordinates and a Gauss-Jacobi
integral over theta_j inside the radial one.  No modulus integrates over
more than one axis.

In d = 1, :func:`band_integrals` integrates |psi_1'|^p (the exact Morrey
check of :mod:`sobolab.morrey`) or psi_1^2 (the semi-analytic risk of
:mod:`sobolab.risk`) over the part of a bump's band inside an interval,
from a table of whole panels per (integrand, p).

A finite sum of disjointly supported bumps is one type, :class:`BumpSum`:
ground truths, the random sums of the Morrey check and the interpolants of
:mod:`sobolab.interpolant` alike.  It carries centers, radii and weights
only; (k, p, d) belong to the moduli a norm is computed with.
"""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
from .geometry import (
    _certified_violations,
    _check_squared_spread,
    _nn_sq_dists,
    _sq_norm,
)

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


def _bump_args(center, delta, x):
    """``(x, center, delta)`` as float arrays, after checking delta and the
    dimensions."""
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
    return x, center, delta


def _scaled_offsets(center, delta, x):
    """(x - center) / delta, after checking delta and the dimensions."""
    x, center, delta = _bump_args(center, delta, x)
    # a 0-d delta keeps numpy's array-by-scalar loop, which is faster
    return (x - center) / (delta[..., None] if delta.ndim else delta)


def bump_eval(center, delta, x):
    """psi_delta centered at ``center``, evaluated at ``x`` (batched)."""
    return profile_values(_sq_norm(*_bump_args(center, delta, x)))


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


def _checked_alpha(alpha, d):
    """``alpha`` as a tuple of ints, checked against the dimension d and
    the order cap."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != d:
        raise MismatchedLengths(
            f"multi-index length {len(alpha)} != dimension {d}"
        )
    if any(a < 0 for a in alpha):
        raise UnsupportedOrder("multi-index entries must be nonnegative")
    if sum(alpha) > MAX_ORDER:
        raise UnsupportedOrder(f"mixed partials implemented up to order {MAX_ORDER}")
    return alpha


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
    alpha = _checked_alpha(alpha, center.shape[-1])
    total = sum(alpha)
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
    """D^alpha sum_i w_i psi_{r_i}(x - c_i) over the ``(bump, point, u)``
    triples that ``shortlist(pts)`` finds in open supports, u the pair's
    ``_sq_norm(x, c, r)`` that decided it; pairs in bump order give each
    point the bits of the per-bump sum.  At alpha = 0 the value is phi(u),
    with no second pass over the offsets; a derivative re-forms them in
    :func:`bump_partial`.  Always float64, also where no pair is found."""
    x = np.asarray(x, dtype=float)
    d = centers.shape[1]
    if x.shape[-1:] != (d,):
        raise MismatchedLengths(
            f"points of dimension {x.shape[-1:]} for bumps of dimension {d}")
    alpha = _checked_alpha(alpha, d)
    pts = x.reshape(-1, d)
    bump, point, u = shortlist(pts)
    if any(alpha):
        values = bump_partial(alpha, np.take(centers, bump, axis=0),
                              np.take(radii, bump),
                              np.take(pts, point, axis=0))
    else:
        values = profile_values(u)
    out = np.bincount(point, weights=weights[bump] * values,
                      minlength=len(pts)).astype(float, copy=False)
    out = out.reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


# A sum of at most this many bumps pairs points with supports through one
# mask per bump, and builds no grid.  On one core of a 2-core x86 host, on
# 65 536 uniform points in d = 2, 3 and random disjoint bumps of radius up
# to 0.3, the masks (one _sq_norm(x, c, r) each) cost about 0.5-0.7 ms per
# bump and a query of a built grid 2-6 ms, so they break even near 4-8
# bumps; on 1024 points the masks take 0.14-0.18 ms at 8 bumps against
# 0.27-0.31 ms for a grid built and queried, and break even near 12-16.  So
# the masks stay beside the grid: on the same host, the 3-bump ground truth
# of `gamma_d2_tilted` takes a median of 1.6 ms with the masks on 50 000
# tilted samples and 3.7 ms on its built grid, with identical values.
_MASK_MAX_BUMPS = 8

# Support grid (see _SupportGrid).  A level holds the bumps with radii in
# [m / _GRID_BELOW, m * _GRID_ABOVE], m the lower median radius of the bumps
# that no earlier level holds, and its cells are _GRID_CELL * m wide.
_GRID_BELOW = 8.0
_GRID_ABOVE = 4.0
_GRID_CELL = 2.0
# A level's table has at most this many cells per (cell, bump) listing; a
# box with more cells wraps around a torus of that size.
_GRID_TABLE = 16
# Cell coordinates are exact integers below this bound: a level whose box
# spans more cells on some axis takes wider cells.
_GRID_MAX_CELLS = 2.0 ** 50
# Points per slice of a grid query, which bounds its candidate arrays.
_GRID_SLICE = 16384


def _cell_bound(radii, h, d):
    """An upper bound on the cells of width h that supports of ``radii``
    meet."""
    with np.errstate(over="ignore"):
        return float(np.sum((2.0 * radii / h + 2.0) ** d))


def _grid_levels(radii, d):
    """The bumps of each grid level, ascending, with the level's cell width.

    A level takes the bumps within a factor of m, the lower median of the
    radii left, so that a cell meets few supports and a support few cells.
    It also takes the smaller bumps left when they number at most 2^-d of
    its own (each lies in at most 2^d cells, so they add at most that many
    to a cell), and the larger ones left when they meet no more cells than
    its own bumps do.  Every level holds its median bump, so the loop ends.
    """
    rest = np.argsort(radii, kind="stable")
    levels = []
    while len(rest):
        r = radii[rest]
        m = float(r[(len(r) - 1) // 2])
        h = _GRID_CELL * m
        lo = int(np.searchsorted(r, m / _GRID_BELOW))
        hi = int(np.searchsorted(r, m * _GRID_ABOVE, side="right"))
        if lo * 2 ** d <= hi - lo:
            lo = 0
        if _cell_bound(r[hi:], h, d) <= _cell_bound(r[lo:hi], h, d):
            hi = len(r)
        levels.append((np.sort(rest[lo:hi]), h))
        rest = np.concatenate([rest[:lo], rest[hi:]])
    return levels


# The grid and the identity shortlist stay for speed (2 cores).  On a
# `gamma_d2_tilted` interpolant (n = 1024) and 50 000 tilted samples at
# s = 1, 0.5, 0.25, the grid's build and pairs took 6.7, 3.4, 4.4 ms, and a
# cKDTree(centers).query(k=1) nearest-centre shortlist 32, 30, 46 ms (27,
# 24, 20 ms with distance_upper_bound = r_max), for identical pairs.  At the
# `norm_d3` spec's data points, n = 256, 1024, 4096, the identity shortlist
# took 0.07, 0.11, 0.26 ms, and a freshly built grid 0.59, 1.63, 6.38 ms.
class _SupportGrid:
    """Cell grids over the supports of a sum of bumps, built once per sum
    from its centers and radii alone.

    Each level (:func:`_grid_levels`) cuts the box of its bumps' supports
    into cells of width h, and lists each of its bumps in every cell that
    the support's bounding box [c - r, c + r] meets.  A point takes the
    bumps listed in its own cell, on each level, as candidates.  No pair
    in an open support is lost: when _sq_norm(x, c, r) < 1, the
    rounded c_j - r <= x_j <= the rounded c_j + r on every axis (were x_j
    above the rounded c_j + r, it would exceed c_j + r, and the rounded
    (x_j - c_j) / r would be at least 1).  Rounding is monotone, so x's
    cell index floor((x_j - lo_j) / h) lies between those of the support's
    box, which the bump is listed in.  For the same reason a point outside
    a level's box, a far or infinite one among them, lies in no support of
    that level.

    Cells and listings stay O(n) however far apart the centers are: a box
    with more than ``_GRID_TABLE`` cells per listing wraps around a torus
    of that many cells, wide enough on each axis that no bump meets one
    torus cell twice.  Wrapped cells hold the bumps of every cell they
    stand for, which only adds candidates.  A reach box whose squared
    diagonal overflows raises :class:`MalformedInput`
    (:func:`sobolab.geometry._check_squared_spread`).
    """

    def __init__(self, centers, radii):
        with np.errstate(over="ignore"):
            low = centers - radii[:, None]
            high = centers + radii[:, None]
        _check_squared_spread(low.min(axis=0), high.max(axis=0))
        self.centers, self.radii = centers, radii
        self.levels = [self._level(low[members], high[members], members, h)
                       for members, h in _grid_levels(radii, centers.shape[1])]

    @staticmethod
    def _level(low, high, members, h):
        """(lo, h, box, dims, starts, counts, listed) of one level: the box's
        cells per axis, the table's shape, and its cells' bumps as CSR.

        Table index 0 and box + 1 on each axis are empty border cells, which
        take the points below and above the box.
        """
        lo = low.min(axis=0)
        h = max(h, float(np.max(high.max(axis=0) - lo)) / _GRID_MAX_CELLS)
        first = np.floor((low - lo) / h)
        last = np.floor((high - lo) / h)
        per_axis = (last - first).astype(np.int64) + 1
        box = last.max(axis=0).astype(np.int64) + 1
        per_bump = per_axis.prod(axis=1)
        total = int(per_bump.sum())
        widest = per_axis.max(axis=0)
        dims = box + 2
        budget = max(_GRID_TABLE * total, math.prod(widest.tolist()))
        while math.prod(dims.tolist()) > budget:
            j = max((j for j in range(len(dims)) if dims[j] > widest[j]),
                    key=lambda j: dims[j])
            dims[j] = max((dims[j] + 1) // 2, widest[j])
        # every (bump, cell) listing, with k its index among the bump's cells
        k = np.arange(total) - np.repeat(np.cumsum(per_bump) - per_bump,
                                         per_bump)
        key = np.zeros(total, dtype=np.intp)
        for j in range(len(dims)):
            k, step = np.divmod(k, np.repeat(per_axis[:, j], per_bump))
            cell = np.repeat(first[:, j].astype(np.intp) + 1, per_bump) + step
            if dims[j] < box[j] + 2:
                cell %= dims[j]
            key = key * dims[j] + cell
        counts = np.bincount(key, minlength=math.prod(dims.tolist()))
        starts = (np.cumsum(counts) - counts).astype(np.int32)
        counts = counts.astype(np.int32)
        # a stable sort keeps each cell's bumps ascending
        listed = np.repeat(members, per_bump)[np.argsort(key, kind="stable")]
        return lo, h, box, dims, starts, counts, listed

    def pairs(self, pts):
        """(bump, point, u) of every point in an open support, each point's
        in bump order, u its ``_sq_norm(x, c, r)``."""
        bumps, points, us = [], [], []
        for offset in range(0, len(pts), _GRID_SLICE):
            part = pts[offset:offset + _GRID_SLICE]
            for level in self.levels:
                bump, point = self._candidates(level, part)
                # np.take gathers rows about 10x faster than part[point]
                with np.errstate(over="ignore"):  # inf is outside too
                    u = _sq_norm(np.take(part, point, axis=0),
                                 np.take(self.centers, bump, axis=0),
                                 self.radii[bump])
                inside = np.flatnonzero(u < 1.0)
                bumps.append(bump[inside])
                points.append(point[inside] + offset)
                us.append(u[inside])
        if not bumps:
            return np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0)
        bump, point, u = map(np.concatenate, (bumps, points, us))
        # in rounded arithmetic a point may lie in touching supports of
        # several levels, and the per-bump sum adds them in bump order
        if len(self.levels) > 1:
            order = np.argsort(bump, kind="stable")
            bump, point, u = bump[order], point[order], u[order]
        return bump, point, u

    @staticmethod
    def _candidates(level, pts):
        """(bump, point) pairs of each point with the bumps of its cell.

        A point's offset (x_j - lo_j) / h is clipped to [-1, box_j] and
        truncated, which is its floor on the box and puts a point outside
        it in a border cell, or in the box's first cell from just below:
        a point outside the box lies in no support, so a wrong cell there
        only adds candidates.
        """
        lo, h, box, dims, starts, counts, listed = level
        key = np.zeros(len(pts), dtype=np.intp)
        for j in range(pts.shape[1]):
            with np.errstate(over="ignore"):  # an inf offset clips to box_j
                t = (pts[:, j] - lo[j]) / h
            cell = np.clip(t, -1.0, box[j], out=t).astype(np.intp)
            cell += 1
            if dims[j] < box[j] + 2:
                cell %= dims[j]
            key *= dims[j]
            key += cell
        count = counts[key]
        point = np.flatnonzero(count)
        count = count[point]
        ends = np.cumsum(count)
        slot = np.arange(ends[-1] if len(ends) else 0) + np.repeat(
            starts[key[point]] - (ends - count), count)
        return listed[slot], np.repeat(point, count)


@dataclass(frozen=True)
class BumpSum:
    """A finite sum of disjointly supported bumps, sum_i w_i psi_{r_i}.

    The package's one bump-sum type: ground truths, random Morrey sums and
    interpolants alike.  Disjoint supports make every norm a sum over the
    individual bumps, so construction rejects overlapping ones, through
    the packing check at twice the radii
    (:func:`sobolab.geometry._certified_violations`): a sum with every
    r_i <= delta_i / 2, delta_i the distance to the nearest other center,
    is certified with no search, and only other sums run the k-d tree
    overlap search.  Centers whose squared distances overflow take that
    search and raise :class:`MalformedInput`.  ``_nn_sq`` passes the
    centers' squared nearest-neighbor distances in when they are already
    known (as :func:`sobolab.interpolant.build` does); otherwise they are
    computed here.
    """

    centers: np.ndarray
    radii: np.ndarray
    weights: np.ndarray
    _nn_sq: InitVar[np.ndarray | None] = None
    _certified: bool = field(init=False, repr=False, compare=False)
    _grid: _SupportGrid | None = field(init=False, repr=False, compare=False,
                                       default=None)

    def __post_init__(self, _nn_sq):
        centers = np.atleast_2d(np.array(self.centers, dtype=float))
        radii = np.atleast_1d(np.array(self.radii, dtype=float))
        weights = np.atleast_1d(np.array(self.weights, dtype=float))
        if not (centers.ndim == 2 and centers.size
                and radii.shape == weights.shape == centers.shape[:1]):
            raise MismatchedLengths(
                "need at least one bump of dimension >= 1, with centers, "
                "radii and weights aligned")
        if not (np.isfinite(centers).all() and np.isfinite(weights).all()):
            raise MalformedInput("centers and weights must be finite")
        if not (np.isfinite(radii).all() and np.all(radii > 0.0)):
            raise NonpositiveRadius("all support radii must be finite and positive")
        for arr in (centers, radii, weights):
            arr.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "weights", weights)
        # an overflowed distance never certifies, and a 2 r that overflows
        # is an inf reach, which overlaps every other bump
        with np.errstate(over="ignore"):
            nn_sq = _nn_sq_dists(centers) if _nn_sq is None else _nn_sq
            certified, overlaps = _certified_violations(centers, 2.0 * radii,
                                                        nn_sq)
        object.__setattr__(self, "_certified", certified)
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
        return float(np.max(np.abs(self.weights)))

    def __call__(self, x):
        return self.partial((0,) * self.dim, x)

    def partial(self, alpha, x):
        return _sum_over_pairs(alpha, self.centers, self.radii, self.weights,
                               x, self._support_pairs)

    def _support_pairs(self, pts):
        """(bump, point, u) triples that hold every point inside an open
        support, u the pair's ``_sq_norm(x, c, r)``.

        A NaN point raises :class:`MalformedInput`; an infinite one lies in
        no support.  Then three shortlists, tried in this order:

        - masks: a sum of at most ``_MASK_MAX_BUMPS`` bumps takes one mask
          per bump;
        - identity: a certified sum evaluated at exactly its own centers
          (``np.array_equal``) pairs point i with bump i alone, at u = 0
          exactly.  For j != i, ||c_i - c_j|| >= delta_j >= 2 r_j, so c_i
          lies outside every other support;
        - grid: any other batch takes the candidates of its cells in the
          sum's :class:`_SupportGrid`, built on first use and kept, and
          decides each by the masks' own test, in slices of
          ``_GRID_SLICE`` points.

        Pairs outside a support add exact zeros to the per-bump sum.
        """
        if np.isnan(pts).any():
            raise MalformedInput("query points must not be NaN")
        if self.n <= _MASK_MAX_BUMPS:
            inside, us = [], []
            with np.errstate(over="ignore"):  # inf is outside too
                for c, r in zip(self.centers, self.radii):
                    u = _sq_norm(pts, c, r)
                    inside.append(np.flatnonzero(u < 1.0))
                    us.append(u[inside[-1]])
            bump = np.repeat(np.arange(self.n), [len(i) for i in inside])
            return bump, np.concatenate(inside), np.concatenate(us)
        if self._certified and np.array_equal(pts, self.centers):
            own = np.arange(self.n)
            return own, own, np.zeros(self.n)
        if self._grid is None:  # threads that race here build equal grids
            object.__setattr__(self, "_grid",
                               _SupportGrid(self.centers, self.radii))
        return self._grid.pairs(pts)


# -- band integrals in d = 1 --------------------------------------------------

# Equal panels of the band 1/2 <= s <= 1 in each table; 8 to 64 ran alike
# in the morrey_d1 workload, 128 slower.
_BAND_PANELS = 32
# Halvings of a table panel or partial piece before the ladder gives up.
_BAND_HALVINGS = 6
# Two successive levels of a band piece agree to this, relative.
_BAND_REL_TOL = 1e-10
# The integrands of band_integrals in s = |x - c| / r, by the name their
# errors give: the Morrey check's |psi_1'|^p and the L^p mass psi_1^p
_BAND_INTEGRANDS = {
    "Morrey": lambda s, p: np.abs(profile_eval(s * s, 1) * (2.0 * s)) ** p,
    "L^p": lambda s, p: profile_values(s * s) ** p,
}


def _band_ladder(name, lo, hi, p):
    """The integral of integrand ``name`` over each piece [lo_i, hi_i], and
    the index of the first piece not converged, or None.

    Each piece runs a Gauss-Legendre ladder of 2^level equal panels and
    stops at the first level that agrees with the one before to
    ``_BAND_REL_TOL``, so its value depends on its own ends alone; a piece
    still live after ``_BAND_HALVINGS`` halvings keeps the value 0.
    """
    integrand = _BAND_INTEGRANDS[name]
    integrals = np.zeros(len(lo))
    live, prev = np.arange(len(lo)), None
    width = hi - lo
    for level in range(_BAND_HALVINGS + 1):
        if not live.size:
            break
        steps = np.linspace(0.0, 1.0, (1 << level) + 1)
        edges = lo[live, None] + width[live, None] * steps
        nodes, wts = quadrature.rule_from_panels(edges[:, :-1].ravel(),
                                                 edges[:, 1:].ravel())
        cur = (integrand(nodes, p) * wts).reshape(len(live), -1).sum(axis=1)
        if level:
            done = (np.abs(cur - prev)
                    <= _BAND_REL_TOL * np.maximum(abs(cur), 1e-300))
            integrals[live[done]] = cur[done]
            live, cur = live[~done], cur[~done]
        prev = cur
    return integrals, (int(live[0]) if live.size else None)


def _not_converged(what):
    return QuadratureNotConverged(
        f"{what} not converged to rel {_BAND_REL_TOL:g} after "
        f"{1 << _BAND_HALVINGS} panels")


# the bound keeps a process that meets many (name, p) from holding every
# table
@lru_cache(maxsize=16)
def _band_table(name, p):
    """(edges, integrals), read-only, of integrand ``name`` over the
    ``_BAND_PANELS`` equal panels of the band; raises
    :class:`QuadratureNotConverged` naming p and the first panel that does
    not converge."""
    edges = np.linspace(0.5, 1.0, _BAND_PANELS + 1)
    table, failed = _band_ladder(name, edges[:-1], edges[1:], p)
    if failed is not None:
        raise _not_converged(
            f"{name} band table at p = {p!r}: panel [{float(edges[failed])!r}"
            f", {float(edges[failed + 1])!r}]")
    edges.flags.writeable = False
    table.flags.writeable = False
    return edges, table


def band_integrals(name, centers, radii, a, b, p):
    """(bump, integrals): integrand ``name`` at p integrated in s over each
    piece of a band inside an interval, and the bump of each piece.

    Bump i (1-D arrays of centres and radii) has its band 1/2 <= s <= 1 in
    s = (c_i - x) / r_i on its left and s = (x - c_i) / r_i on its right,
    and each side meets [a_i, b_i] in at most one piece [lo, hi]; nonempty
    pieces come in bump order, left first.  A piece adds the panels of
    :func:`_band_table` that lie inside it and runs :func:`_band_ladder`
    on the rest, [lo, first edge] and [last edge, hi], or on the whole
    piece if no panel fits.  Its terms, all positive, are summed left to
    right, which keeps their relative accuracy where a difference of
    prefix sums would cancel (at p = 1.25 the Morrey band holds about 1.35,
    its first panel 5e-25).  A piece's value depends on its ends and the
    table alone, so a bump gets the same bits alone as among others.

    Raises :class:`QuadratureNotConverged` naming the integrand, p and the
    panel of a table, or the interval [a_i, b_i] of the first bump whose
    partial piece does not converge.
    """
    near = (centers - b) / radii
    far = (centers - a) / radii
    lo = np.maximum(np.stack([near, -far], axis=1).ravel(), 0.5)
    hi = np.minimum(np.stack([far, -near], axis=1).ravel(), 1.0)
    keep = lo < hi
    lo, hi, bump = lo[keep], hi[keep], np.flatnonzero(keep) // 2
    edges, table = _band_table(name, p)
    full = (edges[:-1] >= lo[:, None]) & (edges[1:] <= hi[:, None])
    inner = full.any(axis=1)
    # the outer edges of the panels inside each piece, or hi where none fits
    first = np.where(inner, edges[full.argmax(axis=1)], hi)
    last = np.where(inner, edges[len(table) - full[:, ::-1].argmax(axis=1)],
                    hi)
    ends_lo = np.stack([lo, last], axis=1)
    ends_hi = np.stack([first, hi], axis=1)
    has = ends_lo < ends_hi
    parts, failed = _band_ladder(name, ends_lo[has], ends_hi[has], p)
    if failed is not None:
        i = bump[np.flatnonzero(has)[failed] // 2]
        raise _not_converged(
            f"{name} integral over [{float(a[i])!r}, {float(b[i])!r}]")
    ends = np.zeros(has.shape)
    ends[has] = parts
    terms = np.column_stack([ends[:, 0], np.where(full, table, 0.0),
                             ends[:, 1]])
    return bump, np.cumsum(terms, axis=1)[:, -1]


# -- reference moduli ---------------------------------------------------------

_MAX_DOUBLINGS = 6  # after which the radial ladder of a moduli table raises


@dataclass(frozen=True)
class ReferenceModuli:
    """Table of M_alpha = integral |D^alpha psi_1|^p over |alpha| <= k.

    ``panels`` and ``est_error`` are in-memory diagnostics of the
    quadrature that produced each entry (:func:`_radial_modulus`); the
    benchmark reads ``panels``.  The radial integral over 1/2 <= r <= 1 is
    split into pieces at the zeros of the class's radial factors (one piece
    for |alpha| <= 1); ``panels`` is the panel count of each piece at the
    converged level, and ``est_error`` the difference between the last two
    levels, plus, for a class with an inner Gauss-Jacobi rule in theta_j
    (some a_j >= 2, d >= 2), the change from doubling that rule's nodes.
    """

    params: SobolevParams
    table: dict
    panels: dict
    est_error: dict

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


# Levels of the radial ladder, and the inner rule at n and 2n nodes, agree
# to this relative tolerance; converged levels still differ by rounding
# near 1e-15.
_EXACT_REL_TOL = 1e-13
_LOG_DBL_MAX = math.log(sys.float_info.max)
_LOG_DBL_MIN = math.log(sys.float_info.min)


def _sphere_moment(beta, log_scale=0.0, absolute=False):
    """e^log_scale times integral_{S^(d-1)} theta^beta, d = len(beta).

    Folland's closed form: 2 prod_j Gamma((beta_j + 1)/2) /
    Gamma((|beta| + d)/2) when every beta_j is even, and 0 otherwise.  With
    ``absolute`` it is the moment of |theta^beta| instead, for real
    beta_j >= 0: the same closed form with no parity rule, so an odd
    exponent gives no 0 (at p = 3 the moment of |theta_j|^3 is not 0).  It
    is formed from log-gamma, so exponents of any size stay finite; a value
    that leaves the normal double range raises
    :class:`QuadratureNotConverged` instead of overflowing or flushing to 0.
    """
    if not absolute and any(b % 2 for b in beta):
        return 0.0
    halves = [(b + 1) / 2 for b in beta]
    log_m = (sum(map(math.lgamma, halves)) - math.lgamma(sum(halves))
             + math.log(2.0) + log_scale)
    if not _LOG_DBL_MIN < log_m < _LOG_DBL_MAX:
        raise QuadratureNotConverged(
            f"sphere moment of theta^{tuple(beta)} leaves the double range")
    return math.exp(log_m)


# Nodes of each Gauss-Jacobi rule of the inner integral in u; its error is
# measured by a second pass at twice as many.
_JACOBI_NODES = 192
# Points of the grid on the band whose sign changes locate the breaks.
_ZERO_GRID = 4001


def _radial_factors(terms, r):
    """g_t(r) = c_t (2r)^|w_t| phi^(m_t)(r^2) of each term of
    :func:`_bell_terms` at the radii ``r``."""
    u = r * r
    return [c * (2.0 * r) ** sum(w) * profile_eval(u, m) for m, c, w in terms]


def _breaks(fns):
    """1/2, the zeros of each function of ``fns`` on the band, and 1, in
    order: sign changes on a ``_ZERO_GRID``-point grid, each refined by
    ``brentq``."""
    lo, hi = PLATEAU_END ** 0.5, SUPPORT_END
    if not fns:
        return [lo, hi]
    # imported here, not with the module: scipy.optimize adds about 11 MB
    # to the peak RSS of every run, and only classes of order >= 2 use it
    from scipy.optimize import brentq

    grid = np.linspace(lo, hi, _ZERO_GRID)
    zeros = []
    for f in fns:
        sign = np.sign(f(grid))
        for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
            zeros.append(brentq(lambda r: float(f(np.array([r]))[0]),
                                grid[i], grid[i + 1], xtol=1e-15))
    return [lo, *sorted(zeros), hi]


@lru_cache(maxsize=None)
def _jacobi(n, a, b):
    """Gauss-Jacobi nodes and weights for (1 - x)^a (1 + x)^b on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    three-term recurrence, and the weights mu_0 v_0^2 from the first
    components of its eigenvectors.  ``scipy.special.roots_jacobi`` polishes
    the same nodes with Jacobi polynomials whose rounding grows with n:
    against ``mpmath`` its rules at 192 and 384 nodes integrated
    (1 - x)^(-1/2) (1 + x)^4 (cos 3x + x^3) to 2.4e-12 and 1.3e-11
    relative, and these to 6e-15.
    """
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (b * b - a * a) / (s * (s + 2.0))
    if a + b == 0.0:
        diag[0] = (b - a) / 2.0
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b)
                  / (s * s * (s + 1.0) * (s - 1.0)))
    x, v = eigh_tridiagonal(diag, off)
    log_mu0 = ((a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0)
               + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0))
    return x, math.exp(log_mu0) * v[0] ** 2


def _inner_integral(a, b, p, s, e, nodes):
    """integral_{-1}^{1} |u|^(p s) (1 - u^2)^e |a + b u^2|^p du per radius.

    The integrand is even in u.  Where the root u* = sqrt(-a/b) lies in
    (0, 1), [0, u*] and [u*, 1] each take a Gauss-Jacobi rule with the
    piece's end exponents: p s at 0, p at u* and e at 1; otherwise [0, 1]
    takes one.  Every p-th power is of a product of the factors it covers,
    so it overflows only where the integrand does.
    """
    a, b = a[:, None], b[:, None]
    out = np.empty(len(a))
    with np.errstate(divide="ignore", invalid="ignore"):
        root_sq = -a[:, 0] / b[:, 0]
    inside = (root_sq > 0.0) & (root_sq < 1.0)
    whole = ~inside
    x, w = _jacobi(nodes, e, p * s)
    u = 0.5 + 0.5 * x
    out[whole] = 2.0 ** -e * np.sum(
        w * (np.abs(a[whole] + b[whole] * u * u) * 0.5 ** s) ** p
        * (1.0 + u) ** e, axis=1)
    a, b = a[inside], np.abs(b[inside])
    root = np.sqrt(root_sq[inside])[:, None]
    h = 0.5 * root
    x, w = _jacobi(nodes, p, p * s)
    u = h * (1.0 + x)
    first = h[:, 0] * np.sum(
        w * (b * h ** (1 + s) * (root + u)) ** p * (1.0 - u * u) ** e, axis=1)
    h = 0.5 * (1.0 - root)
    x, w = _jacobi(nodes, e, p)
    u = root + h * (1.0 + x)
    second = h[:, 0] ** (1.0 + e) * np.sum(
        w * (b * h * (u + root) * u ** s) ** p * (1.0 + u) ** e, axis=1)
    out[inside] = 2.0 * (first + second)
    return out


def _radial_modulus(alpha, p):
    """M_alpha = integral |D^alpha psi_1|^p, for every class and every p.

    Returns ``(value, panels, est_error)``.  At x = r theta the terms of
    :func:`_bell_terms` give

        D^alpha psi_1 = sum_t g_t(r) theta^(w_t),
        g_t(r) = c_t (2r)^|w_t| phi^(m_t)(r^2).

    With every a_i <= 1 there is one term, so |D^alpha psi_1|^p =
    |g(r)|^p |theta^w|^p: the absolute sphere moment of |theta^w|^p
    (:func:`_sphere_moment`, Folland) times a radial integral of |g|^p.
    Both absolute values matter: phi' < 0 on the band, and a negative base
    to a non-integer power is NaN; and an odd exponent must not zero the
    moment.

    For k <= 3 any other class has one coordinate j with a_j >= 2 and
    others O with a_i = 1, and two terms:

        D^alpha psi_1 = theta_O theta_j^s (A(r) + B(r) theta_j^2),

    s = a_j mod 2.  Conditioning the sphere on u = theta_j leaves a sphere
    S^(d-2) of radius sqrt(1 - u^2), so

        M_alpha = m_O integral_{1/2}^{1} r^(d-1) integral_{-1}^{1}
                  |u|^(p s) (1 - u^2)^((d - 3 + p |O|)/2)
                  |A + B u^2|^p du dr,

    m_O the absolute sphere moment of |theta_O|^p over the other d - 1
    coordinates, and :func:`_inner_integral` the integral over u.  In
    d = 1 the sphere is the two points +-1, where every |theta^w|^p is 1,
    so there the class has the one radial factor A + B, and M_alpha =
    2 integral |A + B|^p dr.

    The radial integral runs over the band 1/2 <= r <= 1, where every
    derivative of phi lives, on the Gauss-Legendre ladder of
    :func:`sobolab.quadrature.refine` from 4 panels until two levels agree
    to 1e-13 relative.  A class of order >= 2 splits it into pieces at the
    zeros of g, or of A and A + B (where u* enters or leaves [0, 1]), with
    graded panels next to each (:func:`sobolab.quadrature.graded_rule`);
    ``panels`` counts them per piece.  An order <= 1 class has one piece
    and no search.  A class with an inner rule runs its converged level
    again with twice ``_JACOBI_NODES``, and ``est_error`` adds that change
    to the ladder's.  alpha = 0 adds the plateau r < 1/2, where psi_1 = 1:
    |S^(d-1)| / (d 2^d).

    An integrand that overflows, a modulus that is not finite and positive,
    or an inner rule whose change exceeds 1e-13 relative raises
    :class:`QuadratureNotConverged`.  M_(e_d) overflows for every p >= 488
    (d = 1, 2, 3), and a table computes it before any class of order 2.
    """
    alpha = tuple(int(a) for a in alpha)
    d, order_alpha = len(alpha), sum(alpha)
    terms = _bell_terms(alpha)
    polar = len(terms) > 1 and d > 1

    def total(r):
        return sum(_radial_factors(terms, r))

    if not polar:
        (_, _, w), *_ = terms
        moment = _sphere_moment([p * b for b in w], absolute=True)

        def radial(r):
            with np.errstate(over="ignore"):  # the ladder raises on inf
                return moment * np.abs(total(r)) ** p * r ** (d - 1)

        breaks = _breaks([total] if order_alpha >= 2 else [])
    else:
        j = max(range(d), key=lambda i: alpha[i])
        s = alpha[j] % 2
        others = [alpha[i] for i in range(d) if i != j]
        e = (d - 3 + p * sum(others)) / 2.0
        moment = _sphere_moment([p * a for a in others], absolute=True)

        def radial(r, nodes=_JACOBI_NODES):
            a, b = _radial_factors(terms, r)
            with np.errstate(over="ignore", invalid="ignore"):
                inner = _inner_integral(a, b, p, s, e, nodes)
                return moment * inner * r ** (d - 1)

        breaks = _breaks([lambda r: _radial_factors(terms, r)[0], total])

    def level(panels, **kw):
        r, weights = quadrature.graded_rule(breaks, panels)
        return float(np.sum(radial(r, **kw) * weights))

    value, panels, err = quadrature.refine(
        level, _EXACT_REL_TOL, start_panels=4, max_doublings=_MAX_DOUBLINGS)
    if polar:
        change = abs(level(panels, nodes=2 * _JACOBI_NODES) - value)
        if not change <= _EXACT_REL_TOL * value:
            raise QuadratureNotConverged(
                f"no convergence to rel {_EXACT_REL_TOL:g} of the inner "
                f"rule: {_JACOBI_NODES} and {2 * _JACOBI_NODES} nodes differ "
                f"by {change:.3g}")
        err += change
    if not order_alpha:
        value += _sphere_moment((0,) * d) / (d * 2.0 ** d)
    if not (math.isfinite(value) and value > 0.0):
        raise QuadratureNotConverged(
            f"M_{alpha} at p={p} is {value}, outside the double range")
    return value, panels, err


def reference_moduli(params):
    """Compute the full M_alpha table for ``params`` deterministically.

    Every class takes the polar path of :func:`_radial_modulus` at every p:
    closed-form sphere moments (Folland), a Gauss-Jacobi rule in theta_j
    for a class with some a_j >= 2, and one radial Gauss-Legendre ladder
    from 4 panels per piece, stopped when two levels agree to 1e-13
    relative.  So a k = 1 table runs the order <= 1 ladder alone, with no
    search for breaks.  The ladder raises :class:`QuadratureNotConverged`
    after 6 doublings (``_MAX_DOUBLINGS``), or at the first level whose
    integrand overflows, and so does an inner rule that has not converged;
    the error names the class and the table's (k, p, d).

    psi_1 is radial, so M_alpha is exactly invariant under permutations of
    alpha; only one representative per permutation class is integrated and
    the value is shared across the class.
    """
    table, panels, errs = {}, {}, {}
    by_class = {}
    for alpha in multi_indices(params.d, params.k):
        rep = tuple(sorted(alpha))
        if rep not in by_class:
            try:
                by_class[rep] = _radial_modulus(alpha, params.p)
            except QuadratureNotConverged as exc:
                raise QuadratureNotConverged(
                    f"class {rep} of the (k, p, d) = ({params.k}, "
                    f"{params.p!r}, {params.d}) table: {exc}") from None
        value, n_panels, err = by_class[rep]
        table[alpha] = value
        panels[alpha] = n_panels
        errs[alpha] = err
    return ReferenceModuli(params=params, table=table, panels=panels,
                           est_error=errs)


@lru_cache(maxsize=None)
def l2_modulus(d):
    """integral psi_1^2 over R^d (the alpha = 0, p = 2 modulus)."""
    return _radial_modulus((0,) * d, 2)[0]
