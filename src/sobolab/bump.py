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

The path depends on p and |alpha|.  For an even integer p, |D^alpha psi_1|^p
is a polynomial in the direction theta = x/|x| with coefficients in
r = |x|; its theta-monomials integrate over the sphere in closed form
(G. B. Folland, "How to integrate a polynomial over a sphere", Amer. Math.
Monthly 108 (2001) 446-448), which leaves one integral in r over the band
1/2 <= r <= 1 (see :func:`_radial_modulus`).  For |alpha| <= 1 and any p,
D^alpha psi_1 is one radial factor times theta^alpha, so |D^alpha psi_1|^p
splits the same way, with Folland's moment of |theta^alpha|^p.  Only a class
of order >= 2 at a p that is not an even integer takes the tensor
Gauss-Legendre box quadrature of :func:`integrate_partial_power`, which
also serves as the oracle for both radial cases.

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
    _header_record,
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
    each point the bits of the per-bump sum.  Always float64, also where no
    pair is found."""
    x = np.asarray(x, dtype=float)
    d = centers.shape[1]
    if x.shape[-1:] != (d,):
        raise MismatchedLengths(
            f"points of dimension {x.shape[-1:]} for bumps of dimension {d}")
    pts = x.reshape(-1, d)
    bump, point = shortlist(pts)
    values = bump_partial(alpha, centers[bump], radii[bump], pts[point])
    out = np.bincount(point, weights=weights[bump] * values,
                      minlength=len(pts)).astype(float, copy=False)
    out = out.reshape(x.shape[:-1])
    return float(out) if out.ndim == 0 else out


# A sum of at most this many bumps pairs points with supports through one
# mask per bump, and builds no grid.  On one core of a 2-core x86 host, on
# 65 536 points in d = 2, 3, the masks cost about 1.2-1.5 ms per bump and a
# built grid 4-9 ms whatever the count, so they break even near 4-8 bumps;
# on 1024 points the masks take 0.27-0.32 ms at 8 bumps against 0.50-0.53 ms
# for a grid built and queried, and break even near 16.  So the masks stay
# beside the grid: on the same host, `gamma_d2_tilted` (run_sweep with
# threads=2, seed 781508, BLAS at 1 thread), whose ground truth is a 3-bump
# sum, took a median of 0.415 s with the masks and 0.489 s with that sum on
# the grid, slower in 8 of 8 alternating pairs, with identical rows.
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
    in an open support is lost: when _sq_norm((x - c) / r) < 1, the
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
        """(bump, point) pairs of every point in an open support, each
        point's in bump order."""
        bumps, points = [], []
        for offset in range(0, len(pts), _GRID_SLICE):
            part = pts[offset:offset + _GRID_SLICE]
            for level in self.levels:
                bump, point = self._candidates(level, part)
                with np.errstate(over="ignore"):  # inf is outside too
                    inside = _sq_norm((part[point] - self.centers[bump])
                                      / self.radii[bump][:, None]) < 1.0
                bumps.append(bump[inside])
                points.append(point[inside] + offset)
        bump = np.concatenate(bumps) if bumps else np.zeros(0, np.intp)
        point = np.concatenate(points) if points else np.zeros(0, np.intp)
        # in rounded arithmetic a point may lie in touching supports of
        # several levels, and the per-bump sum adds them in bump order
        if len(self.levels) > 1:
            order = np.argsort(bump, kind="stable")
            bump, point = bump[order], point[order]
        return bump, point

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
        """(bump, point) pairs that hold every point inside an open support.

        A NaN point raises :class:`MalformedInput`; an infinite one lies in
        no support.  Then three shortlists, tried in this order:

        - masks: a sum of at most ``_MASK_MAX_BUMPS`` bumps takes one mask
          per bump;
        - identity: a certified sum evaluated at exactly its own centers
          (``np.array_equal``) pairs point i with bump i alone.  For
          j != i, ||c_i - c_j|| >= delta_j >= 2 r_j, so c_i lies outside
          every other support;
        - grid: any other batch takes the candidates of its cells in the
          sum's :class:`_SupportGrid`, built on first use and kept, and
          decides each by the masks' own test, in slices of
          ``_GRID_SLICE`` points.

        Pairs outside a support add exact zeros to the per-bump sum.
        """
        if np.isnan(pts).any():
            raise MalformedInput("query points must not be NaN")
        if self.n <= _MASK_MAX_BUMPS:
            with np.errstate(over="ignore"):  # inf is outside too
                inside = [np.flatnonzero(_sq_norm((pts - c) / r) < 1.0)
                          for c, r in zip(self.centers, self.radii)]
            bump = np.repeat(np.arange(self.n), [len(i) for i in inside])
            return bump, np.concatenate(inside)
        if self._certified and np.array_equal(pts, self.centers):
            own = np.arange(self.n)
            return own, own
        if self._grid is None:  # threads that race here build equal grids
            object.__setattr__(self, "_grid",
                               _SupportGrid(self.centers, self.radii))
        return self._grid.pairs(pts)


# -- reference moduli ---------------------------------------------------------

_REL_TOL = 1e-8     # where the box path of a moduli table stops
_MAX_DOUBLINGS = 6  # after which either path of a moduli table raises


@dataclass(frozen=True)
class ReferenceModuli:
    """Table of M_alpha = integral |D^alpha psi_1|^p over |alpha| <= k.

    ``panels`` and ``est_error`` describe the quadrature that produced each
    entry.  For the radial path (every class at an even integer p, and
    every class with |alpha| <= 1 at any p) they are the panel count of the
    radial integral over 1/2 <= r <= 1 and the difference between its last
    two levels; for the box path (|alpha| >= 2 at any other p) they are the
    panel count per axis of the d-dimensional box and the difference
    between its last two refinements.
    """

    params: SobolevParams
    table: dict
    panels: dict = field(default_factory=dict)
    est_error: dict = field(default_factory=dict)
    rel_tol: float = _REL_TOL

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


def integrate_partial_power(alpha, p, delta, rel_tol=1e-8, max_doublings=6):
    """Adaptive quadrature of integral |D^alpha psi_delta|^p over R^d.

    Independent of the scaling shortcut: the integrand is evaluated at the
    requested delta, over [0, delta]^d (the integrand is even in every
    coordinate), and only then compared against delta^(d-|alpha|p) M_alpha
    by callers that test the identity.
    """
    integrand, box = _partial_power_box(alpha, p, delta)
    value, panels, err = quadrature.adaptive_box(
        integrand, box, rel_tol=rel_tol,
        start_panels=1, max_doublings=max_doublings,
    )
    scale = 2.0 ** len(box)
    return scale * value, panels, scale * err


def integrate_partial_power_fixed(alpha, p, delta, panels):
    """Like :func:`integrate_partial_power` but at a fixed panel count.

    Useful when a converged panel count is already known (for example from
    the moduli metadata) and re-running the refinement ladder would only
    repeat work.
    """
    integrand, box = _partial_power_box(alpha, p, delta)
    return 2.0 ** len(box) * quadrature.integrate_box(integrand, box, panels)


# Levels of the even-p radial ladder agree to this relative tolerance;
# tighter stalls in rounding: at (k, p, d) = (3, 32, 3), alpha = (0, 0, 3),
# successive levels keep differing near 1e-15.
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


def _compositions(total, parts):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _radial_modulus(alpha, p):
    """M_alpha = integral |D^alpha psi_1|^p for an even integer p, or for
    |alpha| <= 1 at any p.

    Returns ``(value, panels, est_error)`` like
    :func:`integrate_partial_power`.  At x = r theta the terms of
    :func:`_bell_terms` give

        D^alpha psi_1 = sum_t g_t(r) theta^(w_t),
        g_t(r) = c_t (2r)^|w_t| phi^(m_t)(r^2).

    For an even integer p, the multinomial expansion of the p-th power is a
    sum over the compositions n of p of (p; n) prod_t g_t^(n_t)
    theta^(sum_t n_t w_t), and each theta-monomial integrates over the
    sphere in closed form (:func:`_sphere_moment`).  For |alpha| <= 1 there
    is one term, so |D^alpha psi_1|^p = |g(r)|^p |theta^w|^p at any p: the
    absolute sphere moment of |theta^w|^p times an integral of |g|^p.  Both
    absolute values matter: phi' < 0 on the band, and a negative base to a
    non-integer power is NaN; and an odd exponent must not zero the moment.

    What remains is one integral in r of r^(d-1) times that sum over the
    band 1/2 <= r <= 1, where every derivative of phi lives.  It runs on a
    Gauss-Legendre panel-doubling ladder from 4 panels until two levels
    agree to 1e-13 relative.  alpha = 0 adds the plateau r < 1/2, where
    psi_1 = 1: |S^(d-1)| / (d 2^d).

    An integrand that overflows, or a modulus that is not finite and
    positive, raises :class:`QuadratureNotConverged`.  M_(e_d) overflows
    for every even p >= 488 (d = 1, 2, 3), and a table computes it (one
    term, so one composition) before any modulus of two terms, whose
    expansion has p + 1 compositions; so a large p raises before it could
    loop long.
    """
    alpha = tuple(int(a) for a in alpha)
    d, order_alpha = len(alpha), sum(alpha)
    terms = _bell_terms(alpha)
    even = p % 2 == 0
    if even:
        p = int(p)
        expansion = []
        for n in _compositions(p, len(terms)):
            beta = [sum(nt * w[j] for nt, (_, _, w) in zip(n, terms))
                    for j in range(d)]
            log_multinomial = math.lgamma(p + 1) - sum(math.lgamma(nt + 1)
                                                       for nt in n)
            weight = _sphere_moment(beta, log_multinomial)
            if weight:
                expansion.append((weight, n))
    else:
        (_, _, w), = terms
        expansion = [(_sphere_moment([p * b for b in w], absolute=True), (p,))]

    def radial(pts):
        r = pts[:, 0]
        u = r * r
        g = [c * (2.0 * r) ** sum(w) * profile_eval(u, m)
             for m, c, w in terms]
        if not even:
            g = [np.abs(gt) for gt in g]
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
        rel_tol=_EXACT_REL_TOL, start_panels=4, max_doublings=_MAX_DOUBLINGS,
    )
    if not order_alpha:
        value += _sphere_moment((0,) * d) / (d * 2.0 ** d)
    if not (math.isfinite(value) and value > 0.0):
        raise QuadratureNotConverged(
            f"M_{alpha} at p={p} is {value}, outside the double range")
    return value, panels, err


def reference_moduli(params):
    """Compute the full M_alpha table for ``params`` deterministically.

    The path depends on ``params.p`` and |alpha|.  At an even integer p
    every class, and at any p every class with |alpha| <= 1, takes the
    radial path of :func:`_radial_modulus`: closed-form sphere moments
    (Folland) and one radial Gauss-Legendre ladder from 4 panels, stopped
    when two levels agree to 1e-13 relative.  So a k = 1 table never runs
    the box.  A class with |alpha| >= 2 at any other p, where phi'' and
    phi''' change sign on the band, takes the adaptive box quadrature of
    :func:`integrate_partial_power` over [0, 1]^d from 1 panel per axis,
    stopped at 1e-8 relative (``_REL_TOL``, recorded as the table's
    ``rel_tol``).  Either ladder raises :class:`QuadratureNotConverged`
    after 6 doublings (``_MAX_DOUBLINGS``), or at the first level whose
    integrand overflows, naming the class and the table's (k, p, d).

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
                if params.p % 2 == 0 or sum(alpha) <= 1:
                    by_class[rep] = _radial_modulus(alpha, params.p)
                else:
                    by_class[rep] = integrate_partial_power(
                        alpha, params.p, 1.0, rel_tol=_REL_TOL,
                        max_doublings=_MAX_DOUBLINGS)
            except QuadratureNotConverged as exc:
                raise QuadratureNotConverged(
                    f"class {rep} of the (k, p, d) = ({params.k}, "
                    f"{params.p!r}, {params.d}) table: {exc}") from None
        value, n_panels, err = by_class[rep]
        table[alpha] = value
        panels[alpha] = n_panels
        errs[alpha] = err
    return ReferenceModuli(params=params, table=table, panels=panels,
                           est_error=errs, rel_tol=_REL_TOL)


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
    return _radial_modulus((0,) * d, 2)[0]


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
_META_FIELDS = {"panels": int, "err": float.fromhex}


def _multi_index(cells, seen, lineno):
    alpha = tuple(int(v) for v in cells)
    if alpha in seen:
        raise ValueError(f"multi-index {alpha} repeats line {seen[alpha]}")
    seen[alpha] = lineno
    return alpha


def load_moduli(path):
    """Read a :func:`save_moduli` file back bit-exactly.

    Its comment lines make one header record and each ``# meta`` line its
    own (:func:`sobolab.geometry._header_record`).  A malformed record or
    row, a missing or repeated multi-index (naming both lines), one outside
    the header's (k, d), or a negative or non-finite modulus raises
    :class:`MalformedInput` naming the file and line.
    """
    header, meta, meta_line, table, row_line = {}, {}, {}, {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("# meta "):
                    tokens = line[len("# meta "):].split()
                    alpha = _multi_index([t for t in tokens if "=" not in t],
                                         meta_line, lineno)
                    meta[alpha] = _header_record(path, lineno, tokens,
                                                 _META_FIELDS)
                elif line.startswith("#"):
                    _header_record(path, lineno, line[1:].split(),
                                   _HEADER_FIELDS, required=(), record=header)
                else:
                    *cells, cell = line.split()
                    alpha = _multi_index(cells, row_line, lineno)
                    value = float.fromhex(cell)
                    if not (math.isfinite(value) and value >= 0.0):
                        raise ValueError(f"modulus {value} is not finite and >= 0")
                    table[alpha] = value
            except (ValueError, OverflowError) as exc:
                raise MalformedInput(
                    f"{path}: line {lineno}: malformed record {line!r} ({exc})"
                ) from None
    for key in ("k", "p", "d"):
        if key not in header:
            raise MalformedInput(f"{path}: header lacks {key}=")
    params = header["params"]
    want = set(multi_indices(params.d, params.k))
    for alpha, lineno in [*meta_line.items(), *row_line.items()]:
        if alpha not in want:
            raise MalformedInput(
                f"{path}: line {lineno}: multi-index {alpha} does not fit "
                f"k={params.k}, d={params.d}"
            )
    if want - set(table):
        raise MalformedInput(
            f"{path}: no modulus for multi-index {min(want - set(table))}"
        )
    return ReferenceModuli(
        params=params, table=table,
        panels={alpha: m["panels"] for alpha, m in meta.items()},
        est_error={alpha: m["err"] for alpha, m in meta.items()},
        rel_tol=header.get("rel_tol", _REL_TOL))
