"""Randomized checks of the local oscillation (Morrey-type) bound.

:func:`morrey_check` draws random disjointly supported bump sums and checks
how far each oscillates within a ball against its local Sobolev norm there.
In d = k = 1 it checks the exact Hoelder inequality, and in any other
setting it runs a boundedness diagnostic across a grid of ball radii.

The exact variant draws ``MORREY_BLOCK`` trials at a time and checks each
block as one batch (:func:`morrey_exact_batch`).  Disjoint supports split
each trial's integral of |u'|^p into one integral per bump, which the bump
scaling law turns into a profile integral over the part of the band
1/2 <= |x - c| / r <= 1 in the trial's interval.  That integrand depends
on p alone, so the band is integrated once per p on fixed equal panels
(:func:`_band_table`).  A band piece adds the panels that lie inside it
from the table and runs the Gauss-Legendre halving ladder
(:func:`_ladder`) only on the partial panels at its ends.  Each piece's
value depends on its own ends and the table alone, so every trial gets
the same bits alone as in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import geometry, quadrature
from .bump import BumpSum, _sum_over_pairs, multi_indices, profile_eval
from .errors import (
    ConfigInvalid,
    InvalidRange,
    MalformedInput,
    MismatchedLengths,
    NonpositiveRadius,
    QuadratureNotConverged,
)
from .geometry import _sq_norm

# Trials that morrey_check draws and checks at once; it bounds the node
# arrays of the partial panels' ladder and the temporaries of
# bump._band_derivatives on them.  For the 500 trials of morrey_d1 (p =
# 1.25, seed 780228) the traced peak of a check is about 0.06 MB per block
# of 16, against 1.1 MB for all 500 in one batch.
MORREY_BLOCK = 16
# Equal panels of the band 1/2 <= s <= 1 in the table of each p; 8 to 64
# ran alike in morrey_d1, 128 slower.
_BAND_PANELS = 32
# Halvings of each table panel or partial piece before the Morrey ladder
# gives up.
_MORREY_HALVINGS = 6
# Two successive levels of a band piece agree to this, relative.
_MORREY_REL_TOL = 1e-10
# The range of ball radii delta that morrey_check draws from (exact) or
# grids geometrically (diagnostic).
_DELTA_RANGE = (0.01, 0.75)


@dataclass
class MorreyReport:
    variant: str
    trials: int
    violations: list = field(default_factory=list)
    ratio_coarse_max: float = math.nan
    ratio_fine_max: float = math.nan

    @property
    def passed(self):
        if self.variant == "exact":
            return not self.violations
        return self.ratio_fine_max <= 10.0 * self.ratio_coarse_max


def _random_bump_sum(rng, d):
    """One to five disjointly supported random bumps inside [-1, 1]^d."""
    m = int(rng.integers(1, 6))
    while True:
        centers = rng.uniform(-1.0, 1.0, size=(m, d))
        nn_sq = geometry._nn_sq_dists(centers)
        if m == 1:
            radii = np.array([rng.uniform(0.1, 0.5)])
            break
        if np.min(nn_sq) > 0:
            radii = rng.uniform(0.3, 0.999, size=m) * np.sqrt(nn_sq) / 2.0
            break
    weights = rng.normal(0.0, 2.0, size=m)
    return BumpSum(centers=centers, radii=radii, weights=weights, _nn_sq=nn_sq)


def _morrey_inputs(sums, x0, x1, delta, p):
    """One batch's inputs, checked: arrays x0, x1, delta and a float p."""
    p = float(p)
    if not (math.isfinite(p) and p >= 1.0):
        raise InvalidRange(f"p must lie in [1, inf), got {p}")
    x0, x1, delta = (np.array(v, dtype=float).reshape(-1)
                     for v in (x0, x1, delta))
    if not len(sums) == len(x0) == len(x1) == len(delta):
        raise MismatchedLengths("sums, x0, x1 and delta must align")
    if not all(u.dim == 1 for u in sums):
        raise MismatchedLengths("the exact Morrey check takes bump sums in d = 1")
    for name, v in (("x0", x0), ("x1", x1), ("delta", delta)):
        if not np.isfinite(v).all():
            raise MalformedInput(f"{name} must be finite")
    if not np.all(delta > 0.0):
        raise NonpositiveRadius("delta must be positive")
    return x0, x1, delta, p


def _ladder(lo, hi, p):
    """The integral of |2 s phi'(s^2)|^p over each piece [lo_i, hi_i], and
    the index of the first piece not converged, or None.

    Every piece runs the same Gauss-Legendre halving ladder, 2^level equal
    panels at each level, and stops at the first level that agrees with
    the one before to ``_MORREY_REL_TOL``; so its value depends on its own
    ends alone.  A piece still live after ``_MORREY_HALVINGS`` halvings
    keeps the value 0.
    """
    integrals = np.zeros(len(lo))
    live, prev = np.arange(len(lo)), None
    width = hi - lo
    for level in range(_MORREY_HALVINGS + 1):
        if not live.size:
            break
        steps = np.linspace(0.0, 1.0, (1 << level) + 1)
        edges = lo[live, None] + width[live, None] * steps
        nodes, wts = quadrature.rule_from_panels(edges[:, :-1].ravel(),
                                                 edges[:, 1:].ravel())
        # 2 s phi'(s^2): the nodes are offsets already, scaled by r
        slope = profile_eval(nodes * nodes, 1) * (2.0 * nodes)
        cur = (np.abs(slope) ** p * wts).reshape(len(live), -1).sum(axis=1)
        if level:
            done = (np.abs(cur - prev)
                    <= _MORREY_REL_TOL * np.maximum(abs(cur), 1e-300))
            integrals[live[done]] = cur[done]
            live, cur = live[~done], cur[~done]
        prev = cur
    return integrals, (int(live[0]) if live.size else None)


# a sweep reads one p; the bound keeps a process that meets many from
# holding every table
@lru_cache(maxsize=16)
def _band_table(p):
    """(edges, integrals) of the band 1/2 <= s <= 1 cut into ``_BAND_PANELS``
    equal panels, each through :func:`_ladder`; read-only, one per p.

    Raises :class:`QuadratureNotConverged`, naming p and the panel, if a
    panel does not converge.
    """
    edges = np.linspace(0.5, 1.0, _BAND_PANELS + 1)
    table, failed = _ladder(edges[:-1], edges[1:], p)
    if failed is not None:
        raise QuadratureNotConverged(
            f"Morrey band table at p = {p!r}: panel "
            f"[{float(edges[failed])!r}, {float(edges[failed + 1])!r}] not "
            f"converged to rel {_MORREY_REL_TOL:g} after "
            f"{1 << _MORREY_HALVINGS} panels"
        )
    edges.flags.writeable = False
    table.flags.writeable = False
    return edges, table


def morrey_exact_batch(sums, x0, x1, delta, p):
    """(lhs, rhs) of the exact-variant check for each trial, in trial order.

    Trial t checks, for the d = 1 bump sum u = ``sums[t]``,

        |u(x1) - u(x0)|^p <= (2 delta)^(p-1) integral_{B(x0, 2 delta)} |u'|^p,

    the Hoelder route through the fundamental theorem of calculus.  The
    supports are disjoint and u' vanishes off the bands, so by the bump
    scaling law bump i adds |w_i|^p r_i^(1-p) integral |2 s phi'(s^2)|^p ds
    over the part of its band 1/2 <= s = |x - c_i| / r_i <= 1 inside
    [x0 - 2 delta, x0 + 2 delta]: at most one piece [lo, hi] per side.

    :func:`_band_table` holds the integral over each of ``_BAND_PANELS``
    equal panels of the band at this p.  A piece adds the panels that lie
    inside it from the table, and runs the halving ladder :func:`_ladder`
    on the rest: [lo, first edge] and [last edge, hi] where these are not
    empty, or the whole piece when no panel fits in it; a whole band
    [1/2, 1] runs no ladder at all.  Each piece's terms are summed left to
    right, all of them positive, so the sum keeps their relative accuracy;
    a difference of prefix sums would cancel: at p = 1.25 the band
    integrates to about 1.35, and its first and last panels hold about
    5e-25 and 1e-12.  A piece's value depends on its ends and the table
    alone, so a trial gets the same bits alone as in any batch.

    Raises :class:`QuadratureNotConverged` if six halvings do not get a
    panel of the table, naming p and the panel, or a partial piece, naming
    the interval of the first such trial.
    """
    x0, x1, delta, p = _morrey_inputs(sums, x0, x1, delta, p)
    m = len(sums)
    if not m:
        return []
    centers = np.concatenate([u.centers for u in sums])
    radii = np.concatenate([u.radii for u in sums])
    weights = np.concatenate([u.weights for u in sums])
    owner = np.repeat(np.arange(m), [u.n for u in sums])

    def own_supports(pts):
        """(bump, point, u) of point t and t + m with the bumps of trial t
        whose open support holds them, in bump order, as BumpSum pairs."""
        bump = np.tile(np.arange(len(owner)), 2)
        point = np.concatenate([owner, owner + m])
        u = _sq_norm(np.take(pts, point, axis=0),
                     np.take(centers, bump, axis=0), radii[bump])
        inside = u < 1.0
        return bump[inside], point[inside], u[inside]

    at = _sum_over_pairs((0,), centers, radii, weights,
                         np.concatenate([x1, x0])[:, None], own_supports)
    lhs = [abs(float(at[t]) - float(at[m + t])) ** p for t in range(m)]

    # each bump's band pieces in s = (c - x) / r on its left, then in
    # s = (x - c) / r on its right, in trial order
    a, b = x0 - 2.0 * delta, x0 + 2.0 * delta
    near = (centers[:, 0] - b[owner]) / radii
    far = (centers[:, 0] - a[owner]) / radii
    lo = np.maximum(np.stack([near, -far], axis=1).ravel(), 0.5)
    hi = np.minimum(np.stack([far, -near], axis=1).ravel(), 1.0)
    keep = lo < hi
    lo, hi, holder = lo[keep], hi[keep], owner.repeat(2)[keep]
    # |w|^p r^(1-p), powered once so that no factor underflows alone
    scale = ((np.abs(weights) * radii ** (1.0 / p - 1.0)) ** p).repeat(2)[keep]
    # a piece [lo, hi] adds the table's panels that lie inside it and runs
    # the ladder on the rest: a partial panel at either end, or the whole
    # piece when no panel fits in it.  Partial pieces run in piece order,
    # so the first failure names the first such trial
    edges, table = _band_table(p)
    full = (edges[:-1] >= lo[:, None]) & (edges[1:] <= hi[:, None])
    inner = full.any(axis=1)
    # the outer edges of the panels inside each piece, or hi where none fits
    first = np.where(inner, edges[full.argmax(axis=1)], hi)
    last = np.where(inner, edges[len(table) - full[:, ::-1].argmax(axis=1)],
                    hi)
    ends_lo = np.stack([lo, last], axis=1)
    ends_hi = np.stack([first, hi], axis=1)
    has = ends_lo < ends_hi
    parts, failed = _ladder(ends_lo[has], ends_hi[has], p)
    if failed is not None:
        t = holder[np.flatnonzero(has)[failed] // 2]
        raise QuadratureNotConverged(
            f"Morrey integral over [{float(a[t])!r}, {float(b[t])!r}] not "
            f"converged to rel {_MORREY_REL_TOL:g} after "
            f"{1 << _MORREY_HALVINGS} panels"
        )
    ends = np.zeros(has.shape)
    ends[has] = parts
    # one left-to-right sum of positive terms per piece: its left end, the
    # full panels, its right end
    terms = np.column_stack([ends[:, 0], np.where(full, table, 0.0),
                             ends[:, 1]])
    integrals = np.cumsum(terms, axis=1)[:, -1]
    totals = np.bincount(holder, weights=scale * integrals, minlength=m)
    return [(lhs[t], (2.0 * d) ** (p - 1.0) * float(totals[t]))
            for t, d in enumerate(delta.tolist())]


def morrey_exact_trial(u, x0, x1, delta, p):
    """(lhs, rhs) of one exact-variant check: :func:`morrey_exact_batch` on
    a batch of one trial, so it gets the bits of any batch."""
    (lhs, rhs), = morrey_exact_batch([u], [x0], [x1], [delta], p)
    return lhs, rhs


def _local_sobolev_norm_p(u, x0, delta, params, indices):
    """||u||^p_{W^{k,p}(B(x0, 2 delta))} by masked box quadrature.

    Diagnostic-grade: the ball indicator is discontinuous on the box, so
    accuracy is a few decimal digits, far inside the 10x slack it feeds.
    """
    d = params.d
    bounds = [(x0[j] - 2.0 * delta, x0[j] + 2.0 * delta) for j in range(d)]
    total = 0.0
    for alpha in indices:
        def f(pts, alpha=alpha):
            inside = np.linalg.norm(pts - x0, axis=1) <= 2.0 * delta
            return np.abs(u.partial(alpha, pts)) ** params.p * inside
        total += quadrature.integrate_box(f, bounds, panels=24,
                                          order=10) ** (1.0 / params.p)
    return total ** params.p


def _morrey_draw(rng):
    """One exact-variant trial: a bump sum, x0, delta and x1, drawn in this
    order."""
    u = _random_bump_sum(rng, 1)
    x0 = float(rng.uniform(-1.5, 1.5))
    delta = float(rng.uniform(*_DELTA_RANGE))
    x1 = x0 + float(rng.uniform(-1.0, 1.0)) * delta
    return u, x0, x1, delta


def morrey_check(params, trials, seed):
    """Randomized verification of the local oscillation bound.

    d = 1, k = 1: the exact Hoelder inequality with 1e-9 slack, zero
    violations expected.  The trials are drawn ``MORREY_BLOCK`` at a time,
    in the order of one trial after another, and each block goes through
    :func:`morrey_exact_batch` as one batch.  Otherwise: a boundedness
    diagnostic of the ratio |u(x1)-u(x0)|^p / (delta^(kp-d)
    ||u||^p_{local}) across a delta grid.
    """
    if (not isinstance(trials, (int, np.integer)) or isinstance(trials, bool)
            or trials < 1):
        raise ConfigInvalid(f"trials: need at least 1, got {trials!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x30]))
    if params.d == 1 and params.k == 1:
        report = MorreyReport(variant="exact", trials=trials)
        for start in range(0, trials, MORREY_BLOCK):
            draws = [_morrey_draw(rng)
                     for _ in range(start, min(start + MORREY_BLOCK, trials))]
            sums, x0s, x1s, deltas = zip(*draws)
            checked = morrey_exact_batch(sums, x0s, x1s, deltas, params.p)
            for t, (lhs, rhs), (_, x0, x1, delta) in zip(
                    range(start, trials), checked, draws):
                if lhs > rhs + 1e-9:
                    report.violations.append(
                        {"trial": t, "lhs": lhs, "rhs": rhs, "x0": x0,
                         "x1": x1, "delta": delta})
        return report

    report = MorreyReport(variant="diagnostic", trials=trials)
    indices = multi_indices(params.d, params.k)
    deltas = np.geomspace(*_DELTA_RANGE, 16)
    ratios = np.zeros(len(deltas))
    exponent = params.k * params.p - params.d
    for t in range(trials):
        u = _random_bump_sum(rng, params.d)
        for i, delta in enumerate(deltas):
            x0 = rng.uniform(-1.0, 1.0, size=params.d)
            step = rng.uniform(-1.0, 1.0, size=params.d)
            step *= float(rng.uniform(0, delta)) / max(np.linalg.norm(step), 1e-12)
            x1 = x0 + step
            osc = abs(u(x1[None, :]) - u(x0[None, :]))[0] ** params.p
            local = _local_sobolev_norm_p(u, x0, float(delta), params, indices)
            if local > 0:
                ratios[i] = max(ratios[i], osc / (delta ** exponent * local))
    half = len(deltas) // 2
    report.ratio_fine_max = float(np.max(ratios[:half]))
    report.ratio_coarse_max = float(np.max(ratios[half:]))
    return report
