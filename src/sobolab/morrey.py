"""Randomized checks of the local oscillation (Morrey-type) bound.

:func:`morrey_check` draws random disjointly supported bump sums and checks
how far each oscillates within a ball against its local Sobolev norm there.
In d = k = 1 it checks the exact Hoelder inequality, and in any other
setting it runs a boundedness diagnostic across a grid of ball radii.

The exact variant draws ``MORREY_BLOCK`` trials at a time straight into
flat arrays (:func:`_draw_block`), each quantity of every trial in the
block from one generator call, with no bump-sum object per trial, and
checks each block as one batch (:func:`_exact_block`).  Disjoint supports
split each trial's integral of |u'|^p into one integral per bump, which
the bump scaling law turns into a profile integral over the part of the
band 1/2 <= |x - c| / r <= 1 in the trial's interval.  That integrand
depends on p alone, so the band is integrated once per p on fixed equal
panels (:func:`_band_table`).  A band piece adds the panels that lie
inside it from the table and runs the Gauss-Legendre halving ladder
(:func:`_ladder`) only on the partial panels at its ends.  Each piece's
value depends on its own ends and the table alone, so every trial gets
the same bits alone as in any batch, from the drawn arrays or from
:class:`~sobolab.bump.BumpSum` objects (:func:`morrey_exact_batch`).
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

# Trials that morrey_check draws and checks at once.  A block draws each
# quantity of all its trials in one generator call and one guard checks
# the flat arrays (_draw_block), so the random stream is set by the seed
# and this block size together.  The block also bounds the node arrays of
# the partial panels' ladder and the temporaries of bump._band_derivatives
# on them.  Each block pays a fixed cost in small numpy calls: the 500
# trials of morrey_d1 (p = 1.25, seed 780228) took 6.4, 3.3, 2.1, 2.2 and
# 2.2 ms in blocks of 32, 128, 256, 512 and 1024 on one core of a 2-core
# x86 host.  Their traced peak is about 1.2 MB in blocks of 512 (0.1 MB in
# blocks of 32).
MORREY_BLOCK = 512
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


def _checked_p(p):
    """p as a float, checked to lie in [1, inf)."""
    p = float(p)
    if not (math.isfinite(p) and p >= 1.0):
        raise InvalidRange(f"p must lie in [1, inf), got {p}")
    return p


def _check_balls(x0, x1, delta):
    """Raise unless the arrays x0, x1 and delta are finite and delta > 0."""
    for name, v in (("x0", x0), ("x1", x1), ("delta", delta)):
        if not np.isfinite(v).all():
            raise MalformedInput(f"{name} must be finite")
    if not np.all(delta > 0.0):
        raise NonpositiveRadius("delta must be positive")


def _morrey_inputs(sums, x0, x1, delta, p):
    """One batch's inputs, checked: arrays x0, x1, delta and a float p."""
    p = _checked_p(p)
    x0, x1, delta = (np.array(v, dtype=float).reshape(-1)
                     for v in (x0, x1, delta))
    if not len(sums) == len(x0) == len(x1) == len(delta):
        raise MismatchedLengths("sums, x0, x1 and delta must align")
    if not all(u.dim == 1 for u in sums):
        raise MismatchedLengths("the exact Morrey check takes bump sums in d = 1")
    _check_balls(x0, x1, delta)
    return x0, x1, delta, p


def _trial_nn_sq(centers, owner):
    """Each centre's squared distance to the nearest other centre of its
    own trial, inf for a bump alone in its trial; ``owner`` names the
    trial of each centre, in trial order.

    One sort by (trial, centre) puts each trial's centres side by side;
    the gap between neighbours in that order, squared, is inf across trial
    boundaries.  These are the bits of :func:`geometry._nn_sq_dists` on
    each trial's column: a - b and b - a differ only in sign, and the
    rounded difference of sorted values is monotone in the gap, so no
    farther centre comes nearer."""
    order = np.lexsort((centers, owner))
    # non-finite centres warn nowhere: the guard raises on them
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.diff(centers[order])
        gap *= gap
    gap[np.diff(owner[order]) != 0] = math.inf
    nearest = np.full(len(centers), math.inf)
    np.minimum(gap, nearest[1:], out=nearest[1:])
    np.minimum(gap, nearest[:-1], out=nearest[:-1])
    nn_sq = np.empty(len(centers))
    nn_sq[order] = nearest
    return nn_sq


def _draw_block(rng, count):
    """``count`` exact-variant trials drawn into flat arrays: (centers,
    radii, weights, owner, x0, x1, delta), centers of shape (bumps, 1) and
    owner the trial of each bump.

    Each quantity is drawn for every trial of the block in one generator
    call, in this order: the bump counts, every centre, the radii of the
    bumps alone in their trial, the other radii, every weight, then x0,
    delta and the step from x0 to x1.  A trial whose nearest-centre gap
    (:func:`_trial_nn_sq`) is 0 redraws its centres, in rounds of one call
    for all such trials, before any radius is drawn.  So each trial has
    the law of :func:`_random_bump_sum` in d = 1 and its ball, and the
    stream depends on the block size.  One guard per block then runs
    every check that :class:`~sobolab.bump.BumpSum` and
    :func:`morrey_exact_batch` make, with their error classes: finite
    centers and weights (:class:`MalformedInput`), finite and positive
    radii (:class:`NonpositiveRadius`), the packing certificate 2 r_i <=
    sqrt(nn_i) of every bump that is not alone in its trial
    (:class:`MismatchedLengths`), finite x0, x1 and delta and delta > 0.
    The certificate is stricter than a bump sum's overlap search, which
    only runs when the certificate fails; the draw always passes it.
    """
    sizes = rng.integers(1, 6, size=count)
    owner = np.repeat(np.arange(count), sizes)
    centers = rng.uniform(-1.0, 1.0, size=len(owner))
    nn_sq = _trial_nn_sq(centers, owner)
    while (nn_sq == 0.0).any():
        redraw = np.isin(owner, owner[nn_sq == 0.0])
        centers[redraw] = rng.uniform(-1.0, 1.0, size=int(redraw.sum()))
        nn_sq = _trial_nn_sq(centers, owner)
    lone = sizes[owner] == 1
    radii = np.empty(len(owner))
    radii[lone] = rng.uniform(0.1, 0.5, size=int(lone.sum()))
    radii[~lone] = (rng.uniform(0.3, 0.999, size=int((~lone).sum()))
                    * np.sqrt(nn_sq[~lone]) / 2.0)
    weights = rng.normal(0.0, 2.0, size=len(owner))
    x0 = rng.uniform(-1.5, 1.5, size=count)
    delta = rng.uniform(*_DELTA_RANGE, size=count)
    x1 = x0 + rng.uniform(-1.0, 1.0, size=count) * delta
    if not (np.isfinite(centers).all() and np.isfinite(weights).all()):
        raise MalformedInput("centers and weights must be finite")
    if not (np.isfinite(radii).all() and np.all(radii > 0.0)):
        raise NonpositiveRadius("all support radii must be finite and positive")
    certified = (lone | np.isfinite(nn_sq)) & (2.0 * radii <= np.sqrt(nn_sq))
    if not certified.all():
        t = int(owner[np.argmin(certified)])
        raise MismatchedLengths(
            f"trial {t}: a support radius exceeds half its nearest-centre gap")
    _check_balls(x0, x1, delta)
    return centers[:, None], radii, weights, owner, x0, x1, delta


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
    """(lhs, rhs) of the exact-variant check for each trial, in trial order:
    the bump sums ``sums`` (d = 1) and their balls, checked and
    concatenated, through :func:`_exact_block`."""
    x0, x1, delta, p = _morrey_inputs(sums, x0, x1, delta, p)
    if not len(sums):
        return []
    centers = np.concatenate([u.centers for u in sums])
    radii = np.concatenate([u.radii for u in sums])
    weights = np.concatenate([u.weights for u in sums])
    owner = np.repeat(np.arange(len(sums)), [u.n for u in sums])
    return _exact_block(centers, radii, weights, owner, x0, x1, delta, p)


def _exact_block(centers, radii, weights, owner, x0, x1, delta, p):
    """(lhs, rhs) of the exact-variant check for each of the m = len(x0)
    trials of checked flat arrays, in trial order; ``owner`` names the
    trial of each bump, in trial order.

    Trial t checks, for the d = 1 bump sum u of its bumps,

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
    m = len(x0)

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
    at = at.tolist()
    lhs = [abs(a - b) ** p for a, b in zip(at, at[m:])]

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


def morrey_check(params, trials, seed):
    """Randomized verification of the local oscillation bound.

    d = 1, k = 1: the exact Hoelder inequality with 1e-9 slack, zero
    violations expected; a NaN on either side, or an infinite right-hand
    side, counts as a violation.  The trials are drawn ``MORREY_BLOCK`` at
    a time into flat arrays (:func:`_draw_block`), one generator call per
    quantity of a block, so the draws depend on the seed and the block
    size; each block is checked as one batch (:func:`_exact_block`).
    Otherwise: a boundedness diagnostic of the ratio |u(x1)-u(x0)|^p /
    (delta^(kp-d) ||u||^p_{local}) across a delta grid, its bump sums
    drawn one trial after another (:func:`_random_bump_sum`).
    """
    if (not isinstance(trials, (int, np.integer)) or isinstance(trials, bool)
            or trials < 1):
        raise ConfigInvalid(f"trials: need at least 1, got {trials!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x30]))
    if params.d == 1 and params.k == 1:
        p = _checked_p(params.p)
        report = MorreyReport(variant="exact", trials=trials)
        for start in range(0, trials, MORREY_BLOCK):
            block = _draw_block(rng, min(MORREY_BLOCK, trials - start))
            x0s, x1s, deltas = (v.tolist() for v in block[4:])
            for t, (lhs, rhs), x0, x1, delta in zip(
                    range(start, trials), _exact_block(*block, p), x0s,
                    x1s, deltas):
                if not lhs <= rhs + 1e-9 < math.inf:
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
