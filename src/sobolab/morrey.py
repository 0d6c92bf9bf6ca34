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
band 1/2 <= |x - c| / r <= 1 in the trial's interval.  Each piece is
:func:`sobolab.bump.band_integrals`'s, as for the semi-analytic risk, and
depends on its own ends alone, so every trial gets the same bits alone
(:func:`morrey_exact_trial`) as in any block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, quadrature
from .bump import BumpSum, _sum_over_pairs, band_integrals, multi_indices
from .errors import (
    ConfigInvalid,
    InvalidRange,
    MalformedInput,
    MismatchedLengths,
    NonpositiveRadius,
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
    :func:`morrey_exact_trial` make, with their error classes: finite
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


def _exact_block(centers, radii, weights, owner, x0, x1, delta, p):
    """(lhs, rhs) of the exact-variant check for each of the m = len(x0)
    trials of checked flat arrays, in trial order; ``owner`` names the
    trial of each bump, in trial order.

    Trial t checks, for the d = 1 bump sum u of its bumps,

        |u(x1) - u(x0)|^p <= (2 delta)^(p-1) integral_{B(x0, 2 delta)} |u'|^p,

    the Hoelder route through the fundamental theorem of calculus.  The
    supports are disjoint and u' vanishes off the bands, so by the bump
    scaling law bump i adds |w_i|^p r_i^(1-p) times the integral of
    |2 s phi'(s^2)|^p over its band pieces in [x0 - 2 delta, x0 + 2 delta]
    (:func:`~sobolab.bump.band_integrals`, which raises
    :class:`~sobolab.errors.QuadratureNotConverged` naming p and a table
    panel, or the interval of the first trial, that does not converge).
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

    a, b = x0 - 2.0 * delta, x0 + 2.0 * delta
    bump, integrals = band_integrals("Morrey", centers[:, 0], radii,
                                     a[owner], b[owner], p)
    # |w|^p r^(1-p), powered once so that no factor underflows alone
    scale = (np.abs(weights) * radii ** (1.0 / p - 1.0)) ** p
    totals = np.bincount(owner[bump], weights=scale[bump] * integrals,
                         minlength=m)
    return [(lhs[t], (2.0 * d) ** (p - 1.0) * float(totals[t]))
            for t, d in enumerate(delta.tolist())]


def morrey_exact_trial(u, x0, x1, delta, p):
    """(lhs, rhs) of one exact-variant check of the d = 1 bump sum ``u``,
    checked as :func:`_draw_block` checks a block: :func:`_exact_block` on
    a block of one trial, so it gets the bits of any block."""
    p = _checked_p(p)
    if u.dim != 1:
        raise MismatchedLengths("the exact Morrey check takes bump sums in d = 1")
    x0, x1, delta = (np.array([v], dtype=float) for v in (x0, x1, delta))
    _check_balls(x0, x1, delta)
    return _exact_block(u.centers, u.radii, u.weights,
                        np.zeros(u.n, dtype=np.intp), x0, x1, delta, p)[0]


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
            inside = np.sqrt(_sq_norm(pts - x0)) <= 2.0 * delta
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
            length = math.sqrt(float(_sq_norm(step)))
            step *= float(rng.uniform(0, delta)) / max(length, 1e-12)
            x1 = x0 + step
            osc = abs(u(x1[None, :]) - u(x0[None, :]))[0] ** params.p
            local = _local_sobolev_norm_p(u, x0, float(delta), params, indices)
            if local > 0:
                ratios[i] = max(ratios[i], osc / (delta ** exponent * local))
    half = len(deltas) // 2
    report.ratio_fine_max = float(np.max(ratios[:half]))
    report.ratio_coarse_max = float(np.max(ratios[half:]))
    return report
