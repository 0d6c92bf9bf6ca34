"""Panelized Gauss-Legendre quadrature on intervals and boxes.

The tensor-product driver refines by doubling the panel count per axis until
two successive estimates agree to a relative tolerance.  Integrands are
smooth compactly-supported bump derivatives, for which this converges fast;
a hard refinement cap turns non-convergence into an explicit error instead
of a silent bad number.

Evaluation is chunked so whole grids never materialize beyond a fixed
memory budget, and every accumulation happens in a fixed order, making
results deterministic and independent of chunk-level parallelism.
"""

from __future__ import annotations

from functools import lru_cache
from math import isfinite, prod

import numpy as np

from .errors import QuadratureNotConverged

GL_ORDER = 16
_CHUNK = 1 << 18


@lru_cache(maxsize=None)
def _gl_nodes(order):
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def rule_from_panels(lo, hi, order=GL_ORDER):
    """One Gauss-Legendre panel on each [lo_i, hi_i]; ``order`` nodes per
    panel, panel by panel.  Each node depends on its own panel only."""
    x, w = _gl_nodes(order)
    lo = np.asarray(lo, dtype=float)[:, None]
    half = 0.5 * (np.asarray(hi, dtype=float)[:, None] - lo)
    nodes = (lo + half + half * x).ravel()
    weights = (half * w).ravel()
    return nodes, weights


def integrate_box(f, bounds, panels, order=GL_ORDER):
    """Integrate ``f`` over the box ``bounds`` = [(a_1, b_1), ...].

    ``f`` maps an (m, d) array of points to (m,) values.  The tensor grid is
    consumed in fixed-size chunks in a fixed order.
    """
    edges = [np.linspace(a, b, panels + 1) for a, b in bounds]
    axes = [rule_from_panels(e[:-1], e[1:], order=order) for e in edges]
    sizes = [len(x) for x, _ in axes]
    total = prod(sizes)
    d = len(bounds)
    acc = 0.0
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total))
        multi = np.unravel_index(flat, sizes)
        pts = np.stack([axes[j][0][multi[j]] for j in range(d)], axis=-1)
        wts = axes[0][1][multi[0]].copy()
        for j in range(1, d):
            wts *= axes[j][1][multi[j]]
        acc += float(np.sum(f(pts) * wts))
    return acc


def graded_rule(breaks, panels):
    """Gauss-Legendre nodes and weights with ``panels`` equal panels on each
    piece between consecutive ``breaks``.

    A panel [b, b + h] or [b - h, b] next to an interior break b takes
    x = b +- h t^4, t on [0, 1], which clusters its nodes at b: an
    integrand that behaves like |x - b|^q there becomes 4 h^(q+1) t^(4q+3),
    smooth enough for the rule.  With no interior break it is
    :func:`integrate_box`'s rule on one interval, node for node.
    """
    t, w = _gl_nodes(GL_ORDER)
    t = 0.5 + 0.5 * t
    nodes, weights = [], []
    for i, (lo, hi) in enumerate(zip(breaks[:-1], breaks[1:])):
        edges = np.linspace(lo, hi, panels + 1)
        x, wx = rule_from_panels(edges[:-1], edges[1:])
        h = edges[1] - edges[0]
        if i > 0:
            x[:GL_ORDER] = lo + h * t ** 4
            wx[:GL_ORDER] = 2.0 * h * t ** 3 * w
        if i < len(breaks) - 2:
            x[-GL_ORDER:] = hi - h * t ** 4
            wx[-GL_ORDER:] = 2.0 * h * t ** 3 * w
        nodes.append(x)
        weights.append(wx)
    return np.concatenate(nodes), np.concatenate(weights)


def refine(estimate, rel_tol, start_panels=1, max_doublings=6,
           unit="panels"):
    """The panel-doubling ladder; returns (value, panels, est_error).

    ``estimate(panels)`` runs at ``start_panels``, twice as many, and so on,
    until two successive levels agree to ``rel_tol`` in relative terms
    (absolute terms for integrals indistinguishable from zero).  Raises
    :class:`QuadratureNotConverged` after ``max_doublings`` doublings, or
    at the first level whose value is not finite: an integrand that
    overflows can never converge.
    """
    prev = None
    for level in range(max_doublings + 1):
        panels = start_panels << level
        cur = estimate(panels)
        if not isfinite(cur):
            raise QuadratureNotConverged(
                f"integral is {cur} at {panels} {unit}: the integrand "
                f"overflows the double range")
        if prev is not None:
            err = abs(cur - prev)
            if err <= rel_tol * max(abs(cur), 1e-300):
                return cur, panels, err
        prev = cur
    raise QuadratureNotConverged(
        f"no convergence to rel {rel_tol:g} after {panels} {unit}")


def adaptive_box(f, bounds, rel_tol=1e-8, start_panels=1, max_doublings=6):
    """Panel-doubling tensor quadrature on the :func:`refine` ladder;
    returns (value, panels, est_error)."""
    unit = "panels per axis" if len(bounds) > 1 else "panels"
    return refine(lambda panels: integrate_box(f, bounds, panels), rel_tol,
                  start_panels, max_doublings, unit)
