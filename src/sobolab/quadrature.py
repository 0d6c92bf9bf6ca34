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


def composite_rule(a, b, panels, order=GL_ORDER):
    """Nodes and weights for ``panels`` equal Gauss-Legendre panels on [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    return rule_from_breakpoints(edges, order=order)


def rule_from_breakpoints(breaks, order=GL_ORDER):
    """One Gauss-Legendre panel between each pair of consecutive breakpoints."""
    breaks = np.asarray(breaks, dtype=float)
    x, w = _gl_nodes(order)
    lo = breaks[:-1, None]
    hi = breaks[1:, None]
    half = 0.5 * (hi - lo)
    nodes = (lo + half + half * x).ravel()
    weights = (half * w).ravel()
    return nodes, weights


def integrate_1d(f, breaks, order=GL_ORDER):
    nodes, weights = rule_from_breakpoints(breaks, order=order)
    return float(np.sum(f(nodes) * weights))


def integrate_box(f, bounds, panels, order=GL_ORDER, chunk=_CHUNK):
    """Integrate ``f`` over the box ``bounds`` = [(a_1, b_1), ...].

    ``f`` maps an (m, d) array of points to (m,) values.  The tensor grid is
    consumed in fixed-size chunks in a fixed order.
    """
    axes = [composite_rule(a, b, panels, order=order) for a, b in bounds]
    sizes = [len(x) for x, _ in axes]
    total = prod(sizes)
    d = len(bounds)
    acc = 0.0
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        multi = np.unravel_index(flat, sizes)
        pts = np.stack([axes[j][0][multi[j]] for j in range(d)], axis=-1)
        wts = axes[0][1][multi[0]].copy()
        for j in range(1, d):
            wts *= axes[j][1][multi[j]]
        acc += float(np.sum(f(pts) * wts))
    return acc


def adaptive_box(f, bounds, rel_tol=1e-8, start_panels=1, max_doublings=6,
                 order=GL_ORDER):
    """Panel-doubling tensor quadrature; returns (value, panels, est_error).

    Converged once two successive refinements agree to ``rel_tol`` in
    relative terms (absolute terms for integrals indistinguishable from
    zero).  Raises :class:`QuadratureNotConverged` when the cap is hit, or
    at the first level whose sum is not finite: an integrand that overflows
    can never converge.
    """
    per_axis = " per axis" if len(bounds) > 1 else ""
    prev = None
    for level in range(max_doublings + 1):
        panels = start_panels << level
        cur = integrate_box(f, bounds, panels, order=order)
        if not isfinite(cur):
            raise QuadratureNotConverged(
                f"integral is {cur} at {panels} panels{per_axis}: the "
                f"integrand overflows the double range")
        if prev is not None:
            err = abs(cur - prev)
            if err <= rel_tol * max(abs(cur), 1e-300):
                return cur, panels, err
        prev = cur
    raise QuadratureNotConverged(
        f"no convergence to rel {rel_tol:g} after {panels} panels{per_axis}"
    )
