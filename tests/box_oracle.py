"""Tensor Gauss-Legendre box quadrature of |D^alpha psi_delta|^p: the
oracle for the reference moduli and for the scaling identity.

It evaluates the integrand at the requested delta over [0, delta]^d, with
no use of the polar reduction or of the change of variables that the
moduli rest on.
"""

import numpy as np

from sobolab import quadrature
from sobolab.bump import bump_partial


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
    """Adaptive quadrature of integral |D^alpha psi_delta|^p over R^d;
    returns (value, panels per axis, est_error)."""
    integrand, box = _partial_power_box(alpha, p, delta)
    value, panels, err = quadrature.adaptive_box(
        integrand, box, rel_tol=rel_tol,
        start_panels=1, max_doublings=max_doublings,
    )
    scale = 2.0 ** len(box)
    return scale * value, panels, scale * err


def integrate_partial_power_fixed(alpha, p, delta, panels):
    """Like :func:`integrate_partial_power` but at a fixed panel count per
    axis, independent of how any moduli table was built."""
    integrand, box = _partial_power_box(alpha, p, delta)
    return 2.0 ** len(box) * quadrature.integrate_box(integrand, box, panels)
