"""One-dimensional Gauss-Legendre rule of the test oracles.

:func:`integrate_1d` puts one 16-node panel between each pair of
breakpoints.  ``tests/morrey_oracle.py`` halves its panels into a ladder,
and the model and risk tests integrate radial polynomials with it
exactly.
"""

import numpy as np

from sobolab.quadrature import rule_from_panels


def integrate_1d(f, breaks):
    """Integrate ``f`` with one Gauss-Legendre panel between each pair of
    consecutive breakpoints."""
    breaks = np.asarray(breaks, dtype=float)
    nodes, weights = rule_from_panels(breaks[:-1], breaks[1:])
    return float(np.sum(f(nodes) * weights))
