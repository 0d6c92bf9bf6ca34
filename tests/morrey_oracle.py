"""Per-trial oracle for the exact Morrey check in d = k = 1.

The ladder below is the one-trial form that the check ran before it batched
trials: |u'|^p through :meth:`BumpSum.partial` on every node of every
panel, with breakpoints at the support and plateau edges, one
:func:`line_oracle.integrate_1d` per level, halving every panel until two
levels agree to ``rel_tol``, the check's own 1e-10 by default.
The check (``morrey._exact_block``, one trial of it through
``morrey.morrey_exact_trial``) integrates the bump profile over each bump's
band pieces instead (``bump.band_integrals``), so it must give the same
lhs to the bit and the rhs within 1e-9 relative.  ``tests/test_morrey.py``
runs both.
"""

import numpy as np

from line_oracle import integrate_1d
from sobolab.errors import QuadratureNotConverged


def morrey_trial_oracle(u, x0, x1, delta, p, rel_tol=1e-10):
    lhs = abs(u(np.array([x1])) - u(np.array([x0]))) ** p
    a, b = x0 - 2.0 * delta, x0 + 2.0 * delta
    cuts = {a, b}
    for c, r in zip(u.centers[:, 0], u.radii):
        for edge in (c - r, c - r / 2.0, c, c + r / 2.0, c + r):
            if a < edge < b:
                cuts.add(float(edge))
    breaks = np.array(sorted(cuts))

    def f(xs):
        return np.abs(u.partial((1,), xs[:, None])) ** p

    prev = integrate_1d(f, breaks)
    refined = breaks
    for _ in range(6):
        mids = (refined[:-1] + refined[1:]) / 2.0
        refined = np.sort(np.concatenate([refined, mids]))
        cur = integrate_1d(f, refined)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            break
        prev = cur
    else:
        raise QuadratureNotConverged(
            f"Morrey integral over [{a!r}, {b!r}] not converged to rel "
            f"{rel_tol:g} after {len(refined) - 1} panels"
        )
    rhs = (2.0 * delta) ** (p - 1.0) * cur
    return lhs, rhs
