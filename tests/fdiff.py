"""Finite-difference oracle for exact derivatives."""

import numpy as np

# 6th-order central first-derivative stencil
_D1 = {-3: -1 / 60, -2: 3 / 20, -1: -3 / 4, 1: 3 / 4, 2: -3 / 20, 3: 1 / 60}


def fd_partial(fn, x, axes, h=1e-3):
    """High-order central differences, one stencil per differentiated axis,
    followed by one Richardson step (the oracle for exact partials)."""

    def apply(g, axis, step):
        def out(y):
            acc = 0.0
            for off, c in _D1.items():
                z = y.copy()
                z[axis] += off * step
                acc += c * g(z)
            return acc / step
        return out

    def estimate(step):
        g = fn
        for axis in axes:
            g = apply(g, axis, step)
        return g(np.asarray(x, dtype=float))

    a, b = estimate(h), estimate(h / 2)
    return (64.0 * b - a) / 63.0
