"""Minimum-norm Matern kernel interpolation, the p = 2 baseline.

Matern kernels with smoothness nu = k - d/2 reproduce kernels of Hilbert
spaces norm-equivalent to W^{k,2}(R^d); ridgeless interpolation with them is
the classical kernel-regression route to the same phenomena studied by the
bump construction.  RKHS norms are reported on their own scale and are never
mixed with the bump module's W^{k,p} norms inside a single inequality.

Prediction fills one reused (PREDICT_BLOCK_ROWS, n) buffer per call: the
distances of each block of query points are overwritten in place with their
kernel values, so a call allocates no block-sized temporaries (at n = 1024
each would be a 32 MB array, mapped and unmapped by the allocator on every
block).  The blocks stay 4096 rows because OpenBLAS gemv's result depends
on the row count: shorter blocks would change the last bits of predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist

from .errors import SolveFailed, UnsupportedNu, UnsupportedSpec

RESIDUAL_TOL = 1e-6
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)
DENSE_SOLVE_MAX_N = 4096
PREDICT_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class KernelSpec:
    nu: float
    lengthscale: float = 1.0

    def __post_init__(self):
        if self.nu not in (0.5, 1.5):
            raise UnsupportedNu(f"supported nu values are 1/2 and 3/2, got {self.nu}")
        if not self.lengthscale > 0.0:
            raise UnsupportedNu(f"lengthscale must be positive, got {self.lengthscale}")


def _kernel_inplace(spec, r):
    """Overwrite the distance array ``r`` with its Matern values; returns r."""
    if spec.nu == 0.5:
        # IEEE division is sign-symmetric: r / -l is -(r / l) bit for bit
        np.divide(r, -spec.lengthscale, out=r)
        return np.exp(r, out=r)
    np.divide(r, spec.lengthscale, out=r)
    np.multiply(r, math.sqrt(3.0), out=r)
    e = np.negative(r, out=np.empty_like(r))
    np.exp(e, out=e)
    np.add(r, 1.0, out=r)
    return np.multiply(r, e, out=r)


def kernel_eval(spec, r):
    """Matern kernel value at distance r >= 0; k(0) = 1.  ``r`` is not
    modified."""
    out = _kernel_inplace(spec, np.array(r, dtype=float))
    return float(out) if out.ndim == 0 else out


def kernel_matrix(spec, x, z=None, out=None):
    """k(x_i, z_j); ``out``, if given, is a C-contiguous (len(x), len(z))
    float array that receives the matrix."""
    z = x if z is None else z
    return _kernel_inplace(
        spec, cdist(np.atleast_2d(x), np.atleast_2d(z), out=out))


@dataclass(frozen=True)
class KernelInterpolant:
    """Representer solution u = sum_i c_i k(., x_i) interpolating the data."""

    centers: np.ndarray
    coefficients: np.ndarray
    labels: np.ndarray
    kernel: KernelSpec
    jitter_used: float

    @property
    def n(self):
        return len(self.coefficients)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x.reshape(-1, x.shape[-1])
        out = np.empty(len(pts))
        buf = np.empty((min(PREDICT_BLOCK_ROWS, len(pts)), self.n))
        for start in range(0, len(pts), PREDICT_BLOCK_ROWS):
            stop = min(start + PREDICT_BLOCK_ROWS, len(pts))
            out[start:stop] = kernel_matrix(
                self.kernel, pts[start:stop], self.centers,
                out=buf[:stop - start],
            ) @ self.coefficients
        if single:
            return float(out[0])
        return out.reshape(x.shape[:-1])


def min_norm_interpolant(dataset, spec):
    """Solve K c = y by Cholesky with an escalating jitter ladder.

    The residual contract max_i |u(x_i) - y_i| <= 1e-6 is always measured
    against the exact kernel matrix, so jitter cannot silently trade
    interpolation quality for conditioning.
    """
    if dataset.n > DENSE_SOLVE_MAX_N:
        raise UnsupportedSpec(
            f"dense solve capped at n={DENSE_SOLVE_MAX_N}, got {dataset.n}"
        )
    k_mat = kernel_matrix(spec, dataset.points)
    y = dataset.labels
    last = None
    for jitter in JITTER_LADDER:
        # every entry of K is positive, so K + 0 I would equal K bit for bit
        a = k_mat if jitter == 0.0 else k_mat + jitter * np.eye(dataset.n)
        try:
            factor = cho_factor(a, lower=True, check_finite=False)
            coef = cho_solve(factor, y, check_finite=False)
        except LinAlgError as exc:
            last = exc
            continue
        residual = float(np.max(np.abs(k_mat @ coef - y)))
        if residual <= RESIDUAL_TOL:
            return KernelInterpolant(
                centers=dataset.points, coefficients=coef, labels=y,
                kernel=spec, jitter_used=jitter,
            )
        last = residual
    raise SolveFailed(
        f"jitter ladder exhausted (last residual/error: {last})"
    )


def rkhs_norm(interp):
    """sqrt(c^T K c): the smallest RKHS norm among all interpolants."""
    k_mat = kernel_matrix(interp.kernel, interp.centers)
    quad = float(interp.coefficients @ k_mat @ interp.coefficients)
    return math.sqrt(max(quad, 0.0))
