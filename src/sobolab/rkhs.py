"""Minimum-norm Matern kernel interpolation, the p = 2 baseline.

Matern kernels with smoothness nu = k - d/2 reproduce kernels of Hilbert
spaces norm-equivalent to W^{k,2}(R^d); ridgeless interpolation with them is
the classical kernel-regression route to the same phenomena studied by the
bump construction.  RKHS norms are reported on their own scale and are never
mixed with the bump module's W^{k,p} norms inside a single inequality.

Memory.  Prediction fills one reused sub-block buffer of at most
``_SUB_MAX_ROWS`` x n (2.2 MB at n = 1024), plus a second one for e^{-t} at
nu = 3/2: the distances of each sub-block of query points are overwritten
in place with their kernel values and multiplied by the coefficients.  The
dense solve holds one n x n matrix, factored in place, and fills it in row
sub-blocks with the same scratch.  So the kernel path needs n^2 doubles
plus a cache-sized row block, however many points it predicts.

Sub-block layout.  The query rows are cut into spans of
``PREDICT_BLOCK_ROWS`` (4096), and every span into sub-blocks of
``PREDICT_SUB_ROWS`` (256) rows; a span's tail of fewer than
``_MIN_TAIL_ROWS`` (16) rows joins the sub-block before it.  Measured with
numpy 2.4 on OpenBLAS 0.3.31 (x86-64), the matrix-vector product gives
every row the same bits whatever the row count, except in a one-row
product, which takes another path: the layout makes a one-row sub-block
only where a span is one row, as the 4096-row blocks did.  Predictions
then equal those of 4096-row blocks bit for bit, for every m in 1-699,
4090-4399 and 8185-8199 at n = 257; a plain 256-row split differs at
m = 257, 513 and 4353, where it leaves one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.spatial.distance import cdist

from .errors import MismatchedLengths, SolveFailed, UnsupportedNu, UnsupportedSpec

RESIDUAL_TOL = 1e-6
JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)
DENSE_SOLVE_MAX_N = 4096
PREDICT_BLOCK_ROWS = 4096
PREDICT_SUB_ROWS = 256
_MIN_TAIL_ROWS = 16
_SUB_MAX_ROWS = PREDICT_SUB_ROWS + _MIN_TAIL_ROWS - 1


@dataclass(frozen=True)
class KernelSpec:
    nu: float
    lengthscale: float = 1.0

    def __post_init__(self):
        if self.nu not in (0.5, 1.5):
            raise UnsupportedNu(f"supported nu values are 1/2 and 3/2, got {self.nu}")
        if not 0.0 < self.lengthscale < math.inf:
            raise UnsupportedNu(f"lengthscale must be positive and finite, "
                                f"got {self.lengthscale}")


def _kernel_inplace(spec, r, scratch):
    """Overwrite the distance array ``r`` (1-d or 2-d) with its Matern
    values; returns r.

    At nu = 3/2, e^{-t} goes to the first len(r) rows of ``scratch``, an
    array shaped like r with at least as many rows; nu = 1/2 needs none.
    """
    if spec.nu == 0.5:
        # IEEE division is sign-symmetric: r / -l is -(r / l) bit for bit
        np.divide(r, -spec.lengthscale, out=r)
        return np.exp(r, out=r)
    np.divide(r, spec.lengthscale, out=r)
    np.multiply(r, math.sqrt(3.0), out=r)
    e = np.negative(r, out=scratch[:len(r)])
    np.exp(e, out=e)
    np.add(r, 1.0, out=r)
    return np.multiply(r, e, out=r)


def _sub_blocks(m):
    """(start, stop) of the sub-blocks over m rows; see the module
    docstring for the layout."""
    for span in range(0, m, PREDICT_BLOCK_ROWS):
        end = min(span + PREDICT_BLOCK_ROWS, m)
        cuts = list(range(span, end, PREDICT_SUB_ROWS))
        if len(cuts) > 1 and end - cuts[-1] < _MIN_TAIL_ROWS:
            cuts.pop()
        yield from zip(cuts, cuts[1:] + [end])


def _scratch(spec, rows, cols):
    """The nu = 3/2 scratch for sub-blocks of an array of ``rows`` rows;
    None at nu = 1/2, which needs none."""
    return None if spec.nu == 0.5 else np.empty((min(rows, _SUB_MAX_ROWS), cols))


def kernel_eval(spec, r):
    """Matern kernel value at distance r >= 0; k(0) = 1.  ``r`` is not
    modified."""
    r = np.array(r, dtype=float)
    flat = r.reshape(-1)
    _kernel_inplace(spec, flat, np.empty_like(flat))
    return float(r) if r.ndim == 0 else r


def kernel_matrix(spec, x, z=None, out=None, scratch=None):
    """k(x_i, z_j); ``out``, if given, is a C-contiguous (len(x), len(z))
    float array that receives the matrix.

    The kernel values are filled in row sub-blocks, so nu = 3/2 needs one
    sub-block of scratch: ``scratch``, if given, is a C-contiguous float
    array of len(z) columns and at least min(len(x), ``_SUB_MAX_ROWS``)
    rows.
    """
    z = x if z is None else z
    r = cdist(np.atleast_2d(x), np.atleast_2d(z), out=out)
    if scratch is None:
        scratch = _scratch(spec, *r.shape)
    for start, stop in _sub_blocks(len(r)):
        _kernel_inplace(spec, r[start:stop], scratch)
    return r


@dataclass(frozen=True)
class KernelInterpolant:
    """Representer solution u = sum_i c_i k(., x_i) interpolating the data."""

    centers: np.ndarray
    coefficients: np.ndarray
    kernel: KernelSpec
    jitter_used: float

    @property
    def n(self):
        return len(self.coefficients)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        d = self.centers.shape[1]
        if x.shape[-1:] != (d,):
            raise MismatchedLengths(
                f"points of dimension {x.shape[-1:]} for centers of "
                f"dimension {d}")
        single = x.ndim == 1
        pts = x.reshape(-1, d)
        out = np.empty(len(pts))
        buf = np.empty((min(_SUB_MAX_ROWS, len(pts)), self.n))
        scratch = _scratch(self.kernel, *buf.shape)
        for start, stop in _sub_blocks(len(pts)):
            out[start:stop] = kernel_matrix(
                self.kernel, pts[start:stop], self.centers,
                out=buf[:stop - start], scratch=scratch,
            ) @ self.coefficients
        if single:
            return float(out[0])
        return out.reshape(x.shape[:-1])


def _cholesky_solve(spec, points, y, jitter):
    """c with (K + jitter I) c = y.  K is built, shifted and factored in
    place, and is freed on return."""
    a = kernel_matrix(spec, points)
    if jitter:
        a.reshape(-1)[::len(points) + 1] += jitter
    # K is symmetric bit for bit, so its transpose is the same matrix in the
    # Fortran order LAPACK reads, and it is factored with no copy
    factor = cho_factor(a.T, lower=True, overwrite_a=True, check_finite=False)
    return cho_solve(factor, y, check_finite=False)


def min_norm_interpolant(dataset, spec):
    """Solve K c = y by Cholesky with an escalating jitter ladder.

    The residual contract max_i |u(x_i) - y_i| <= 1e-6 is always measured
    through the returned interpolant's own predict at the data points,
    which multiplies c by the exact kernel matrix (the same bits as K @ c
    for n <= 4096), so jitter cannot silently trade interpolation quality
    for conditioning, and no exact K has to outlive the factor.
    """
    if dataset.n > DENSE_SOLVE_MAX_N:
        raise UnsupportedSpec(
            f"dense solve capped at n={DENSE_SOLVE_MAX_N}, got {dataset.n}"
        )
    y = dataset.labels
    last = None
    for jitter in JITTER_LADDER:
        try:
            coef = _cholesky_solve(spec, dataset.points, y, jitter)
        except LinAlgError as exc:
            last = exc
            continue
        u = KernelInterpolant(centers=dataset.points, coefficients=coef,
                              kernel=spec, jitter_used=jitter)
        residual = float(np.max(np.abs(u(dataset.points) - y)))
        if residual <= RESIDUAL_TOL:
            return u
        last = residual
    raise SolveFailed(
        f"jitter ladder exhausted (last residual/error: {last})"
    )


def rkhs_norm(interp):
    """sqrt(c^T K c): the smallest RKHS norm among all interpolants.

    K c is the interpolant at its own centers, so the quadratic form runs
    through the blocked predict and needs no n x n matrix.
    """
    quad = float(interp.coefficients @ interp(interp.centers))
    return math.sqrt(max(quad, 0.0))
