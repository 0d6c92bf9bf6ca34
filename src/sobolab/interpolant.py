"""Bump-sum interpolants of a dataset and their exact Sobolev norms.

Given a dataset and its nearest-neighbor radii, :func:`build` places around
every point a bump of support radius ``s * delta_i / 2`` (shrink ``s`` in
(0, 1]) scaled by its label.  The result is a plain
:class:`~sobolab.bump.BumpSum`, the package's one bump-sum type.  Half-radius
balls are pairwise disjoint, so the sum interpolates exactly, at most one
bump is active anywhere (the strict nearest center's), and every W^{k,p}
seminorm is a finite sum of analytically scaled reference moduli:

    integral |D^alpha f|^p = sum_i |y_i|^p r_i^(d - |alpha| p) M_alpha.

A sum carries neither (k, p, d) nor the shrink that built it: the norms
take (k, p, d) from the moduli, and the CSV interchange writes and reads
both beside the sum.  Shrinking trades norm for risk: the s < 1 family is
the package's handle on approximately norm-minimizing interpolants, with a
certified lower bound on their norm-minimization factor reported by
:func:`gamma_report`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .bump import BumpSum, bump_eval
from .errors import (
    InvalidShrink,
    MalformedInput,
    MismatchedLengths,
    NotInterpolating,
    ParamsMismatch,
)
from .geometry import _checked_radii, _float_rows, _header_record

INTERPOLATION_TOL = 1e-9
_HEADER_FIELDS = {"k": int, "p": float, "d": int, "shrink": float}


def build(dataset, radii, shrink, params):
    """Bump interpolant of ``dataset`` at shrink factor ``shrink``.

    Support radii must be positive and at most half the nearest-neighbor
    distance, which makes the active bump the strict nearest center's.
    """
    if not (isinstance(shrink, (int, float)) and 0.0 < shrink <= 1.0):
        raise InvalidShrink(f"shrink must lie in (0, 1], got {shrink}")
    radii = _checked_radii(dataset, radii)
    if dataset.dim != params.d:
        raise ParamsMismatch(
            f"dataset dimension {dataset.dim} != params d={params.d}"
        )
    support = float(shrink) * radii / 2.0
    half_gap = np.sqrt(dataset.nn_sq_dists) / 2.0
    if not np.all((support > 0.0) & (support <= half_gap)):
        raise InvalidShrink(
            "support radii must be positive and at most half the "
            "nearest-neighbor distance"
        )
    return BumpSum(centers=dataset.points, radii=support,
                   weights=dataset.labels, _nn_sq=dataset.nn_sq_dists)


def evaluate(f, x):
    """f(x), batched (see :meth:`sobolab.bump.BumpSum._support_pairs`)."""
    return f(x)


def evaluate_brute_force(f, x):
    """Oracle: literally sum all n bumps at every query point."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for c, r, w in zip(f.centers, f.radii, f.weights):
        out = out + w * bump_eval(c, float(r), x)
    return float(out) if out.ndim == 0 else out


def sobolev_norm(f, moduli):
    """Exact W^{k,p} norm: disjoint supports reduce it to scaled moduli."""
    p, d = moduli.params.p, moduli.params.d
    if d != f.dim:
        raise ParamsMismatch(f"moduli for d={d}, bump sum in d={f.dim}")
    wp = np.abs(f.weights) ** p
    total = 0.0
    for alpha in moduli.indices:
        e = d - sum(alpha) * p
        mass = float(np.sum(wp * f.radii ** e)) * moduli.modulus(alpha)
        total += mass ** (1.0 / p)
    return total


def min_norm_upper_bound(dataset, radii, moduli):
    """Explicit upper bound on ||f*||^p via the s = 1 bump interpolant.

    Returns C_M * sum_i (1 + |y_i|^p delta_i^(d - kp)) with

        C_M = A^(p-1) * (sum_alpha M_alpha) * 2^(kp-d) * max(1, r_max^(kp)),

    A the number of multi-indices and r_max the largest half-radius.  The
    constant is sized so that sobolev_norm(build(..., s=1))^p never exceeds
    the bound: each seminorm exponent e = d - |alpha| p satisfies
    r^e <= r^(d-kp) max(1, r_max^(kp)), and the outer sum over alpha costs
    at most a factor A^(p-1) by the power-mean inequality.
    """
    params = moduli.params
    radii = _checked_radii(dataset, radii)
    p, d, k = params.p, params.d, params.k
    a_count = len(moduli.table)
    r_max = float(np.max(radii)) / 2.0
    c_m = (
        a_count ** (p - 1.0)
        * sum(moduli.table.values())
        * 2.0 ** (k * p - d)
        * max(1.0, r_max ** (k * p))
    )
    tail = float(np.sum(1.0 + np.abs(dataset.labels) ** p * radii ** (d - k * p)))
    return c_m * tail


@dataclass(frozen=True)
class GammaReport:
    """Certified lower bound on the norm-minimization factor of f.

    ||f*|| <= ||f_{s=1}||, so norm_f / bump_upper_bound_norm certifies
    gamma >= max(1, gamma_lower_bound).  Nothing here requires solving the
    (nonlinear, for p != 2) minimum-norm problem.
    """

    norm_f: float
    bump_upper_bound_norm: float
    gamma_lower_bound: float


def interpolation_residual(f, dataset):
    """|f(x_i) - y_i| at every data point."""
    return np.abs(f(dataset.points) - dataset.labels)


def gamma_report(f, dataset, radii, moduli):
    """The :class:`GammaReport` of ``f`` against the s = 1 interpolant of
    ``dataset`` at ``radii``; an ``f`` that misses a label by more than
    ``INTERPOLATION_TOL`` raises :class:`NotInterpolating`."""
    worst = float(np.max(interpolation_residual(f, dataset)))
    if worst > INTERPOLATION_TOL:
        raise NotInterpolating(
            f"max |f(x_i) - y_i| = {worst:.3e} exceeds {INTERPOLATION_TOL:g}"
        )
    norm_f = sobolev_norm(f, moduli)
    bound = sobolev_norm(build(dataset, radii, 1.0, moduli.params), moduli)
    return GammaReport(
        norm_f=norm_f,
        bump_upper_bound_norm=bound,
        gamma_lower_bound=norm_f / bound,
    )


# -- CSV interchange ----------------------------------------------------------


def save_interpolant(f, params, shrink, path):
    """Header record (k, p, d, shrink), then center coords, radius, weight.

    ``params`` and ``shrink`` are what :func:`build` made ``f`` from.
    """
    if params.d != f.dim:
        raise ParamsMismatch(f"params for d={params.d}, bump sum in d={f.dim}")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(
            f"# k={params.k} p={params.p!r} d={params.d} "
            f"shrink={float(shrink)!r}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(
            [f"c_{j + 1}" for j in range(f.dim)] + ["radius", "weight"]
        )
        for c, r, w in zip(f.centers, f.radii, f.weights):
            writer.writerow(
                [repr(float(v)) for v in c] + [repr(float(r)), repr(float(w))]
            )


def load_interpolant(path):
    """Read a :func:`save_interpolant` file back as ``(f, params, shrink)``.

    A malformed header record (:func:`sobolab.geometry._header_record`) or
    row (:func:`sobolab.geometry._float_rows`), or a header d that is not
    the number of coordinate columns, raises naming the file and line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if not first.startswith("#"):
            raise MismatchedLengths(f"{path}: missing parameter header record")
        header = _header_record(path, 1, first[1:].split(), _HEADER_FIELDS)
        d = header["d"]
        reader = csv.reader(fh)
        columns = next(reader, [])
        if len(columns) > 2 and len(columns) - 2 != d:
            raise MalformedInput(f"{path}: line 1: header says d={d}, but line "
                                 f"2 has {len(columns) - 2} coordinate column(s)")
        names = [f"c_{j + 1}" for j in range(d)] + ["radius", "weight"]
        # the header record sits on line 1, ahead of the csv reader
        values = _float_rows(path,
                             ((reader.line_num + 1, row) for row in reader),
                             names, columns=(2, columns))
    f = BumpSum(centers=values[:, :d], radii=values[:, d],
                weights=values[:, d + 1])
    return f, header["params"], header["shrink"]
