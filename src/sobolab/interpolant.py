"""The explicit bump-sum interpolant and its exact Sobolev norms.

Given a dataset and its nearest-neighbor radii, place around every point a
bump of support radius ``s * delta_i / 2`` (shrink ``s`` in (0, 1]) scaled
by its label.  Half-radius balls are pairwise disjoint, so the construction
interpolates exactly, at most one bump is active anywhere (the strict
nearest center's, so :func:`evaluate` sums at each point only the bumps a
k-d tree shortlists near it), and every W^{k,p} seminorm is a finite sum of
analytically scaled reference moduli:

    integral |D^alpha f|^p = sum_i |y_i|^p r_i^(d - |alpha| p) M_alpha.

Shrinking trades norm for risk: the s < 1 family is the package's handle on
approximately norm-minimizing interpolants, with a certified lower bound on
their norm-minimization factor reported by :func:`gamma_report`.
"""

from __future__ import annotations

import csv
from dataclasses import InitVar, dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import geometry
from .bump import SobolevParams, _sum_over_pairs, bump_eval
from .errors import (
    DuplicatePoints,
    InvalidShrink,
    MalformedInput,
    MismatchedLengths,
    NotInterpolating,
    ParamsMismatch,
)

INTERPOLATION_TOL = 1e-9


@dataclass(frozen=True)
class BumpInterpolant:
    """f = sum_i y_i psi_i with supports B(x_i, s delta_i / 2).

    Construction checks the supports against the centers' nearest-neighbor
    distances.  ``_nn_sq`` passes those squared distances in when they are
    already known (as :func:`build` does from its dataset); otherwise they
    are computed here.
    """

    centers: np.ndarray
    support_radii: np.ndarray
    weights: np.ndarray
    shrink: float
    params: SobolevParams
    _nn_sq: InitVar[np.ndarray | None] = None

    def __post_init__(self, _nn_sq):
        centers = np.array(self.centers, dtype=float, order="C")
        radii = np.array(self.support_radii, dtype=float, order="C")
        weights = np.array(self.weights, dtype=float, order="C")
        if (centers.ndim != 2 or len(centers) == 0
                or len(radii) != len(centers) or len(weights) != len(centers)):
            raise MismatchedLengths("centers, support_radii, weights must align")
        if not (np.isfinite(centers).all() and np.isfinite(weights).all()):
            raise MalformedInput("centers and weights must be finite")
        if not (np.isfinite(radii).all() and np.all(radii > 0.0)):
            raise InvalidShrink("support radii must be finite and positive")
        if len(centers) >= 2:
            nn_sq = geometry._nn_sq_dists(centers) if _nn_sq is None else _nn_sq
            if np.min(nn_sq) == 0.0:
                raise DuplicatePoints("two bump centers coincide")
            # r_i <= delta_i / 2 makes the active bump the strict nearest
            # center's, so every bump evaluate() leaves out adds a zero.
            if np.any(radii > np.sqrt(nn_sq) / 2.0):
                raise InvalidShrink(
                    "support radii exceed half the nearest-neighbor distance"
                )
        for arr in (centers, radii, weights):
            arr.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "support_radii", radii)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self):
        return len(self.weights)

    @property
    def dim(self):
        return self.centers.shape[1]

    def __call__(self, x):
        return evaluate(self, x)


def build(dataset, radii, shrink, params):
    """Bump interpolant of ``dataset`` at shrink factor ``shrink``."""
    if not (isinstance(shrink, (int, float)) and 0.0 < shrink <= 1.0):
        raise InvalidShrink(f"shrink must lie in (0, 1], got {shrink}")
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (dataset.n,):
        raise MismatchedLengths(
            f"radii shape {radii.shape} does not match n={dataset.n}"
        )
    if dataset.dim != params.d:
        raise ParamsMismatch(
            f"dataset dimension {dataset.dim} != params d={params.d}"
        )
    return BumpInterpolant(
        centers=dataset.points,
        support_radii=float(shrink) * radii / 2.0,
        weights=dataset.labels,
        shrink=float(shrink),
        params=params,
        _nn_sq=dataset.nn_sq_dists,
    )


def evaluate(f, x):
    """f(x), batched; at most one bump is active at any point.

    The k-d tree indexes the batch when it holds more points than f has
    centers (a Monte Carlo chunk): one unbalanced build over the batch and
    one ball query per center, for the points within its own support
    radius, cost less than one nearest-center query per point.  A batch no
    larger than the center set (the data points) is queried against a tree
    over the centers instead, where indexing the batch would cost about
    twice as much: each point is paired with its nearest center within the
    largest support radius, the only center whose bump can be active there.
    Either way the bumps left out add exact zeros to
    :func:`evaluate_brute_force`'s sum, so both agree bit for bit.
    """
    def shortlist(pts):
        if len(pts) > f.n:
            tree = cKDTree(pts, balanced_tree=False, compact_nodes=False)
            return geometry._ball_pairs(tree, f.centers, f.support_radii)
        reach = float(np.max(f.support_radii)) * (1.0 + geometry._REACH_SLACK)
        _, idx = cKDTree(f.centers).query(pts, distance_upper_bound=reach)
        point = np.flatnonzero(idx < f.n)
        return idx[point], point

    return _sum_over_pairs((0,) * f.dim, f.centers, f.support_radii,
                           f.weights, x, shortlist)


def evaluate_brute_force(f, x):
    """Oracle: literally sum all n bumps at every query point."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for c, r, w in zip(f.centers, f.support_radii, f.weights):
        out = out + w * bump_eval(c, float(r), x)
    return float(out) if out.ndim == 0 else out


def check_support_disjointness(f):
    """Overlapping support balls: the packing decision on 2 r_i."""
    return geometry._violating_pairs(f.centers, 2.0 * f.support_radii)


def sobolev_norm(f, moduli):
    """Exact W^{k,p} norm: disjoint supports reduce it to scaled moduli."""
    if moduli.params != f.params:
        raise ParamsMismatch(
            f"moduli for {moduli.params}, interpolant for {f.params}"
        )
    p = f.params.p
    d = f.params.d
    wp = np.abs(f.weights) ** p
    total = 0.0
    for alpha in moduli.indices:
        e = d - sum(alpha) * p
        mass = float(np.sum(wp * f.support_radii ** e)) * moduli.modulus(alpha)
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
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (dataset.n,):
        raise MismatchedLengths(
            f"radii shape {radii.shape} does not match n={dataset.n}"
        )
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
    return np.abs(evaluate(f, dataset.points) - dataset.labels)


def gamma_report(f, dataset, radii, moduli):
    return _gamma_report(f, dataset, radii, moduli,
                         interpolation_residual(f, dataset))


def _gamma_report(f, dataset, radii, moduli, residual):
    """:func:`gamma_report` with ``interpolation_residual(f, dataset)``
    already known."""
    worst = float(np.max(residual))
    if worst > INTERPOLATION_TOL:
        raise NotInterpolating(
            f"max |f(x_i) - y_i| = {worst:.3e} exceeds {INTERPOLATION_TOL:g}"
        )
    norm_f = sobolev_norm(f, moduli)
    reference = build(dataset, radii, 1.0, f.params)
    bound = sobolev_norm(reference, moduli)
    return GammaReport(
        norm_f=norm_f,
        bump_upper_bound_norm=bound,
        gamma_lower_bound=norm_f / bound,
    )


# -- CSV interchange ----------------------------------------------------------


def save_interpolant(f, path):
    """Header record (k, p, d, shrink), then center coords, radius, weight."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(
            f"# k={f.params.k} p={f.params.p!r} d={f.params.d} "
            f"shrink={f.shrink!r}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(
            [f"c_{j + 1}" for j in range(f.dim)] + ["radius", "weight"]
        )
        for c, r, w in zip(f.centers, f.support_radii, f.weights):
            writer.writerow(
                [repr(float(v)) for v in c] + [repr(float(r)), repr(float(w))]
            )


def load_interpolant(path):
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if not first.startswith("#"):
            raise MismatchedLengths(f"{path}: missing parameter header record")
        fields = dict(tok.split("=", 1) for tok in first[1:].split() if "=" in tok)
        try:
            params = SobolevParams(k=int(fields["k"]), p=float(fields["p"]),
                                   d=int(fields["d"]))
            shrink = float(fields["shrink"])
        except KeyError as exc:
            raise MalformedInput(
                f"{path}: line 1: header record lacks {exc.args[0]}="
            ) from None
        except ValueError:
            raise MalformedInput(
                f"{path}: line 1: non-numeric value in header {first!r}"
            ) from None
        reader = csv.reader(fh)
        header = next(reader, [])
        d = len(header) - 2
        if d < 1:
            raise MismatchedLengths(
                f"{path}: expected header c_1,...,c_d,radius,weight, got {header}"
            )
        centers, radii, weights = [], [], []
        for row in reader:
            # the header record sits on line 1, ahead of the csv reader
            line = reader.line_num + 1
            if len(row) != d + 2:
                raise MismatchedLengths(
                    f"{path}: line {line}: row width {len(row)} != {d + 2}"
                )
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise MalformedInput(
                    f"{path}: line {line}: non-numeric cell in {row}"
                ) from None
            centers.append(values[:d])
            radii.append(values[d])
            weights.append(values[d + 1])
    return BumpInterpolant(
        centers=np.asarray(centers), support_radii=np.asarray(radii),
        weights=np.asarray(weights), shrink=shrink, params=params,
    )
