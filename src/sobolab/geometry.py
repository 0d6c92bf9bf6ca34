"""Datasets and their nearest-neighbor geometry.

Provides exact nearest-neighbor radii, the directed nearest-neighbor graph
with ties kept, the half-radius packing check, and the one-point
perturbation stability count.

Every check runs in O(n log n): a k-d tree only shortlists candidate pairs,
and every distance that decides a result is recomputed with the same
fixed-order sum of squares (:func:`_sq_norm`, the package's only one; bump
evaluation sums through it too) that the O(n^2) oracles use, so the fast
paths and the oracles agree to the bit.  The oracles are
:func:`nn_radii_brute_force`, :func:`nn_graph_brute_force` and
:func:`check_packing_brute_force`; only tests call them.

All functions are pure; `Dataset` arrays are frozen after construction.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DuplicatePoints,
    MalformedInput,
    MismatchedLengths,
    NonpositiveRadius,
    TooFewPoints,
    UnsupportedDimension,
)

# Brute force below this size; k-d tree above (DESIGN: correctness first,
# both paths must agree exactly).
BRUTE_FORCE_MAX_N = 64

# Relative slack on a tree query radius: the tree's own distance arithmetic
# may round differently from _sq_norm, so a shortlist must never sit right
# on the decision boundary.
_REACH_SLACK = 1e-9

# Rows per block of the O(n^2) oracles, bounding their memory.
_ORACLE_BLOCK = 512

# Kissing numbers tau(d): max in-degree of the NN graph on generic points.
KISSING_NUMBER = {1: 2, 2: 6, 3: 12}


def kissing_number(d):
    try:
        return KISSING_NUMBER[int(d)]
    except KeyError:
        raise UnsupportedDimension(
            f"kissing number table covers d in {{1, 2, 3}}, got d={d}"
        ) from None


def _sq_norm(v):
    """Squared Euclidean norms over the trailing axis, summed left to right.

    The fixed order makes every caller that sums the same squares produce
    the same bits, whatever the batch shape.
    """
    out = v[..., 0] * v[..., 0]
    for j in range(1, v.shape[-1]):
        out = out + v[..., j] * v[..., j]
    return out


@dataclass(frozen=True)
class Dataset:
    """n >= 2 pairwise-distinct points in R^d with real labels.

    ``nn_sq_dists`` holds the squared distance from each point to its
    nearest other point.  It is computed once, at construction, and every
    nearest-neighbor quantity of the dataset derives from it.
    """

    points: np.ndarray
    labels: np.ndarray
    nn_sq_dists: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = np.array(self.points, dtype=float, order="C")
        labels = np.array(self.labels, dtype=float, order="C")
        if points.ndim != 2:
            raise MismatchedLengths("points must be an (n, d) array")
        if labels.shape != (points.shape[0],):
            raise MismatchedLengths(
                f"{points.shape[0]} points but {labels.shape} labels"
            )
        if points.shape[0] < 2:
            raise TooFewPoints(f"need n >= 2 points, got {points.shape[0]}")
        if not (np.isfinite(points).all() and np.isfinite(labels).all()):
            raise MalformedInput("points and labels must be finite")
        nn_sq = _nn_sq_dists(points)
        if np.min(nn_sq) == 0.0:
            raise DuplicatePoints("two points of the dataset coincide")
        for arr in (points, labels, nn_sq):
            arr.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "nn_sq_dists", nn_sq)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


@dataclass(frozen=True)
class NnGraph:
    """Directed nearest-neighbor graph; ties produce parallel out-edges."""

    edges: frozenset
    n: int


def _nn_sq_dists_brute(points):
    d2 = _sq_norm(points[:, None, :] - points[None, :, :])
    np.fill_diagonal(d2, np.inf)
    return d2.min(axis=1)


def _nn_sq_dists_tree(points, candidates=4):
    tree = cKDTree(points)
    k = min(candidates + 1, len(points))
    _, idx = tree.query(points, k=k)
    # Recompute candidate distances with the shared arithmetic; the tree is
    # only trusted to shortlist, never to produce the final number.
    cand = _sq_norm(points[:, None, :] - points[idx])
    cand[idx == np.arange(len(points))[:, None]] = np.inf
    return cand.min(axis=1)


def _nn_sq_dists(points):
    if len(points) < BRUTE_FORCE_MAX_N:
        return _nn_sq_dists_brute(points)
    return _nn_sq_dists_tree(points)


def _ball_pairs(tree, points, reach):
    """Shortlist (i, j), i != j, with x_j within about reach_i of x_i.

    ``reach`` must be finite.  The query radius is widened by a relative
    ``_REACH_SLACK`` so that every pair whose recomputed distance is at most
    reach_i is returned; a few pairs just beyond it may be returned too, and
    callers decide each pair from :func:`_sq_norm` alone.
    """
    balls = tree.query_ball_point(points, reach * (1.0 + _REACH_SLACK))
    sizes = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
    src = np.repeat(np.arange(len(balls)), sizes)
    dst = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp,
                      count=int(sizes.sum()))
    keep = src != dst
    return src[keep], dst[keep]


def nn_radii(dataset):
    """delta_i = min_{l != i} ||x_i - x_l||, exactly, for every i."""
    return np.sqrt(dataset.nn_sq_dists)


def nn_radii_brute_force(dataset):
    """O(n^2) oracle for nn_radii; bit-identical to the indexed path."""
    return np.sqrt(_nn_sq_dists_brute(dataset.points))


def nn_graph(dataset):
    """Edges (i, j) with ||x_j - x_i|| <= ||x_l - x_i|| for all l != i.

    O(n log n): the tree shortlists every x_j within delta_i of x_i, and an
    edge is kept when its recomputed squared distance equals the dataset's
    nearest-neighbor squared distance exactly, so exact ties stay in the
    graph.  :func:`nn_graph_brute_force` is the O(n^2) oracle.
    """
    points = dataset.points
    nn_sq = dataset.nn_sq_dists
    src, dst = _ball_pairs(cKDTree(points), points, np.sqrt(nn_sq))
    tie = _sq_norm(points[src] - points[dst]) == nn_sq[src]
    return NnGraph(edges=frozenset(zip(src[tie].tolist(), dst[tie].tolist())),
                   n=dataset.n)


def nn_graph_brute_force(dataset):
    """O(n^2) oracle for nn_graph: every row of the distance matrix."""
    points = dataset.points
    n = dataset.n
    edges = []
    for start in range(0, n, _ORACLE_BLOCK):
        stop = min(start + _ORACLE_BLOCK, n)
        d2 = _sq_norm(points[start:stop, None, :] - points[None, :, :])
        for r in range(stop - start):
            d2[r, start + r] = np.inf
        rowmin = d2.min(axis=1)
        src, dst = np.nonzero(d2 == rowmin[:, None])
        edges.extend(zip((src + start).tolist(), dst.tolist()))
    return NnGraph(edges=frozenset(edges), n=n)


def in_degrees(graph, n=None):
    """In-degree of every node of the nearest-neighbor graph."""
    if n is None:
        n = graph.n
    deg = np.zeros(n, dtype=int)
    for _, j in graph.edges:
        deg[j] += 1
    return deg


def _checked_radii(dataset, radii):
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (dataset.n,):
        raise MismatchedLengths(
            f"radii shape {radii.shape} does not match n={dataset.n}"
        )
    if not (np.isfinite(radii).all() and np.all(radii > 0.0)):
        raise NonpositiveRadius("packing radii must be finite and positive")
    return radii


def check_packing(dataset, radii):
    """All pairs violating ||x_i - x_j|| < (delta_i + delta_j) / 2.

    The half-radius balls B(x_i, delta_i/2) are disjoint whenever the radii
    come from the same dataset, so the returned list is empty by contract;
    a non-empty return means corrupted inputs.  Pairs come as (i, j) with
    i < j, sorted by i, then j.  Radii must be finite and positive.

    :func:`check_packing_brute_force` is the O(n^2) oracle.
    """
    return _violating_pairs(dataset.points, _checked_radii(dataset, radii))


def _violating_pairs(points, radii):
    """:func:`check_packing` on raw (m, d) points and valid radii, m >= 1.

    A pair can violate only when its distance is below (r_i + r_j)/2 <=
    max(r_i, r_j), so the ball of radius r around one of its two points
    holds the other: the tree shortlists those, and each shortlisted pair is
    decided by recomputed distances alone.  At 2 r_i the violating pairs
    are the overlapping balls B(x_i, r_i).
    """
    n = len(points)
    src, dst = _ball_pairs(cKDTree(points), points, radii)
    key = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst))
    i, j = np.divmod(key, n)
    dist = np.sqrt(_sq_norm(points[i] - points[j]))
    bad = dist < (radii[i] + radii[j]) / 2.0
    return list(zip(i[bad].tolist(), j[bad].tolist()))


def check_packing_brute_force(dataset, radii):
    """O(n^2) oracle for check_packing: every pair of the distance matrix."""
    radii = _checked_radii(dataset, radii)
    points = dataset.points
    n = dataset.n
    violations = []
    for start in range(0, n, _ORACLE_BLOCK):
        stop = min(start + _ORACLE_BLOCK, n)
        dist = np.sqrt(_sq_norm(points[start:stop, None, :]
                                - points[None, :, :]))
        limit = (radii[start:stop, None] + radii[None, :]) / 2.0
        bad = dist < limit
        for r in range(stop - start):
            bad[r, : start + r + 1] = False  # keep i < j only
        src, dst = np.nonzero(bad)
        violations.extend(zip((src + start).tolist(), dst.tolist()))
    return violations


def perturbation_changed_radii(dataset, index, replacement):
    """How many nearest-neighbor radii change when x_index moves.

    Bounded by 1 + 2 tau(d) for d <= 3: the moved point, plus the old and
    new in-neighborhoods.
    """
    replacement = np.asarray(replacement, dtype=float).reshape(-1)
    if replacement.shape != (dataset.dim,):
        raise MismatchedLengths(
            f"replacement has dim {replacement.shape[0]}, dataset d={dataset.dim}"
        )
    moved = dataset.points.copy()
    moved[index] = replacement
    others = np.delete(moved, index, axis=0)
    if np.min(_sq_norm(others - replacement[None, :])) == 0.0:
        raise DuplicatePoints("replacement coincides with another point")
    after = _nn_sq_dists(moved)
    return int(np.count_nonzero(dataset.nn_sq_dists != after))


# -- CSV interchange -------------------------------------------------------


def save_dataset(dataset, path):
    """Write one row per point: columns x_1..x_d, y, header included."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x_{j + 1}" for j in range(dataset.dim)] + ["y"])
        for x, y in zip(dataset.points, dataset.labels):
            writer.writerow([repr(float(v)) for v in x] + [repr(float(y))])


def load_dataset(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[-1] != "y" or header[0] != "x_1":
            raise MismatchedLengths(
                f"{path}: expected header x_1,...,x_d,y, got {header}"
            )
        d = len(header) - 1
        pts, ys = [], []
        for row in reader:
            if len(row) != d + 1:
                raise MismatchedLengths(
                    f"{path}: line {reader.line_num}: row width {len(row)} "
                    f"!= {d + 1}"
                )
            try:
                values = [float(v) for v in row]
                if not all(map(math.isfinite, values)):
                    raise ValueError
            except ValueError:
                raise MalformedInput(
                    f"{path}: line {reader.line_num}: non-numeric or "
                    f"non-finite cell in {row}"
                ) from None
            pts.append(values[:d])
            ys.append(values[d])
    return Dataset(points=np.asarray(pts), labels=np.asarray(ys))
