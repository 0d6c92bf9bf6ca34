"""Datasets and their nearest-neighbor geometry.

Provides exact nearest-neighbor radii, the directed nearest-neighbor graph
with ties kept, the half-radius packing check, and the one-point
perturbation stability count.

Every check runs in O(n log n): a k-d tree only shortlists candidate pairs,
and every distance that decides a result is recomputed with the same
fixed-order sum of squares (:func:`_sq_norm`, the package's only one; bump
evaluation sums through it too) that the O(n^2) oracles use, so the fast
paths and the oracles agree to the bit.  The packing check runs in O(n),
with no tree, when the radii pass its certificate (every radius at most
the point's nearest-neighbor distance, as with the dataset's own radii);
:class:`~sobolab.bump.BumpSum` checks its supports with the same
certificate.
The oracles are :func:`nn_radii_brute_force`, :func:`nn_graph_brute_force`
and :func:`check_packing_brute_force`; only tests call them.  They read a
squared distance that overflows as inf, the true answer "far", unwarned.

The lab's text interchange has two rules: :func:`_header_record` for
``key=value`` headers and :func:`_float_rows` for rows of finite floats
under the writer's column names.  They serve the dataset and interpolant
CSVs and the config's ``bumps`` key.

All functions are pure; `Dataset` arrays are frozen after construction.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DuplicatePoints,
    InvalidRange,
    MalformedInput,
    MismatchedLengths,
    NonpositiveRadius,
    SobolabError,
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


def _sq_norm(v, center=None, radius=None):
    """Squared Euclidean norms over the trailing axis, summed left to right.

    With ``center`` and ``radius`` it is the squared norm of the offset
    (v - center) / radius, formed one coordinate column at a time: each
    term is ((v_j - center_j) / radius)^2, the same operations on the same
    operands as ``_sq_norm((v - center) / radius[..., None])``, so the bits
    are the same, with no (..., d) temporary.  ``center`` (..., d) and
    ``radius`` (...) broadcast against ``v`` as they would there.

    The fixed order makes every caller that sums the same squares produce
    the same bits, whatever the batch shape.
    """
    out = None
    for j in range(v.shape[-1]):
        if center is None:
            t = v[..., j] * v[..., j]
        else:
            t = (v[..., j] - center[..., j]) / radius
            t *= t  # in place on a new array; a 0-d result rebinds
        if out is None:
            out = t
        else:
            out += t
    return out


@dataclass(frozen=True)
class Dataset:
    """n >= 2 pairwise-distinct points in R^d with real labels.

    ``nn_sq_dists`` holds the squared distance from each point to its
    nearest other point.  It is computed once, at construction, and every
    nearest-neighbor quantity of the dataset derives from it.  It is finite
    and positive: points whose nearest-neighbor squared distance overflows
    are rejected.
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
        nn_sq = _finite_nn_sq_dists(points)
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


def _nn_sq_dists_tree(points):
    n = len(points)
    tree = cKDTree(points)
    _, idx = tree.query(points, k=2)
    # The point itself and one candidate, whose distance is recomputed with
    # the shared arithmetic: the tree is only trusted to shortlist, never to
    # produce the final number.  One candidate is enough in d <= 3 (the
    # lab's dimensions): there the tree's squared distance sums the squares
    # left to right, as _sq_norm does, so its nearest other point is
    # _sq_norm's, near-ties included.  A coincident point may come before
    # the point itself; both are at 0.  Where its own squared distance
    # overflows it finds no candidate: index n.
    missing = idx == n
    cand = _sq_norm(points[:, None, :]
                    - np.take(points, np.where(missing, 0, idx), axis=0))
    cand[missing | (idx == np.arange(n)[:, None])] = np.inf
    return cand.min(axis=1)


def _nn_sq_dists(points):
    if len(points) < BRUTE_FORCE_MAX_N:
        return _nn_sq_dists_brute(points)
    return _nn_sq_dists_tree(points)


def _finite_nn_sq_dists(points):
    """:func:`_nn_sq_dists`, raising :class:`MalformedInput` (and no numpy
    warning) when a nearest-neighbor squared distance overflows."""
    with np.errstate(over="ignore"):
        nn_sq = _nn_sq_dists(points)
    if not np.isfinite(nn_sq).all():
        raise MalformedInput("nearest-neighbour distance overflows")
    return nn_sq


def _check_squared_spread(lo, hi):
    """Raise :class:`MalformedInput` when squared distances between points
    in the box [lo, hi] may overflow.

    The box's diagonal's :func:`_sq_norm` bounds every pair's, since
    rounding is monotone; a k-d tree over such points raises scipy's
    ``ValueError`` on overflow.  A NaN bound passes.
    """
    with np.errstate(over="ignore"):
        diagonal_sq = _sq_norm(hi - lo)
    if np.isinf(diagonal_sq):
        raise MalformedInput("squared distances between the points overflow")


def _ball_pairs(tree, points, reach):
    """Shortlist (i, j) with the tree's point j within about reach_i of
    ``points[i]``, as two flat index arrays.

    An inf reach shortlists every point.  The query radius is widened by a relative
    ``_REACH_SLACK`` so that every pair whose recomputed distance is at most
    reach_i is returned; a few pairs just beyond it may be returned too, and
    callers decide each pair from :func:`_sq_norm` alone.  When the tree
    indexes ``points`` themselves, the self pairs (i, i) are among those
    returned.
    """
    balls = tree.query_ball_point(points, reach * (1.0 + _REACH_SLACK))
    sizes = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
    src = np.repeat(np.arange(len(balls)), sizes)
    dst = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp,
                      count=int(sizes.sum()))
    return src, dst


def nn_radii(dataset):
    """delta_i = min_{l != i} ||x_i - x_l||, exactly, for every i."""
    return np.sqrt(dataset.nn_sq_dists)


def nn_radii_brute_force(dataset):
    """O(n^2) oracle for nn_radii; bit-identical to the indexed path."""
    with np.errstate(over="ignore"):
        return np.sqrt(_nn_sq_dists_brute(dataset.points))


def nn_graph(dataset):
    """Edges (i, j) with ||x_j - x_i|| <= ||x_l - x_i|| for all l != i.

    O(n log n): the tree shortlists every x_j within delta_i of x_i, and an
    edge is kept when its recomputed squared distance equals the dataset's
    nearest-neighbor squared distance exactly, so exact ties stay in the
    graph.  :func:`nn_graph_brute_force` is the O(n^2) oracle.  Points
    whose squared distances may overflow, such as two clusters 1e160
    apart, raise :class:`MalformedInput` (:func:`_check_squared_spread`).
    """
    points = dataset.points
    nn_sq = dataset.nn_sq_dists
    _check_squared_spread(points.min(axis=0), points.max(axis=0))
    src, dst = _ball_pairs(cKDTree(points), points, np.sqrt(nn_sq))
    keep = src != dst
    src, dst = src[keep], dst[keep]
    tie = (_sq_norm(np.take(points, src, axis=0)
                    - np.take(points, dst, axis=0)) == nn_sq[src])
    return NnGraph(edges=frozenset(zip(src[tie].tolist(), dst[tie].tolist())),
                   n=dataset.n)


def nn_graph_brute_force(dataset):
    """O(n^2) oracle for nn_graph: every row of the distance matrix."""
    points = dataset.points
    n = dataset.n
    edges = []
    for start in range(0, n, _ORACLE_BLOCK):
        stop = min(start + _ORACLE_BLOCK, n)
        with np.errstate(over="ignore"):
            d2 = _sq_norm(points[start:stop, None, :] - points[None, :, :])
        for r in range(stop - start):
            d2[r, start + r] = np.inf
        rowmin = d2.min(axis=1)
        src, dst = np.nonzero(d2 == rowmin[:, None])
        edges.extend(zip((src + start).tolist(), dst.tolist()))
    return NnGraph(edges=frozenset(edges), n=n)


def in_degrees(graph):
    """In-degree of every node of the nearest-neighbor graph."""
    deg = np.zeros(graph.n, dtype=int)
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
        raise NonpositiveRadius("radii must be finite and positive")
    return radii


def check_packing(dataset, radii):
    """All pairs violating ||x_i - x_j|| < (delta_i + delta_j) / 2.

    The half-radius balls B(x_i, delta_i/2) are disjoint whenever the radii
    come from the same dataset, so the returned list is empty by contract;
    a non-empty return means corrupted inputs.  Pairs come as (i, j) with
    i < j, sorted by i, then j.  Radii must be finite and positive.

    When every r_i is at most the point's own nearest-neighbor distance, as
    the dataset's own radii (:func:`nn_radii`) always are, the list is
    empty and no tree is built (O(n)); the certificate and its proof are
    in :func:`_certified_violations`.  Other radii take the k-d tree search
    of :func:`_violating_pairs`.

    :func:`check_packing_brute_force` is the O(n^2) oracle.
    """
    radii = _checked_radii(dataset, radii)
    return _certified_violations(dataset.points, radii,
                                 dataset.nn_sq_dists)[1]


def _certified_violations(points, radii, nn_sq):
    """``(certified, pairs)``: :func:`check_packing` on raw (m, d) points and
    valid radii, given ``nn_sq``, the points' nearest-neighbor squared
    distances (a lone point's is inf).

    Certificate: when every nn_sq_i is finite (or m = 1) and every
    r_i <= sqrt(nn_sq_i), no pair violates, and ``(True, [])`` returns with
    no tree built.  Proof, in the rounded arithmetic of the check: for
    i < j, x_i - x_j and x_j - x_i differ only in sign, so :func:`_sq_norm`
    gives both the same value s_ij.  nn_sq_i is the least such value over
    the points other than x_i, so s_ij is at least nn_sq_i and nn_sq_j.
    Correctly rounded sqrt is monotone, so dist_ij = sqrt(s_ij) >=
    max(r_i, r_j).  Both nn_sq are finite, so r_i + r_j cannot overflow,
    and rounding is monotone: the rounded (r_i + r_j) / 2 is at most
    max(r_i, r_j) <= dist_ij, and no pair violates.  An overflowed nn_sq
    bounds nothing (sqrt(inf) exceeds every radius while the true distance
    may not), so it never certifies.

    Otherwise ``(False, pairs)`` with the pairs of :func:`_violating_pairs`.
    At 2 r_i the violating pairs are the overlapping balls B(x_i, r_i).
    """
    if ((len(points) == 1 or np.isfinite(nn_sq).all())
            and np.all(radii <= np.sqrt(nn_sq))):
        return True, []
    return False, _violating_pairs(points, radii)


def _violating_pairs(points, radii):
    """:func:`check_packing` on raw (m, d) points and valid radii, m >= 1,
    by k-d tree search.

    A pair can violate only when its distance is below (r_i + r_j)/2 <=
    max(r_i, r_j), so the ball of radius r around one of its two points
    holds the other: the tree shortlists those, and each shortlisted pair is
    decided by recomputed distances alone.  Points whose squared distances
    may overflow raise :class:`MalformedInput` (:func:`_check_squared_spread`):
    no pair's distance could be decided there.
    """
    _check_squared_spread(points.min(axis=0), points.max(axis=0))
    n = len(points)
    src, dst = _ball_pairs(cKDTree(points), points, radii)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    key = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst))
    i, j = np.divmod(key, n)
    dist = np.sqrt(_sq_norm(np.take(points, i, axis=0)
                            - np.take(points, j, axis=0)))
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
        with np.errstate(over="ignore"):
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
    new in-neighborhoods.  ``index`` must be an integer in [0, n) (not a
    bool), else :class:`InvalidRange`; a non-finite replacement, or one
    whose nearest-neighbor squared distance overflows, raises
    :class:`MalformedInput`.
    """
    if (not isinstance(index, (int, np.integer)) or isinstance(index, bool)
            or not 0 <= index < dataset.n):
        raise InvalidRange(
            f"index must be an integer in [0, {dataset.n}), got {index!r}")
    replacement = np.asarray(replacement, dtype=float).reshape(-1)
    if replacement.shape != (dataset.dim,):
        raise MismatchedLengths(
            f"replacement has dim {replacement.shape[0]}, dataset d={dataset.dim}"
        )
    if not np.isfinite(replacement).all():
        raise MalformedInput("replacement must be finite")
    moved = dataset.points.copy()
    moved[index] = replacement
    after = _finite_nn_sq_dists(moved)
    # the other points are distinct, so a zero pairs the replacement
    if np.min(after) == 0.0:
        raise DuplicatePoints("replacement coincides with another point")
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
    """Read a :func:`save_dataset` file back as a :class:`Dataset`.

    A file that is not UTF-8 text (:func:`_open_text`) or a malformed row
    (:func:`_float_rows`) raises naming the file and line; points that
    :class:`Dataset` refuses raise its error, naming the file.
    """
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        columns = next(reader, [])
        d = max(len(columns) - 1, 1)
        names = [f"x_{j + 1}" for j in range(d)] + ["y"]
        values = _float_rows(path, ((reader.line_num, row) for row in reader),
                             names, columns=(1, columns))
    try:
        return Dataset(points=values[:, :d], labels=values[:, d])
    except SobolabError as exc:
        raise type(exc)(f"{path}: {exc}") from None


# The number literals of the lab's text files, in ASCII: what repr writes
# for an int or a finite float, and the decimal forms a hand-written config
# uses.  int() and float() alone also read Unicode digits, underscores and
# surrounding whitespace, which no writer writes.
_INT_LITERAL = re.compile(r"[+-]?[0-9]+")
_FLOAT_LITERAL = re.compile(
    r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _int_literal(text):
    """``int(text)`` of an ASCII decimal integer; else ValueError."""
    if not _INT_LITERAL.fullmatch(text):
        raise ValueError(f"{text!r} is not an ASCII integer")
    return int(text)


def _float_literal(text):
    """``float(text)`` of an ASCII decimal number; else ValueError."""
    if not _FLOAT_LITERAL.fullmatch(text):
        raise ValueError(f"{text!r} is not an ASCII decimal number")
    return float(text)


def _open_text(path):
    """``path`` decoded as UTF-8, read as ``open(path, newline="")`` reads;
    a byte that is not UTF-8 raises :class:`MalformedInput` naming the
    file and line before any reader sees a line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return io.StringIO(raw.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise MalformedInput(f"{path}: line {lineno}: not UTF-8 text "
                             f"({exc.reason})") from None


def _header_record(path, lineno, tokens, casts):
    """The ``key=value`` tokens of line ``lineno`` whose keys ``casts``
    declares, cast, as a dict; other tokens are the caller's.  With k, p
    and d comes their ``SobolevParams``, as ``params``.  A repeated or
    missing key, a value its cast rejects (:func:`_int_literal` and
    :func:`_float_literal` take ASCII literals alone) or that is not
    finite, or a (k, p, d) out of range raises :class:`MalformedInput`
    naming the line.
    """
    from .bump import SobolevParams  # bump imports this module

    record = {}
    where = f"{path}: line {lineno}"
    for key, eq, value in (token.partition("=") for token in tokens):
        if not eq or key not in casts:
            continue
        if key in record:
            raise MalformedInput(f"{where}: header record repeats {key}=")
        try:
            record[key] = casts[key](value)
            if not math.isfinite(record[key]):
                raise ValueError
        except (ValueError, OverflowError):  # isfinite of a huge int
            raise MalformedInput(f"{where}: cannot read {key}={value}") from None
    for key in casts:
        if key not in record:
            raise MalformedInput(f"{where}: header record lacks {key}=")
    if {"k", "p", "d"} <= record.keys():
        try:
            record["params"] = SobolevParams(*(record[key] for key in "kpd"))
        except SobolabError as exc:
            raise MalformedInput(f"{where}: {exc}") from None
    return record


def _float_rows(path, rows, names, columns=None):
    """``rows``, pairs (line, cells), as an array of finite floats with a
    column per name; ``columns``, the pair of the column row, must hold
    exactly ``names``.  Raises :class:`MismatchedLengths` on other names
    or widths, :class:`MalformedInput` on a cell that is not a finite
    ASCII decimal number (:func:`_float_literal`), naming the line.
    """
    if columns is not None and columns[1] != names:
        raise MismatchedLengths(f"{path}: line {columns[0]}: expected columns "
                                f"{','.join(names)}, got {','.join(columns[1])}")
    values = []
    for lineno, cells in rows:
        if len(cells) != len(names):
            raise MismatchedLengths(f"{path}: line {lineno}: row width "
                                    f"{len(cells)} != {len(names)}")
        try:
            row = [_float_literal(v) for v in cells]
            if not all(map(math.isfinite, row)):
                raise ValueError
        except ValueError:
            raise MalformedInput(f"{path}: line {lineno}: non-numeric or "
                                 f"non-finite cell in {cells}") from None
        values.append(row)
    return np.array(values, dtype=float).reshape(-1, len(names))
