import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sobolab import geometry, interpolant, model
from sobolab.errors import (
    DuplicatePoints,
    InvalidRange,
    MalformedInput,
    MismatchedLengths,
    NonpositiveRadius,
    TooFewPoints,
    UnsupportedDimension,
)
from sobolab.geometry import Dataset

from conftest import count_trees, random_dataset


def line_dataset(*xs):
    return Dataset(points=np.array(xs, dtype=float).reshape(-1, 1),
                   labels=np.zeros(len(xs)))


class TestDataset:
    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            Dataset(points=np.array([[0.0]]), labels=np.array([1.0]))

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePoints):
            line_dataset(0.0, 1.0, 1.0)

    def test_duplicates_rejected_large(self):
        pts = np.random.default_rng(0).uniform(size=(200, 2))
        pts[137] = pts[12]
        with pytest.raises(DuplicatePoints):
            Dataset(points=pts, labels=np.zeros(200))

    def test_label_mismatch(self):
        with pytest.raises(MismatchedLengths):
            Dataset(points=np.zeros((3, 1)), labels=np.zeros(2))

    def test_arrays_frozen(self):
        ds = line_dataset(0.0, 1.0)
        with pytest.raises(ValueError):
            ds.points[0, 0] = 5.0

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 17, 2)
        path = tmp_path / "ds.csv"
        geometry.save_dataset(ds, path)
        back = geometry.load_dataset(path)
        assert np.array_equal(back.points, ds.points)
        assert np.array_equal(back.labels, ds.labels)
        header = path.read_text().splitlines()[0]
        assert header == "x_1,x_2,y"

    def test_csv_non_numeric_cell_names_file_and_line(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("x_1,y\n0.0,1.0\nabc,2.0\n")
        with pytest.raises(MalformedInput, match=r"ds\.csv: line 3"):
            geometry.load_dataset(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        pts = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(MalformedInput, match="finite"):
            Dataset(points=np.where(pts == 1.0, bad, pts), labels=np.zeros(3))
        with pytest.raises(MalformedInput, match="finite"):
            Dataset(points=pts, labels=np.array([0.0, bad, 0.0]))

    def test_csv_non_finite_cell_names_file_and_line(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("x_1,y\n0.0,1.0\n0.5,nan\n")
        with pytest.raises(MalformedInput, match=r"ds\.csv: line 3"):
            geometry.load_dataset(path)

    def test_csv_short_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("x_1,x_2,y\n0.0,0.0,1.0\n0.5,2.0\n")
        with pytest.raises(MismatchedLengths, match=r"ds\.csv: line 3"):
            geometry.load_dataset(path)

    def test_csv_columns_other_than_the_writers_name_file_and_line(
            self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("x_1,foo,y\n0.0,0.0,1.0\n0.5,2.0,1.0\n")
        with pytest.raises(MismatchedLengths,
                           match=r"ds\.csv: line 1: expected columns x_1,x_2,y"):
            geometry.load_dataset(path)

    @pytest.mark.parametrize("n", [2, 70])
    def test_overflowing_nn_distance_rejected(self, n):
        # finite points whose nearest-neighbor squared distance overflows;
        # n = 70 takes the k-d tree path, which finds no finite candidate
        pts = np.random.default_rng(0).uniform(size=(n, 3))
        pts[-1] = (1e200, 0.0, 0.0)
        with pytest.raises(MalformedInput, match="distance overflows"):
            Dataset(points=pts, labels=np.zeros(n))

    def test_far_pair_with_finite_nn_distances(self):
        # the tree finds one finite candidate for each far point
        near = np.random.default_rng(0).uniform(size=(70, 3))
        far = np.array([[1e200, 0.0, 0.0], [1e200, 1.0, 0.0]])
        ds = Dataset(points=np.vstack([near, far]), labels=np.zeros(72))
        assert ds.nn_sq_dists[-2:].tolist() == [1.0, 1.0]
        alone = Dataset(points=near, labels=np.zeros(70))
        assert ds.nn_sq_dists[:-2].tobytes() == alone.nn_sq_dists.tobytes()

    def test_nn_sq_dists_frozen(self):
        ds = line_dataset(0.0, 1.0, 3.0)
        assert ds.nn_sq_dists.tolist() == [1.0, 1.0, 4.0]
        with pytest.raises(ValueError):
            ds.nn_sq_dists[0] = 5.0


class TestNnRadii:
    def test_line_0_1_3(self):
        # brute-force oracle by hand: pairwise distances {1, 3, 2}
        assert np.array_equal(geometry.nn_radii(line_dataset(0, 1, 3)),
                              [1.0, 1.0, 2.0])

    def test_two_points_symmetric(self):
        assert np.array_equal(geometry.nn_radii(line_dataset(0, 1)), [1.0, 1.0])

    def test_unit_square_corners(self):
        ds = Dataset(points=np.array([[0, 0], [1, 0], [0, 1], [1, 1.0]]),
                     labels=np.zeros(4))
        # diagonal sqrt(2) is never the minimum
        assert np.array_equal(geometry.nn_radii(ds), np.ones(4))

    @pytest.mark.parametrize("n", [65, 128, 513, 2048])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tree_equals_brute_force_exactly(self, n, d):
        rng = np.random.default_rng(n * 7 + d)
        ds = random_dataset(rng, n, d)
        assert np.array_equal(geometry.nn_radii(ds),
                              geometry.nn_radii_brute_force(ds))


class TestNnGraph:
    def test_line_0_1_3(self):
        g = geometry.nn_graph(line_dataset(0, 1, 3))
        assert g.edges == {(0, 1), (1, 0), (2, 1)}
        assert geometry.in_degrees(g).tolist() == [1, 2, 0]

    def test_mutual_pair(self):
        g = geometry.nn_graph(line_dataset(0, 1))
        assert g.edges == {(0, 1), (1, 0)}
        assert geometry.in_degrees(g).tolist() == [1, 1]

    def test_exact_ties_produce_parallel_edges(self):
        # unit square: each corner has two neighbors at exactly distance 1
        # (an equilateral triangle has no exactly representable tie)
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        g = geometry.nn_graph(Dataset(points=pts, labels=np.zeros(4)))
        assert len(g.edges) == 8
        assert geometry.in_degrees(g).tolist() == [2, 2, 2, 2]

    def test_tie_at_midpoint(self):
        g = geometry.nn_graph(line_dataset(0, 1, 2))
        assert g.edges == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_collinear_equispaced_in_degree(self):
        g = geometry.nn_graph(line_dataset(0, 1, 2, 3, 4))
        deg = geometry.in_degrees(g)
        assert deg.max() <= geometry.kissing_number(1)

    def test_far_clusters_rejected(self):
        # every nearest-neighbor distance is finite, but the tree's squared
        # distances between the clusters would overflow
        with pytest.raises(MalformedInput, match="distances .* overflow"):
            geometry.nn_graph(line_dataset(0.0, 1.0, 1e160, 1e160 + 1e145))

    def test_clusters_1e153_apart_equal_brute_force(self):
        ds = line_dataset(0.0, 1.0, 1e153, 1e153 + 1e137)
        g = geometry.nn_graph(ds)
        assert g == geometry.nn_graph_brute_force(ds)
        assert g.edges == {(0, 1), (1, 0), (2, 3), (3, 2)}

    def test_random_in_degree_bound_2d(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, 500, 2)
        deg = geometry.in_degrees(geometry.nn_graph(ds))
        assert deg.max() <= geometry.kissing_number(2)


class TestKissing:
    def test_table(self):
        assert [geometry.kissing_number(d) for d in (1, 2, 3)] == [2, 6, 12]

    def test_out_of_range(self):
        with pytest.raises(UnsupportedDimension):
            geometry.kissing_number(4)


class TestPacking:
    def test_line_0_1_3(self):
        ds = line_dataset(0, 1, 3)
        assert geometry.check_packing(ds, geometry.nn_radii(ds)) == []

    def test_any_two_points(self):
        ds = line_dataset(0.0, 0.37)
        assert geometry.check_packing(ds, geometry.nn_radii(ds)) == []

    def test_random_batches(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 4))
            ds = random_dataset(rng, n, d)
            assert geometry.check_packing(ds, geometry.nn_radii(ds)) == []

    def test_detects_corrupted_radii(self):
        ds = line_dataset(0, 1, 3)
        bad = geometry.nn_radii(ds) * 3.0
        assert geometry.check_packing(ds, bad) != []

    def test_far_clusters(self):
        # every nearest-neighbor distance is finite, so the dataset's own
        # radii certify; wider radii need the overlap search, whose squared
        # distances between the clusters overflow
        ds = line_dataset(0.0, 1.0, 1e160, 1e160 + 1e145)
        assert geometry.check_packing(ds, geometry.nn_radii(ds)) == []
        with pytest.raises(MalformedInput, match="distances .* overflow"):
            geometry.check_packing(ds, geometry.nn_radii(ds) * 3.0)

    def test_overflowed_nn_distance_never_certifies(self):
        pts = np.array([[0.0], [1e160]])
        with pytest.raises(MalformedInput, match="distances .* overflow"):
            geometry._certified_violations(pts, np.ones(2),
                                           np.full(2, np.inf))
        assert geometry._certified_violations(
            pts[:1], np.ones(1), np.full(1, np.inf)) == (True, [])

    def test_length_mismatch(self):
        ds = line_dataset(0, 1, 3)
        with pytest.raises(MismatchedLengths):
            geometry.check_packing(ds, np.ones(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_nonfinite_or_nonpositive_radius_rejected(self, bad, params_d1,
                                                      moduli_d1,
                                                      pure_noise_d1):
        ds = line_dataset(0, 1, 3)
        radii = geometry.nn_radii(ds)
        radii[1] = bad
        # every function that takes a dataset's radii checks them alike
        for check in (
                geometry.check_packing,
                geometry.check_packing_brute_force,
                lambda ds, r: interpolant.build(ds, r, 1.0, params_d1),
                lambda ds, r: interpolant.min_norm_upper_bound(ds, r,
                                                               moduli_d1),
                lambda ds, r: model.noisy_separated_subset(ds, r,
                                                           pure_noise_d1)):
            with pytest.raises(NonpositiveRadius):
                check(ds, radii)
        with pytest.raises(NonpositiveRadius):
            geometry.check_packing(ds, np.full(3, np.nan))


# -- tree paths against their O(n^2) oracles ---------------------------------


@st.composite
def datasets(draw):
    """Uniform clouds, lattice subsets with exact ties, and a cluster plus
    one far outlier, in d in {1, 2, 3} with 2 <= n <= 300."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["uniform", "lattice", "outlier"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "lattice":
        side = {1: 300, 2: 18, 3: 7}[d]
        grid = np.array(list(itertools.product(range(side), repeat=d)), float)
        n = draw(st.integers(2, min(300, len(grid))))
        pick = rng.choice(len(grid), size=n, replace=False)
        points = grid[pick] * draw(st.sampled_from([0.1, 0.5, 1.0]))
    else:
        n = draw(st.integers(2, 300))
        points = rng.uniform(-1.0, 1.0, size=(n, d))
        if kind == "outlier":
            points[-1] = 1e6
    return geometry.Dataset(points=points, labels=np.zeros(n))


class TestTreeCounts:
    def test_packing_with_own_radii_builds_no_tree(self, monkeypatch):
        ds = random_dataset(np.random.default_rng(3), 300, 3)
        built = count_trees(monkeypatch)
        assert geometry.check_packing(ds, geometry.nn_radii(ds)) == []
        assert built == []
        assert geometry.check_packing(ds, geometry.nn_radii(ds) * 3.0) != []
        assert built == [300]


class TestOracles:
    @given(ds=datasets(),
           factor=st.sampled_from([0.5, 1.0, np.nextafter(1.0, 2.0), 1.01,
                                   3.0, "jitter"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_check_packing_equals_brute_force(self, ds, factor, seed):
        radii = geometry.nn_radii(ds)
        if factor == "jitter":
            rng = np.random.default_rng(seed)
            radii = radii * rng.uniform(0.5, 3.0, size=ds.n)
        else:
            radii = radii * factor
        fast = geometry.check_packing(ds, radii)
        assert fast == geometry.check_packing_brute_force(ds, radii)
        if factor in (0.5, 1.0):
            assert fast == []

    @given(ds=datasets())
    def test_nn_graph_equals_brute_force(self, ds):
        assert geometry.nn_graph(ds) == geometry.nn_graph_brute_force(ds)

    @given(ds=datasets())
    def test_nn_radii_bit_equal_to_brute_force(self, ds):
        fast = geometry.nn_radii(ds)
        assert fast.tobytes() == geometry.nn_radii_brute_force(ds).tobytes()

    @pytest.mark.parametrize("scale", [0.1, 1.0])
    def test_full_cubic_lattice(self, scale):
        pts = np.array(list(itertools.product(range(12), repeat=3))) * scale
        ds = Dataset(points=pts, labels=np.zeros(len(pts)))
        graph = geometry.nn_graph(ds)
        assert graph == geometry.nn_graph_brute_force(ds)
        assert geometry.in_degrees(graph).max() <= geometry.kissing_number(3)
        for factor in (1.0, 1.01, 3.0):
            radii = geometry.nn_radii(ds) * factor
            assert (geometry.check_packing(ds, radii)
                    == geometry.check_packing_brute_force(ds, radii))

    def test_far_clusters_answered_without_overflow(self):
        # the squared distances between the clusters overflow: the oracles
        # read them as inf, "far", where the trees must refuse
        ds = line_dataset(0.0, 1.0, 1e160, 1e160 + 1e145)
        radii = geometry.nn_radii(ds)
        assert radii.tobytes() == geometry.nn_radii_brute_force(ds).tobytes()
        assert geometry.check_packing(ds, radii) == []
        assert geometry.check_packing_brute_force(ds, radii) == []
        assert geometry.check_packing_brute_force(ds, 3.0 * radii) == [
            (0, 1), (2, 3)]
        assert geometry.nn_graph_brute_force(ds).edges == {
            (0, 1), (1, 0), (2, 3), (3, 2)}


class TestPerturbation:
    def test_move_far_point(self):
        # radii (1, 1, 2) -> (1, 1, 9): only index 2 changes
        count = geometry.perturbation_changed_radii(
            line_dataset(0, 1, 3), 2, np.array([10.0]))
        assert count == 1

    def test_identity_move(self):
        count = geometry.perturbation_changed_radii(
            line_dataset(0, 1, 3), 1, np.array([1.0]))
        assert count == 0

    @pytest.mark.parametrize("index", [10, 2.5, True, -1, np.int64(-1)],
                             ids=["n", "float", "bool", "negative",
                                  "numpy-negative"])
    def test_index_out_of_range_rejected(self, index):
        ds = line_dataset(*range(10))
        with pytest.raises(InvalidRange, match="index"):
            geometry.perturbation_changed_radii(ds, index, np.array([20.0]))

    def test_numpy_integer_index(self):
        count = geometry.perturbation_changed_radii(
            line_dataset(0, 1, 3), np.int64(2), np.array([10.0]))
        assert count == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_replacement_rejected(self, bad):
        ds = line_dataset(*range(10))
        with pytest.raises(MalformedInput, match="finite"):
            geometry.perturbation_changed_radii(ds, 3, np.array([bad]))

    def test_overflowing_replacement_rejected(self):
        ds = line_dataset(0, 1, 3)
        with pytest.raises(MalformedInput, match="distance overflows"):
            geometry.perturbation_changed_radii(ds, 2, np.array([1e200]))

    def test_collision_rejected(self):
        with pytest.raises(DuplicatePoints):
            geometry.perturbation_changed_radii(
                line_dataset(0, 1, 3), 2, np.array([0.0]))

    @pytest.mark.parametrize("d", [1, 2])
    def test_random_trials_respect_bound(self, d):
        rng = np.random.default_rng(100 + d)
        bound = 1 + 2 * geometry.kissing_number(d)
        for _ in range(150):
            ds = random_dataset(rng, 128, d)
            i = int(rng.integers(0, 128))
            new = rng.uniform(-1, 1, size=d)
            count = geometry.perturbation_changed_radii(ds, i, new)
            # brute-force recomputation oracle
            moved = ds.points.copy()
            moved[i] = new
            before = geometry.nn_radii_brute_force(ds)
            after = geometry.nn_radii_brute_force(
                Dataset(points=moved, labels=ds.labels))
            assert count == int(np.count_nonzero(before != after))
            assert count <= bound
