import numpy as np
import pytest
from hypothesis import settings

from sobolab import bump, model

# Property tests draw the same examples on every run, so the suite's time
# and verdict are reproducible; no example database is written.
settings.register_profile("sobolab", derandomize=True, max_examples=60,
                          deadline=None, database=None)
settings.load_profile("sobolab")

# Canonical parameter triples in the strict range k in (d/p, 1.5 d/p);
# (3, 2, 2) matches the kernel-regression regime.
CANONICAL = {
    1: dict(k=1, p=1.25, d=1),
    2: dict(k=1, p=2.5, d=2),
    3: dict(k=2, p=2.0, d=3),
}


@pytest.fixture(scope="session")
def params_d1():
    return bump.SobolevParams(**CANONICAL[1])


@pytest.fixture(scope="session")
def params_d2():
    return bump.SobolevParams(**CANONICAL[2])


@pytest.fixture(scope="session")
def params_d3():
    return bump.SobolevParams(**CANONICAL[3])


@pytest.fixture(scope="session")
def moduli_d1(params_d1):
    return bump.reference_moduli(params_d1)


@pytest.fixture(scope="session")
def moduli_d2(params_d2):
    return bump.reference_moduli(params_d2)


@pytest.fixture(scope="session")
def moduli_d3(params_d3):
    return bump.reference_moduli(params_d3)


@pytest.fixture(scope="session")
def pure_noise_d1(params_d1):
    """Uniform unit interval domain, g = 0, sigma = 1."""
    return model.DistributionSpec(params=params_d1)


@pytest.fixture(scope="session")
def pure_noise_d3(params_d3):
    return model.DistributionSpec(params=params_d3)


def random_dataset(rng, n, d, box=1.0):
    """Distinct uniform points with standard normal labels."""
    from sobolab.geometry import Dataset

    pts = rng.uniform(-box, box, size=(n, d))
    return Dataset(points=pts, labels=rng.standard_normal(n))


def count_trees(monkeypatch):
    """Wrap ``cKDTree`` in ``scipy.spatial`` and in every loaded sobolab
    module that binds it; returns the list of the point counts of the trees
    built through them, which grows as they are built."""
    import sys

    import scipy.spatial
    from scipy.spatial import cKDTree

    built = []

    def counted(data, *args, **kwargs):
        built.append(len(data))
        return cKDTree(data, *args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", counted)
    for name, module in list(sys.modules.items()):
        if name.startswith("sobolab") and hasattr(module, "cKDTree"):
            monkeypatch.setattr(module, "cKDTree", counted)
    return built


def support_probes(centers, radii):
    """Points exactly on c_i +- r_i e_j and c_i +- (r_i / 2) e_j for every
    bump i and axis j, and two points beyond every support."""
    centers = np.asarray(centers, dtype=float)
    d = centers.shape[1]
    steps = np.concatenate([np.eye(d), -np.eye(d)])
    probes = [c + s * step for c, r in zip(centers, radii)
              for s in (r, r / 2.0) for step in steps]
    reach = 2.0 * float(np.max(radii)) + 1.0
    probes += [centers.min(axis=0) - reach, centers.max(axis=0) + reach]
    return np.array(probes)


def peak_traced_bytes(fn):
    """Peak bytes allocated through Python's allocators (numpy arrays
    included) while ``fn()`` runs, above what was allocated before it.

    Memory that C or C++ code allocates itself is not seen: a scipy
    ``cKDTree``'s nodes and query buffers, for one, never show up here, so
    a bound written with this function says nothing about them.
    """
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
