"""Source checks: every distance the package decides on is ``_sq_norm``'s.

A ball membership, boundary crossing or step length computed with another
routine may round differently from the fixed-order sum of squares that the
geometry oracles use, so a point on a sphere could fall on different sides
in two modules.  ``rkhs`` is the one exception: its pairwise distances are
the kernel's own r, as the ``geometry`` module docstring says.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "sobolab"
OTHER_DISTANCES = re.compile(r"linalg\.norm|hypot|math\.dist|cdist")


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "rkhs.py"],
    ids=lambda p: p.name)
def test_no_other_distance_routine(path):
    hits = [f"{path.name}:{i}: {line.strip()}"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if OTHER_DISTANCES.search(line)]
    assert hits == []


def test_the_exception_is_named():
    assert OTHER_DISTANCES.search((SRC / "rkhs.py").read_text())
    docstring = (SRC / "geometry.py").read_text().split('"""')[1]
    assert "rkhs.kernel_matrix" in docstring
