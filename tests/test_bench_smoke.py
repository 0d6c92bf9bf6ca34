"""The benchmark harness still runs against the program.

``bench/tracing.py`` builds ``bump.BumpSum(centers=, radii=, weights=)``
itself and calls ``experiments.morrey_exact_trial`` in the ``morrey_d1``
replay and in the probe of every traced workload.  Its replays and probe
also call ``interpolant.build``, which returns a ``BumpSum`` too, and
``interpolant.evaluate``, ``interpolant.gamma_report`` and
``interpolant.sobolev_norm`` on what it returns.  A change of any of these
APIs breaks the benchmark without breaking any other test.  Smoke runs of
the two traced workloads, ``morrey_d1`` and ``gamma_d2_tilted``, cover
them; they write their files to the git-ignored ``.bench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _assert_traced_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True, proc.stdout[-2000:]


def test_traced_morrey_smoke_run_is_correct():
    _assert_traced_smoke_run_is_correct("morrey_d1")


def test_traced_gamma_smoke_run_is_correct():
    _assert_traced_smoke_run_is_correct("gamma_d2_tilted")
