"""The benchmark harness still runs against the program.

``bench/tracing.py`` calls ``experiments.morrey_exact_trial`` and
``bump.BumpSum`` directly, in the ``morrey_d1`` replay and in the probe of
every traced workload, so a change of either API breaks the benchmark
without breaking any other test.  A smoke run of the traced ``morrey_d1``
workload covers both; it writes its files to the git-ignored
``.bench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_morrey_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "morrey_d1", "--smoke", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True, proc.stdout[-2000:]
