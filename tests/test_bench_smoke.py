"""The benchmark harness still runs against the program.

``bench/tracing.py`` builds ``bump.BumpSum(centers=, radii=, weights=)``
itself and calls ``experiments.morrey_exact_trial`` in the ``morrey_d1``
replay and in the probe of every traced workload.  Its replays and probe
also call ``interpolant.build``, which returns a ``BumpSum`` too, and
``interpolant.evaluate``, ``interpolant.gamma_report`` and
``interpolant.sobolev_norm`` on what it returns.  A change of any of these
APIs breaks the benchmark without breaking any other test.

Two checks cover them.  A fast one reads ``bench/*.py`` with ``ast`` and
resolves every name imported from ``sobolab`` and every attribute read on
an imported ``sobolab`` module, so a renamed or moved function fails it,
in every replay, including the ``norm_d3`` and ``risk_kernel_d3`` ones that
no smoke run reaches.  Smoke runs of the two traced workloads,
``morrey_d1`` and ``gamma_d2_tilted``, then check that the calls still
work; they write their files to the git-ignored ``.bench_out/``.
``tests/test_morrey.py`` checks that the replay's copy of the Morrey draw
matches the program's bit for bit.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent


def _unresolved_sobolab_names(source, filename):
    """``file:line: name`` for each ``sobolab`` name in ``source`` that does
    not resolve: names imported from a ``sobolab`` module, and attributes
    read on a name bound to such a module."""
    tree = ast.parse(source, filename)
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sobolab":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        modules[alias.asname] = module
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "sobolab"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    missing.append(f"{filename}:{node.lineno}: "
                                   f"{node.module}.{alias.name}")
                    continue
                value = getattr(module, alias.name)
                if isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{filename}:{node.lineno}: "
                           f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


def test_every_sobolab_name_in_bench_resolves():
    scripts = sorted((ROOT / "bench").glob("*.py"))
    assert scripts
    missing = [name for path in scripts for name in _unresolved_sobolab_names(
        path.read_text(encoding="utf-8"), path.name)]
    assert missing == []


def test_unresolved_name_is_reported():
    source = ("from sobolab import experiments\n"
              "from sobolab.bump import BumpSum, no_such_function\n"
              "experiments.run_sweep\n"
              "experiments.no_such_trial\n")
    assert _unresolved_sobolab_names(source, "probe.py") == [
        "probe.py:2: sobolab.bump.no_such_function",
        "probe.py:4: sobolab.experiments.no_such_trial",
    ]


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
