"""Self-test of the benchmark harness, on smoke-sized sweeps.

    python3 bench/selftest.py

Checks that every workload, in both modes, passes and emits exactly the
metrics BENCHMARK.json names, each with its unit; that a corrupted reference
row and a contract that cannot pass each make a run fail; and that the
benchmark refuses to run without the program's sources.  Exits 0 when every
check holds.  Scratch files go to .bench_out/selftest and are removed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out" / "selftest"
WORKLOADS = ("norm_d3", "risk_kernel_d3", "gamma_d2_tilted", "morrey_d1")
SEED = 5


def run(*args, script=BENCH / "run.py"):
    """(exit code, stdout, parsed result line or None)."""
    proc = subprocess.run([sys.executable, str(script), *map(str, args)],
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, proc.stdout, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    configs, refs = WORK / "workloads", WORK / "reference"
    shutil.copytree(BENCH / "workloads", configs)
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    def smoke(workload, trace=0, reference=refs):
        return run("--workload", workload, "--smoke", "--seed", SEED,
                   "--seconds", 1, "--trace", trace,
                   "--workload-dir", configs, "--reference-dir", reference)

    for workload in WORKLOADS:
        code, _, _ = run("--workload", workload, "--smoke", "--record", SEED,
                         "--workload-dir", configs, "--reference-dir", refs)
        check(code == 0, f"{workload}: smoke reference rows recorded")
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, out, res = smoke(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: m["unit"] for k, m in res["metrics"].items()} if res else {}
            check(code == 0 and res["correct"] and got == want,
                  f"{workload} --trace {trace}: correct, every {group} "
                  "metric emitted with its unit")
            if trace == 0:
                check("contract_fail_frac" in out and "row_mismatch_frac" in out
                      and "vs the recorded reference rows" in out,
                      f"{workload}: fail and mismatch fractions printed, "
                      "rows compared with the reference")

    ref_path = refs / "norm_d3.smoke.json"
    ref = json.loads(ref_path.read_text())
    ref["seeds"][str(SEED)][3][4] *= 1.0 + 1e-6
    ref_path.write_text(json.dumps(ref))
    code, _, res = smoke("norm_d3")
    check(code == 1 and res is not None and not res["correct"]
          and res["metrics"]["row_match_frac"]["value"] < 1.0,
          "a corrupted reference row fails the run")

    ini = configs / "risk_kernel_d3.ini"
    text = ini.read_text()
    ini.write_text(text.replace("plateau_ratio = 0.1", "plateau_ratio = 1e9"))
    code, _, res = smoke("risk_kernel_d3", reference=WORK / "no-reference")
    check(code == 1 and res is not None and not res["correct"]
          and res["metrics"]["contract_pass_frac"]["value"] < 1.0,
          "a contract that cannot pass fails the run")

    bare = WORK / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, _, res = run("--workload", "morrey_d1", "--seed", SEED,
                       "--seconds", 1, script=bare / "bench" / "run.py")
    check(code not in (0, 1) and res is None,
          "without the program's sources: no result, non-zero exit")

    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
