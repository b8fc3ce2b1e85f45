"""The benchmark's own smoke test: a one-second run of every workload.

    python3 perfbench/smoke.py

For each workload, an untraced and a traced run must exit 0 and print a
result with no failed op, every metric BENCHMARK.json names with its unit,
and each per-layer metric nonzero exactly where the workload calls that
layer. Last, the benchmark must refuse to run, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark. Exits 1 on
the first broken check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

# per-layer metrics that read 0 because the workload never calls that layer
ZERO_ON = {
    "l96_enkpf": {"experiment.read_matrix_csv_ms", "cli.self_ms"},
    "update_cli": {
        "models.propagate_ms",
        "models.propagate_truth_ms",
        "models.propagate_calls",
        "scoring.ms",
        "experiment.self_ms",
    },
}
# may read either sign
SIGNED = {"trace.overhead_frac"}


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _check(workload: str, trace: int, spec: dict) -> list[str]:
    proc = _run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{where}: failed_frac {result['failed']}/{result['attempted']}")
    names = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in names):
        problems.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in names:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r}, not {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)):
            problems.append(f"{where}: {m['name']} has no value")
        elif m["name"] in SIGNED:
            continue
        elif trace and m["name"] in ZERO_ON[workload]:
            if value != 0:
                problems.append(f"{where}: {m['name']} = {value}, expected 0")
        elif not value > 0:
            problems.append(f"{where}: {m['name']} = {value}, expected > 0")
    return problems


def _check_bare() -> list[str]:
    """Without the program beside it, the benchmark must fail and print no result."""
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "l96_enkpf", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace in (0, 1):
            found = _check(wl["name"], trace, spec)
            print(f"{wl['name']} --trace {trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    found = _check_bare()
    print(f"bare directory refused: {'ok' if not found else 'FAIL'}")
    problems += found
    for p in problems:
        print("  " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
