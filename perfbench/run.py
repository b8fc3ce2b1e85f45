"""The enkpf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload l96_enkpf --seed 1 --seconds 15 --trace 0

Run from anywhere; the checkout is the directory above this file, and the
program measured is the enkpf in its src/. Workloads and their input
cases are defined in cases.py, the reasons for them in README.md.

Load is one process, closed loop, one client: the next op starts when
the last one has returned. An op is one assimilation cycle (l96_enkpf)
or one `enkpf update` request through `enkpf.cli.main` (update_cli).
BLAS thread pools are left at the library default and recorded with the
result.

--trace 0 measures for --seconds and prints the end-to-end metrics.
--trace 1 alternates untraced and traced stretches for --seconds in all,
prints a self-time breakdown per op, and the per-layer metrics, among
them the tracing overhead.

Every op's output is checked against the digest stored in
reference.json; an op that raises, exits non-zero or mismatches counts as
failed. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import envinfo
from cases import (
    CASES,
    REFERENCE,
    WORKLOADS,
    CyclingWorkload,
    cycling_digest,
    update_digest,
)
from tracer import Tracer, breakdown, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# update_cli alternates traced and untraced stretches of this many requests
UPDATE_CHUNK = 8


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import enkpf from this checkout's src/, or exit non-zero."""
    src = ROOT / "src"
    if not (src / "enkpf" / "__init__.py").is_file():
        _fail(f"no enkpf package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import enkpf

    if src.resolve() not in Path(enkpf.__file__).resolve().parents:
        _fail(f"imported enkpf from {enkpf.__file__}, not from {src}")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Call:
    """One call into the program, covering `ops` ops that fail together."""

    ops: int
    wall_s: float
    cpu_s: float
    samples_ms: list  # per-op wall times; empty when the call raised or exited non-zero
    error: str | None  # why the ops failed, a digest mismatch included
    digest: str | None = None  # of the outputs, when the call completed


class Phase:
    """Timed ops of one kind (untraced or traced)."""

    def __init__(self):
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.samples_ms: list[float] = []

    def add(self, call: Call):
        self.attempted += call.ops
        self.completed += call.ops if call.samples_ms else 0
        self.failed += call.ops if call.error else 0
        self.wall_s += call.wall_s
        self.cpu_s += call.cpu_s
        self.samples_ms.extend(call.samples_ms)

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.wall_s


class _Runner:
    """Runs one case per call and checks its digest against `digests`
    (a list indexed by case; None to only compute it)."""

    def __init__(self, wl, digests, tmp: Path):
        self.wl, self.digests, self.tmp = wl, digests, tmp

    def _check(self, case: int, digest: str) -> str | None:
        if self.digests is not None and digest != self.digests[case]:
            return f"case {case}: output digest differs from the reference"
        return None


class CyclingRunner(_Runner):
    """Runs one batch of cycles per case; the op is a cycle."""

    chunk = 1

    def warm_up(self, case: int):
        import enkpf.experiment

        enkpf.experiment.run_experiment(
            self.wl.experiment_config(case, cycles=2), out_dir=str(self.tmp / "warmup")
        )

    def run(self, case: int, tracer=None) -> Call:
        import enkpf.experiment

        cfg = self.wl.experiment_config(case)
        out = self.tmp / "batch"
        shutil.rmtree(out, ignore_errors=True)
        root = tracer.root("experiment.run") if tracer else contextlib.nullcontext()
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            with root:
                enkpf.experiment.run_experiment(cfg, out_dir=str(out))
        except Exception:  # a failed op is counted and the run goes on
            t1, c1 = time.perf_counter(), _cpu_s()
            return Call(cfg.cycles, t1 - t0, c1 - c0, [], traceback.format_exc(limit=3))
        t1, c1 = time.perf_counter(), _cpu_s()
        try:
            digest, samples = cycling_digest(out)
        except (OSError, ValueError) as err:
            return Call(cfg.cycles, t1 - t0, c1 - c0, [], f"case {case}: outputs unreadable: {err}")
        return Call(cfg.cycles, t1 - t0, c1 - c0, samples, self._check(case, digest), digest)


class UpdateRunner(_Runner):
    """One `enkpf update --gamma auto` request per case; the op is a request."""

    chunk = UPDATE_CHUNK

    def __init__(self, wl, digests, tmp: Path):
        super().__init__(wl, digests, tmp)
        for case in range(CASES):
            wl.write_case(case, tmp / f"case{case}")

    def warm_up(self, case: int):
        self.run(case)

    def run(self, case: int, tracer=None) -> Call:
        import enkpf.cli

        out = self.tmp / "analysis.csv"
        if out.exists():
            out.unlink()
        argv = self.wl.argv(case, self.tmp / f"case{case}", out)
        root = tracer.root("cli.main") if tracer else contextlib.nullcontext()
        code, error = None, None
        with contextlib.redirect_stderr(io.StringIO()) as err:
            c0, t0 = _cpu_s(), time.perf_counter()
            try:
                with root:
                    code = enkpf.cli.main(argv)
            except Exception:  # a failed op is counted and the run goes on
                error = traceback.format_exc(limit=3)
            t1, c1 = time.perf_counter(), _cpu_s()
        wall, cpu = t1 - t0, c1 - c0
        if error is None and code != 0:
            error = f"case {case}: exit code {code}: {err.getvalue().strip()}"
        if error is not None:
            return Call(1, wall, cpu, [], error)
        try:
            digest = update_digest(out, err.getvalue())
        except OSError as exc:
            return Call(1, wall, cpu, [wall * 1e3], f"case {case}: output unreadable: {exc}")
        return Call(1, wall, cpu, [wall * 1e3], self._check(case, digest), digest)


def make_runner(wl, digests, tmp: Path) -> _Runner:
    return (CyclingRunner if isinstance(wl, CyclingWorkload) else UpdateRunner)(wl, digests, tmp)


def measure(runner, order, seconds: float, tracer=None):
    """Closed loop over the cases in `order` until `seconds` of ops ran.

    With a tracer, stretches of `runner.chunk` ops alternate between
    untraced and traced, so both see the same conditions.
    """
    plain, traced = Phase(), Phase()
    errors = []
    i = 0
    while plain.wall_s + traced.wall_s < seconds or (tracer is not None and not traced.attempted):
        on = tracer is not None and (i // runner.chunk) % 2 == 1
        if tracer is not None and i % runner.chunk == 0:
            if on:
                tracer.install()
            else:
                tracer.uninstall()
        call = runner.run(int(order[i % len(order)]), tracer if on else None)
        (traced if on else plain).add(call)
        if call.error:
            errors.append(call.error)
        i += 1
    if tracer is not None:
        tracer.uninstall()
    return plain, traced, errors


def setup_times(workload) -> list[float]:
    target = str(ROOT / workload.config) if isinstance(workload, CyclingWorkload) else "update_cli"
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), target],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    import_program()
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not REFERENCE.is_file():
        _fail(f"no reference digests at {REFERENCE}; run make_reference.py")
    wl = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())
    stored = reference["workloads"][wl.name]
    if isinstance(wl, CyclingWorkload) and stored["cycles"] != wl.cycles:
        _fail(f"reference made with {stored['cycles']} cycles per case, workload runs {wl.cycles}")

    tmp = WORK / f"tmp-{wl.name}-{os.getpid()}"
    try:
        tmp.mkdir(parents=True, exist_ok=True)
        setups = setup_times(wl)
        runner = make_runner(wl, stored["digests"], tmp)
        order = np.random.default_rng(args.seed).permutation(CASES)
        runner.warm_up(int(order[-1]))
        tracer = Tracer() if args.trace else None
        ticks = envinfo.cpu_ticks()
        plain, traced, errors = measure(runner, order, args.seconds, tracer)
        steal = envinfo.steal_frac(ticks, envinfo.cpu_ticks())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = envinfo.environment()
    env["steal_frac"] = steal
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    if errors:
        here = envinfo.platform_key(env)
        if here != reference["platform"]:
            errors.append(
                "this platform differs from the one the references were made on "
                f"({reference['platform']} there, {here} here); bitwise digests need not "
                "hold across OpenBLAS kernels or numpy SIMD paths: rerun make_reference.py "
                "at the parent commit on this machine"
            )
        for e in errors[:5]:
            print(f"perfbench: failed op: {e}", file=sys.stderr)
    if not plain.completed or (args.trace and not traced.completed):
        _fail("no op completed, so there is nothing to measure")

    if args.trace:
        ops = traced.attempted
        values = {}
        for name, (value, unit, gone) in layer_metrics(tracer, ops).items():
            values[name] = (value, unit)
            if gone:
                print(f"perfbench: {name} missing, target not found: {', '.join(gone)}")
        threads = {c["owner"]: c["threads"] for c in env["openblas"]}
        values["blas.numpy_threads"] = (threads.get("numpy"), "count")
        values["blas.scipy_threads"] = (threads.get("scipy"), "count")
        values["trace.overhead_frac"] = (
            (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s,
            "frac",
        )
        print(f"self-time breakdown per op ({wl.name}, {ops} traced ops):")
        for line in breakdown(tracer, ops):
            print("  " + line)
    else:
        samples = plain.samples_ms
        values = {
            "ops_per_s": (plain.ops_per_s, "1/s"),
            "op_ms.p50": (statistics.median(samples), "ms"),
            "op_ms.p90": (statistics.quantiles(samples, n=10, method="inclusive")[-1], "ms"),
            "cpu_ms_per_op": (plain.cpu_s * 1e3 / plain.attempted, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(
            f"{wl.name}: {plain.attempted} ops in {plain.wall_s:.2f} s, "
            f"{len(samples)} op_ms samples, {sum(s > values['op_ms.p90'][0] for s in samples)} "
            f"beyond p90, failed_frac {failed / attempted:.4g} ({failed}/{attempted})"
        )
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    print("env: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
