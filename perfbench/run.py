"""anticonc benchmark: closed-loop jobs through the public entry points.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs jobs back to back in this process for S seconds; every
output is checked against ``reference/<workload>.json`` and the closed-form
spot checks in `workloads.spot_check`.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics of BENCHMARK.json.  ``setup_s`` is the
  median, over several fresh interpreters, of the time from launch to the
  moment the first job may start (import, parser build, inputs written).
- ``--trace 1``: the per-layer metrics.  A fixed prefix of the seeded job
  stream runs twice per job, once plain and once with `tracing.Tracer`
  installed, alternating which goes first; counters come from the traced
  executions and repeat exactly for a given seed and length, and
  ``trace.overhead_frac`` compares the two.  Spans are written to
  ``perfbench/out/spans-<workload>-<seed>.jsonl``.

Failed jobs are reported as ``failed`` out of ``attempted`` (failed_frac).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_PROBES = 7
# Traced-pass length in jobs per second of --seconds, sized so that both
# passes together take about --seconds at the baseline commit.
TRACE_JOBS_PER_SECOND = {"phase_scan": 4.0, "asym_tail": 3.5, "small_laws": 10.0, "json_io": 40.0}


def _import_workloads():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import workloads  # noqa: E402  (needs src/ on the path)

    return workloads


def _workdir(workload: str, seed: int) -> Path:
    return OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"


def probe_setup(workload: str, seed: int) -> int:
    """Child side of a setup probe: set up, say so, clean up."""
    wl = _import_workloads()
    workdir = _workdir(workload, seed)
    try:
        next(wl.setup(workload, seed, workdir))
        sys.stdout.write("ready\n")
        sys.stdout.flush()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> float:
    """Median launch-to-ready time of fresh interpreters running the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return statistics.median(times)


def _execute(wl, runner, job, reference) -> tuple[float, bool, int]:
    """Run one job; (latency, correct, bytes of output).  A job that raises fails."""
    start = perf_counter()
    try:
        code, stdout = runner(job)
    except Exception:
        latency = perf_counter() - start
        print(f"job {job.key!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return latency, False, 0
    latency = perf_counter() - start
    ok = wl.verify(job, code, stdout, reference)
    if not ok:
        print(f"job {job.key!r}: wrong exit code or output", file=sys.stderr)
    return latency, ok, len(wl.job_output(job, stdout))


def end_to_end(wl, workload: str, seed: int, seconds: float, runner, workdir: Path) -> dict:
    setup_s = measure_setup(workload, seed)
    stream = wl.setup(workload, seed, workdir)
    reference = wl.load_reference(workload)
    latencies, failed = [], 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        latency, ok, _ = _execute(wl, runner, next(stream), reference)
        latencies.append(latency)
        failed += not ok
    attempted = len(latencies)
    p90 = statistics.quantiles(latencies, n=10)[-1] if attempted > 1 else latencies[0]
    above = sum(t > p90 for t in latencies)
    print(f"{workload} seed={seed}: {attempted} jobs, {failed} failed "
          f"(failed_frac {failed / attempted:.4f}), {above} samples above p90")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "jobs_per_s": ((attempted - failed) / sum(latencies), "jobs/s"),
            "job_p50_s": (statistics.median(latencies), "s"),
            "job_p90_s": (p90, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def traced(wl, workload: str, seed: int, seconds: float, runner, workdir: Path) -> dict:
    import tracing

    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    count = max(2, round(seconds * TRACE_JOBS_PER_SECOND[workload]))
    jobs = list(itertools.islice(wl.setup(workload, seed, workdir), count))
    reference = wl.load_reference(workload)
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    failed, bytes_read, bytes_written = 0, 0, 0
    for i, job in enumerate(jobs):
        tracer.job = i
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            with tracer if with_trace else contextlib.nullcontext():
                latency, ok, written = _execute(wl, runner, job, reference)
            if with_trace:
                traced_s += latency
                bytes_read += sum(_file_size(p) for p in job.reads)
                bytes_written += written
            else:
                plain_s += latency
            failed += not ok
    metrics = tracing.layer_metrics(tracer.spans, (bytes_read, bytes_written))
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}-{seed}.jsonl")
    print(f"{workload} seed={seed}: {len(jobs)} jobs traced, {len(tracer.spans)} spans, {failed} failed")
    return {
        "attempted": 2 * len(jobs),
        "failed": failed,
        "metrics": {name: (metrics[name], units[name]) for name in units},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, runner=None) -> dict:
    """Run one workload and return the result object (metrics as (value, unit))."""
    wl = _import_workloads()
    runner = runner or wl.run_job
    workdir = _workdir(workload, seed)
    try:
        measure = traced if trace else end_to_end
        return measure(wl, workload, seed, seconds, runner, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("phase_scan", "asym_tail", "small_laws", "json_io"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "anticonc" / "__init__.py").is_file():
        print(f"error: no anticonc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
