"""Run the benchmark over several seeds and summarize each metric.

From the root of a checkout:

    python3 perfbench/sweep.py --workloads phase_scan,json_io --seeds 1-10 --trace 0 [--out FILE]

Each (workload, seed) runs ``BENCHMARK.json``'s command in a fresh process,
one after another.  For every metric the summary gives the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median; an end-to-end spread at or above a third of its bound is
flagged, except for ``setup_s``.  With ``--trace 1`` the summary also lists
each layer's share of the summed self time (every ``s`` metric is a self time) and whether every count (every
metric but the ``s`` timings and ``trace.overhead_frac``) repeated exactly
across the runs, which it must when all seeds are the same.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def run_once(bench: dict, workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma separated; default every workload")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 0,0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", help="write runs and summary here as JSON")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"python": platform.python_version(), "nproc": os.cpu_count(), "seconds": seconds,
              "trace": args.trace, "seeds": parse_seeds(args.seeds), "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in report["seeds"]:
            result = run_once(bench, workload, seed, args.trace, seconds)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed={seed} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)
        names = runs[0]["metrics"]
        summary = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names}
        entry = {"runs": runs, "summary": summary,
                 "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)}
        if args.trace:
            selfs = {n.removesuffix("_s").removesuffix(".self"): s["median"]
                     for n, s in summary.items() if names[n]["unit"] == "s"}
            total = sum(selfs.values())
            entry["self_time_share"] = {k: round(v / total, 4) for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])}
            counts = [n for n in names if names[n]["unit"] != "s" and n != "trace.overhead_frac"]
            entry["counts_repeat"] = all(len({r["metrics"][n]["value"] for r in runs}) == 1 for n in counts)
        report["workloads"][workload] = entry
        for name, s in summary.items():
            flag = ""
            if name in bounds and name != "setup_s" and s["spread"] >= bounds[name] / 3:
                flag = f"  SPREAD >= bound/3 ({bounds[name] / 3:.3f})"
            print(f"{workload:11s} {name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}{flag}")
        if args.trace:
            print(f"{workload:11s} self-time share {entry['self_time_share']}  counts repeat: {entry['counts_repeat']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
