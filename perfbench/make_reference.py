"""Record the reference output digest of every job any seed can produce.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py [WORKLOAD ...]

Writes ``perfbench/reference/<workload>.json``, mapping each job key (each
cell key, for phase_scan) to the digest of its exit code and output bytes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402  (needs src/ on the path)


def reference(workload: str, workdir: Path) -> dict[str, str]:
    universe = wl.UNIVERSES[workload](workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in universe.inputs.items():
        (workdir / name).write_text(text)
    digests = {}
    for jobs in universe.classes.values():
        for job in jobs:
            code, stdout = wl.run_job(job)
            if job.cells:
                row = stdout.decode().splitlines()[0]
                digests[job.key] = wl.digest(row.encode())
            else:
                digests[job.key] = wl.job_digest(job, code, stdout)
                if code != 0 or not wl.spot_check(job, wl.job_output(job, stdout).decode()):
                    raise SystemExit(f"{workload}: job {job.key!r} fails at the reference commit")
    return dict(sorted(digests.items()))


def main(names: list[str]) -> int:
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in names or wl.UNIVERSES:
        workdir = ROOT / "perfbench" / "out" / f"reference-{workload}"
        try:
            digests = reference(workload, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = wl.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(digests, indent=0) + "\n")
        print(f"{workload}: {len(digests)} reference digests -> {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
