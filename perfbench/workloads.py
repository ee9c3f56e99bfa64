"""Seeded job streams for the anticonc benchmark.

A job goes through a public entry point of anticonc, the way users drive it:
``anticonc.cli.main(argv)`` called in-process with stdout captured, or
``anticonc.search.k_phase_scan`` for phase-scan cells, which the CLI cannot
address one by one.

Every workload draws its jobs from a fixed, finite universe, so that
``reference/<workload>.json`` can hold the reference output of every job any
seed can produce.  The seed picks the order of the rounds and the parameters
of each class.  A stream is built in rounds: every round holds one job of each
class in a seeded order, and each class walks its own seeded permutation of
its parameter list, so a run that stops partway has the same mix as a long
one.

All inputs the program reads are written here with the standard library
only; the program sees nothing but those files and the command lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

from anticonc import cli, search

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

PHASE_N = 31
PHASE_GRID = 512            # p = i / 1024 for i = 1..512, the ROADMAP's headline scan
PHASE_CELLS_PER_JOB = 2


@dataclass(frozen=True)
class Job:
    """One unit of work; `key` names it without any file path."""

    key: str
    argv: tuple[str, ...] = ()     # CLI arguments; empty for a phase-scan job
    cells: tuple[int, ...] = ()    # phase-scan grid indices i, p = i / 1024
    reads: tuple[str, ...] = ()    # files the CLI reads through --in
    out: str | None = None         # file the CLI writes through --out


# -- running and checking jobs -------------------------------------------------


def run_job(job: Job) -> tuple[int, bytes]:
    """Run one job through anticonc's public entry point; (exit code, stdout)."""
    if job.cells:
        diagram = search.k_phase_scan(PHASE_N, [Fraction(i, 2 * PHASE_GRID) for i in job.cells])
        return 0, phase_text(diagram).encode()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(job.argv))
    return code, out.getvalue().encode()


def phase_text(diagram) -> str:
    """Rows as `anticonc scan kphase` prints them, then the observed splits."""
    lines = [
        f"{diagram.n},{c.p.numerator},{c.p.denominator},{';'.join(map(str, c.best_ks))},"
        f"{c.best_value.numerator}/{c.best_value.denominator}"
        for c in diagram.cells
    ]
    lines.append("observed_ks," + ";".join(map(str, diagram.observed_ks)))
    return "\n".join(lines) + "\n"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def job_output(job: Job, stdout: bytes) -> bytes:
    """What the user gets from a job: stdout, then the --out file if any."""
    if job.out is None:
        return stdout
    try:
        return stdout + Path(job.out).read_bytes()
    except OSError:
        return stdout


def job_digest(job: Job, code: int, stdout: bytes) -> str:
    return digest(f"{code}\n".encode() + job_output(job, stdout))


def load_reference(workload: str) -> dict[str, str]:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def verify(job: Job, code: int, stdout: bytes, reference: dict[str, str]) -> bool:
    """True when the job's exit code and output match this benchmark's reference.

    Phase-scan jobs are checked cell by cell, because a seed groups cells
    freely; every other job is checked as a whole.  The closed-form spot
    checks run as well and do not consult the reference.  Output that does
    not parse is wrong, not an error of the benchmark.
    """
    try:
        if job.cells:
            return code == 0 and _verify_phase(job, stdout.decode(), reference)
        if reference.get(job.key) != job_digest(job, code, stdout):
            return False
        return spot_check(job, job_output(job, stdout).decode())
    except (ValueError, IndexError, KeyError, TypeError):
        return False


def _verify_phase(job: Job, text: str, reference: dict[str, str]) -> bool:
    *rows, last = text.splitlines()
    want = {_p_key(i) for i in job.cells}
    seen, ks = set(), set()
    for row in rows:
        fields = row.split(",")
        key = f"{fields[1]}/{fields[2]}"
        if reference.get(key) != digest(row.encode()):
            return False
        seen.add(key)
        ks.update(int(k) for k in fields[3].split(";"))
    return seen == want and len(rows) == len(want) and last == "observed_ks," + ";".join(map(str, sorted(ks)))


def _p_key(i: int) -> str:
    p = Fraction(i, 2 * PHASE_GRID)
    return f"{p.numerator}/{p.denominator}"


def _flag(argv: tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def spot_check(job: Job, output: str) -> bool:
    """Closed forms that hold whatever the reference file says.

    - `asym tnzero` at p = 1/2 and even n: P(T_n = 0) = C(n, n/2) / 2^n;
    - `asym wagner` with b = 2, c = 1: the central coefficient of (x + 1)^(2n)
      is C(2n, n);
    - every distribution in a JSON output has exact total mass 1.
    """
    argv = job.argv
    if argv[:2] == ("asym", "tnzero") and _flag(argv, "--p") == "1/2" and int(_flag(argv, "--n")) % 2 == 0:
        n = int(_flag(argv, "--n"))
        return _csv_exact(output) == Fraction(math.comb(n, n // 2), 2**n)
    if argv[:2] == ("asym", "wagner") and (_flag(argv, "--b"), _flag(argv, "--c")) == ("2", "1"):
        n = int(_flag(argv, "--n"))
        return _csv_exact(output) == math.comb(2 * n, n)
    if argv[0] == "decompose" or argv[:2] in (("dist", "conv"), ("family", "binom"), ("family", "tn")):
        payload = json.loads(output)
        laws = [payload[k] for k in ("mu1", "mu2") if k in payload] if argv[0] == "decompose" else [payload]
        return all(sum(Fraction(m) for _, m in law["atoms"]) == 1 for law in laws)
    return True


def _csv_exact(output: str) -> Fraction:
    header, row = output.splitlines()[:2]
    return Fraction(row.split(",")[header.split(",").index("exact")])


# -- inputs the program reads ------------------------------------------------------


def law_json(dim: int, entries: dict[tuple[int, ...], Fraction]) -> str:
    """Canonical serialized law, written without anticonc."""
    atoms = [[list(p), f"{m.numerator}/{m.denominator}"] for p, m in sorted(entries.items())]
    return json.dumps({"dim": dim, "atoms": atoms}, separators=(",", ":"))


def random_law(rng: random.Random, dim: int, atoms: int, span: int, weight_bits: int) -> dict:
    """A law on `atoms` distinct points of [-span, span]^dim with random masses."""
    points: set[tuple[int, ...]] = set()
    while len(points) < atoms:
        points.add(tuple(rng.randint(-span, span) for _ in range(dim)))
    weights = [rng.randint(1, 2**weight_bits) for _ in points]
    total = sum(weights)
    return {p: Fraction(w, total) for p, w in zip(sorted(points), weights)}


# -- universes --------------------------------------------------------------------
#
# A universe maps each job class to its full parameter list, with input files
# placed under `workdir`.  `inputs` maps each input file name to its text.


@dataclass(frozen=True)
class Universe:
    classes: dict[str, list[Job]]
    inputs: dict[str, str]


def _cli(command: str, workdir: Path) -> Job:
    """A CLI job; an argument written `@name` is the file `name` under workdir."""
    argv = tuple(str(workdir / a[1:]) if a.startswith("@") else a for a in command.split())
    reads = tuple(argv[i + 1] for i, a in enumerate(argv) if a == "--in")
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    return Job(key=command.replace("@", ""), argv=argv, reads=reads, out=out)


def phase_scan_universe(workdir: Path) -> Universe:
    # One class; a job is PHASE_CELLS_PER_JOB consecutive cells of the stream.
    return Universe({"cell": [Job(key=_p_key(i), cells=(i,)) for i in range(1, PHASE_GRID + 1)]}, {})


def asym_tail_universe(workdir: Path) -> Universe:
    # Sizes step finely so that latency quantiles do not jump between a few
    # job costs; one tnzero job sits at n = 512, far in the tail.
    def alternate(values, options):
        return [(v, options[i % len(options)]) for i, v in enumerate(values)]

    tnzero = alternate(range(96, 208, 8), ("1/2", "1/3", "2/5", "3/8")) + [(512, "1/2")]
    return Universe({
        "tnzero": [_cli(f"asym tnzero --n {n} --p {p}", workdir) for n, p in tnzero],
        "largeodd": [_cli(f"asym largeodd --m {m} --p {p}", workdir)
                     for m, p in alternate(range(40, 104, 4), ("1/3", "1/4"))],
        "smalldev": [_cli(f"asym smalldev --n {n} --p {p} --k {k}", workdir)
                     for n, (p, k) in alternate(range(40, 104, 4), (("1/3", 2), ("2/5", 3)))],
        "corollary2": [_cli(f"asym corollary2 --n {n} --alpha {a}", workdir)
                       for n, a in alternate(range(32, 96, 4), ("1/3", "1/2"))],
        "wagner": [_cli(f"asym wagner --n {n} --b {b} --c {c}", workdir)
                   for n, (b, c) in alternate(range(56, 136, 5), (("2", "1"), ("3/2", "2")))],
    }, {})


CHECK_TRIALS = {"theorem2": 20, "balancing": 6, "monotone": 40, "birnbaum": 6, "gabriel": 40}
TINY_LAWS = 24


def small_laws_universe(workdir: Path) -> Universe:
    inputs = {}
    for j in range(TINY_LAWS):
        rng = random.Random(f"tiny:{j}")
        inputs[f"tiny{j}.json"] = law_json(1 + j % 2, random_law(rng, 1 + j % 2, rng.randint(2, 4), 2, 3))
    classes = {
        name: [_cli(f"check {name} --trials {trials} --seed {s}", workdir) for s in range(64)]
        for name, trials in CHECK_TRIALS.items()
    }
    classes["signs"] = [_cli(f"scan signs --in @tiny{j}.json --n {n}", workdir)
                        for j in range(TINY_LAWS) for n in (6, 8, 10)]
    classes["weights"] = [_cli(f"scan weights --in @tiny{j}.json --n 3", workdir)
                          for j in range(TINY_LAWS)]
    return Universe(classes, inputs)


JSON_LAWS = 32
CONV_PAIRS = 16


def json_io_universe(workdir: Path) -> Universe:
    inputs, maxima, points = {}, {}, {}
    for j in range(JSON_LAWS):
        rng = random.Random(f"json:{j}")
        law = random_law(rng, 1, rng.randint(120, 200), 400, 96)
        inputs[f"law{j}.json"] = law_json(1, law)
        maxima[j] = max(law.values())
        points[j] = sorted(law)[j % len(law)][0]
    for c in range(CONV_PAIRS):
        rng = random.Random(f"conv:{c}")
        pair = [random_law(rng, 1, 8, 40, 64) for _ in range(2)]
        inputs[f"pair{c}.json"] = "[" + ",".join(law_json(1, law) for law in pair) + "]"
    law = [f"law{j}.json" for j in range(JSON_LAWS)]
    return Universe({
        "q": [_cli(f"dist q --in @{f}", workdir) for f in law],
        "atom": [_cli(f"dist atom --in @{f} --x {points[j]}", workdir) for j, f in enumerate(law)],
        "conv": [_cli(f"dist conv --in @pair{c}.json", workdir) for c in range(CONV_PAIRS)],
        "decompose": [_cli(f"decompose --in @{f} --alpha {maxima[j].numerator}/{maxima[j].denominator}",
                           workdir) for j, f in enumerate(law)],
        "binom": [_cli(f"family binom --n {n} --p {p} --out @out.json", workdir)
                  for n in (96, 128, 160, 192) for p in ("3/7", "5/11", "7/13")],
        "tn": [_cli(f"family tn --n {n} --p {p} --out @out.json", workdir)
               for n in (24, 32, 40) for p in ("3/7", "5/11")],
    }, inputs)


UNIVERSES: dict[str, Callable[[Path], Universe]] = {
    "phase_scan": phase_scan_universe,
    "asym_tail": asym_tail_universe,
    "small_laws": small_laws_universe,
    "json_io": json_io_universe,
}


# -- streams ---------------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path) -> Iterator[Job]:
    """Write the workload's inputs under workdir and return its endless job stream."""
    cli.build_parser()
    universe = UNIVERSES[workload](workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in universe.inputs.items():
        (workdir / name).write_text(text)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "phase_scan":
        return _phase_stream(universe.classes["cell"], rng)
    return _round_stream(universe.classes, rng)


def _cycle_shuffled(items: list[Job], rng: random.Random) -> Iterator[Job]:
    while True:
        yield from rng.sample(items, len(items))


def _phase_stream(cells: list[Job], rng: random.Random) -> Iterator[Job]:
    stream = _cycle_shuffled(cells, rng)
    while True:
        chunk = sorted(c.cells[0] for c in itertools.islice(stream, PHASE_CELLS_PER_JOB))
        yield Job(key="cells=" + ",".join(map(str, chunk)), cells=tuple(chunk))


def _round_stream(classes: dict[str, list[Job]], rng: random.Random) -> Iterator[Job]:
    walks = [_cycle_shuffled(jobs, random.Random(rng.random())) for jobs in classes.values()]
    while True:
        round_ = [next(walk) for walk in walks]
        rng.shuffle(round_)
        yield from round_
