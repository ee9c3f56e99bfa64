"""Command line interface.

Subcommands mirror the library: dist/family/rearrange/decompose wrap single
operations, check runs inequality harnesses (a fixed instance via --in or a
seeded batch via --trials), asym emits exact-versus-approximation rows, and
scan runs the sign, weight and split-point searches.

Conventions: rationals are always rendered as "num/den"; distributions read
and write the canonical JSON object {"dim": d, "atoms": [[point, mass], ...]}.
Exit status is 0 when the requested computation succeeds and every checked
inequality holds, 2 when a mathematical guarantee fails (a witness file is
written for replay), and 1 for usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import asymptotics, sampling, search
from .dist import _RATIONAL, Dist, as_fraction, convolve_all, format_fraction
from .errors import AssertionFailed, _require_at_least
from .families import alternating_bernoulli, binomial, quasi_uniform
from .reduction import Extremal, balancing_bound, extreme_decompose
from .transforms import CenteredSeq, birnbaum_sides, gabriel_sides, rearrange_left, rearrange_right, rearrange_symmetric

THEOREM2_LEVELS = (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, _integer)    # a type=int flag reads _integer; its errors still say "invalid int"

    def error(self, message):
        raise UsageError(message)


# -- input parsing ----------------------------------------------------------


def _integer(text: str) -> int:
    """An integer as the rationals' grammar writes a numerator: [-]digits, ASCII, nothing around them."""
    match = _RATIONAL.fullmatch(text)
    if match is None or match[2] is not None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_point(text: str) -> tuple[int, ...]:
    try:
        return tuple([_integer(c) for c in text.split(",")])
    except ValueError as exc:
        raise UsageError(f"not a lattice point: {text!r}") from exc


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc


def _exactly(k: int, noun: str, items: list) -> list:
    if len(items) != k:
        raise UsageError(f"need exactly {k} {noun}, got {len(items)}")
    return items


def _load_dists(path: str) -> list[Dist]:
    obj = _load_json(path)
    return [Dist.from_json_obj(entry) for entry in (obj if isinstance(obj, list) else [obj])]


def _load_dist(path: str) -> Dist:
    return _exactly(1, "distribution", _load_dists(path))[0]


def _load_seqs(path: str) -> list[CenteredSeq]:
    obj = _load_json(path)
    if not (isinstance(obj, list) and all(isinstance(row, list) for row in obj)):
        raise ValueError(f"{path}: expected a JSON array of sequences, each an array of rationals")
    return [CenteredSeq.from_values(row) for row in obj]


def _seq(args) -> CenteredSeq:
    if (args.values is None) == (args.infile is None):
        raise UsageError("give --values or --in" + ("" if args.values is None else ", not both"))
    if args.values is not None:
        return CenteredSeq.from_values(args.values.split(","))
    return _exactly(1, "sequence", _load_seqs(args.infile))[0]


# -- output -----------------------------------------------------------------


class _Rows(NamedTuple):
    """A CSV table; under --format json, `whole` when given, else one object per row."""

    header: Sequence[str]
    rows: Sequence[Sequence]
    whole: object = None


def _dumps(value, indent: str = "\n") -> str:
    """Byte for byte, json.dumps at an indent of 2 of the value with rationals as num/den, laws as canonical objects,
    sequences as lists of values and dataclasses as their fields; a law's atoms are formatted from its integers."""
    inner = indent + "  "
    if isinstance(value, Fraction):
        return f'"{format_fraction(value)}"'
    if isinstance(value, Dist):
        i2, i3, i4 = inner + "  ", inner + "    ", inner + "      "
        head, sep, tail = ("[" + i4, "," + i4, i3 + "]") if value.dim else ("[", "", "]")
        atoms = ("," + i2).join([f'[{i3}{head}{sep.join(map(str, p))}{tail},{i3}"{q}"{i2}]'
                                 for p, q in zip(value.support, value._mass_texts())])
        return f'{{{inner}"dim": {value.dim},{inner}"atoms": [{i2}{atoms}{inner}]{indent}}}'
    if isinstance(value, CenteredSeq):
        value = value.values
    elif is_dataclass(value) and not isinstance(value, type):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        opening, closing = "{}"
        items = [f"{json.encoder.encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                 for k, v in {str(k): v for k, v in value.items()}.items()]
    elif isinstance(value, (list, tuple)):
        opening, closing = "[]"
        items = [_dumps(v, inner) for v in value]
    else:
        return json.dumps(value)
    return f"{opening}{inner}{(',' + inner).join(items)}{indent}{closing}" if items else opening + closing


def _emit(args, result) -> None:
    """Write a command's result as JSON, or as CSV for rows under --format csv, to --out or stdout."""
    if isinstance(result, _Rows) and args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([result.header, *result.rows])
        text = buf.getvalue()
    else:
        if isinstance(result, _Rows):
            result = [dict(zip(result.header, row)) for row in result.rows] if result.whole is None else result.whole
        text = _dumps(result) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _dump_witness(args, failure: AssertionFailed) -> str:
    path = getattr(args, "witness", None) or "witness.json"
    Path(path).write_text(_dumps({"error": str(failure), "witness": failure.witness}) + "\n")
    return path


# -- check ------------------------------------------------------------------
#
# One entry per checked inequality.  draw(args, rng) builds a seeded instance
# as a dict of the checker's inputs, trial(instance) runs the library checker,
# which raises AssertionFailed on a violated bound, and fixed(args) loads --in
# and the check's flags, every one of which a fixed instance needs, and returns
# the report fields; --trials refuses the flags that are not `drawn`, and --in
# the --seed.  Entries look checkers and samplers up by module-global name at
# call time, so patched names apply.


class _Check(NamedTuple):
    help: str
    flags: tuple[tuple[str, dict], ...]
    draw: Callable[[argparse.Namespace, random.Random], dict]
    trial: Callable[[dict], object]
    fixed: Callable[[argparse.Namespace], dict]
    drawn: tuple[str, ...] = ()


def _argmax(dists: list[Dist]) -> tuple[int, ...]:
    return convolve_all(dists).concentration()[1]


def _sides(lhs_rhs: tuple[Fraction, Fraction]) -> dict:
    return dict(zip(("lhs", "rhs"), lhs_rhs))


def _draw_gabriel(args, rng: random.Random) -> dict:
    count = rng.randint(2, 4)
    seqs = [sampling.random_centered_seq(rng), sampling.random_centered_seq(rng)]
    seqs += [sampling.random_symmetrizable_seq(rng) for _ in range(count - 2)]
    return {"seqs": seqs}


def _draw_birnbaum(args, rng: random.Random) -> dict:
    mu_x = sampling.random_symmetric_unimodal(rng)
    mu_y, mu_yp = sampling.random_peaked_pair(rng)
    return {"X": mu_x, "Y": mu_y, "Yp": mu_yp}


def _fixed_birnbaum(args) -> dict:
    return _sides(birnbaum_sides(*_exactly(3, "distributions (X, Y, Y')", _load_dists(args.infile)), args.k))


def _draw_balancing(args, rng: random.Random) -> dict:
    n = rng.choice((2, 4, 6))
    dim = rng.choice((1, 2))
    return {"dists": [sampling.random_dist(rng, dim=dim) for _ in range(n)]}


def _draw_theorem2(args, rng: random.Random) -> dict:
    alpha = as_fraction(args.alpha) if args.alpha else rng.choice(THEOREM2_LEVELS)
    n = rng.choice((2, 4))
    return {"alpha": alpha, "dists": [sampling.random_capped_dist(rng, alpha) for _ in range(n)]}


def _draw_monotone(args, rng: random.Random) -> dict:
    dim = rng.choice((1, 2))
    if rng.random() < 0.5:
        return {"dists": [sampling.random_dist(rng, dim=dim)] * rng.randint(2, 5)}
    return {"dists": [sampling.random_dist(rng, dim=dim) for _ in range(rng.randint(2, 5))]}


# A balancing or theorem2 trial checks the largest atom only: the bound does not depend on x.
CHECKS = {
    "gabriel": _Check(
        "zero-sum coefficient versus canonical rearrangements",
        (),
        _draw_gabriel,
        lambda instance: gabriel_sides(instance["seqs"]),
        lambda args: _sides(gabriel_sides(_load_seqs(args.infile))),
    ),
    "birnbaum": _Check(
        "peakedness transfer through convolution",
        (("--k", {"type": int, "help": "interval radius (fixed instance)"}),),
        _draw_birnbaum,
        lambda instance: birnbaum_sides(instance["X"], instance["Y"], instance["Yp"], 0),
        _fixed_birnbaum,
    ),
    "balancing": _Check(
        "hit probability versus best alternating iid replacement",
        (("--x", {"help": "target point (fixed instance)"}),),
        _draw_balancing,
        lambda instance: balancing_bound(instance["dists"], _argmax(instance["dists"])),
        lambda args: vars(balancing_bound(_load_dists(args.infile), _parse_point(args.x))),
    ),
    "theorem2": _Check(
        "hit probability versus alternating quasi-uniform ceiling",
        (("--alpha", {"help": "concentration level"}), ("--x", {"help": "target point (fixed instance)"})),
        _draw_theorem2,
        lambda instance: search.quasi_uniform_bound_check(
            instance["dists"], instance["alpha"], _argmax(instance["dists"])),
        lambda args: _sides(search.quasi_uniform_bound_check(
            _load_dists(args.infile), as_fraction(args.alpha), _parse_point(args.x))),
        drawn=("--alpha",),
    ),
    "monotone": _Check(
        "largest atom never increases along prefix sums",
        (),
        _draw_monotone,
        lambda instance: search.monotonicity_check(instance["dists"]),
        lambda args: {"maxima": list(search.monotonicity_check(_load_dists(args.infile)))},
    ),
}


def _run_check(name: str, args) -> dict:
    check = CHECKS[name]
    if (args.trials is None) == (args.infile is None):
        raise UsageError("give --in or --trials" + ("" if args.trials is None else ", not both"))
    given = [flag for flag, _ in check.flags if getattr(args, flag[2:]) is not None]
    if args.trials is not None:
        stray = [flag for flag in given if flag not in check.drawn]
        if stray:
            raise UsageError(f"--trials does not read {' or '.join(stray)}")
        _require_at_least("trials", args.trials, 1)
        seed = 0 if args.seed is None else args.seed
        rng = random.Random(seed)
        for trial in range(args.trials):
            instance = check.draw(args, rng)
            try:
                check.trial(instance)
            except AssertionFailed as exc:
                exc.witness = {"seed": seed, "trial": trial, **instance, **exc.witness}
                raise
        report = {"trials": args.trials, "seed": seed, "violations": 0}
    else:
        if args.seed is not None:
            raise UsageError("--in does not read --seed")
        missing = [flag for flag, _ in check.flags if flag not in given]
        if missing:
            raise UsageError(f"give {' and '.join(missing)}")
        report = check.fixed(args)
    return {**report, "holds": True}


# -- commands ----------------------------------------------------------------
#
# One entry per leaf command, keyed by its argv path.  run(args) returns the
# payload that _emit writes as JSON, or _Rows for a command that emits CSV;
# only those (rows=True) take --format.  Runners look library functions up by
# module-global name at call time, so patched names apply.


def _dist_atom(args) -> dict:
    dist = _load_dist(args.infile)
    x = _parse_point(args.x)
    return {"x": x, "mass": dist.atom(x)}


def _decompose(args) -> dict:
    alpha = as_fraction(args.alpha)
    result = extreme_decompose(_load_dist(args.infile), alpha)
    kind = "extremal" if isinstance(result, Extremal) else "mixture"
    return {"kind": kind, "alpha": alpha, **vars(result)}


ASYM_HEADER = ("quantity", "n", "param", "exact", "asym", "residual", "scaled_residual")


def _asym(*rows) -> _Rows:
    return _Rows(ASYM_HEADER, rows)


def _asym_row(quantity: str, n: int, param: str, exact: Fraction, approx: float, scale: float, relative: bool = False):
    residual = abs(float(exact) - approx)
    if relative:
        residual = residual / float(exact)
    return (quantity, n, param, format_fraction(exact), repr(approx), repr(residual), repr(residual * scale))


def _asym_corollary2(args) -> _Rows:
    alpha = as_fraction(args.alpha)
    bound = asymptotics.local_limit_bound(args.n, alpha)
    exact = asymptotics.local_limit_exact(args.n, alpha)
    residual = abs(float(exact) - bound)
    return _asym(("local_limit_bound", args.n, format_fraction(alpha), format_fraction(exact),
                  repr(bound), repr(residual), repr(residual / bound)))


def _asym_smalldev(args) -> _Rows:
    p = as_fraction(args.p)
    exact = asymptotics.small_dev_ratio_exact(args.n, p, args.k)
    approx = asymptotics.small_dev_ratio_approx(args.n, p, args.k)
    return _asym(_asym_row("small_dev_ratio", args.n, f"{format_fraction(p)};k={args.k}", exact, approx, args.n))


def _asym_tnzero(args) -> _Rows:
    p = as_fraction(args.p)
    exact = asymptotics.alternating_zero_exact(args.n, p)
    approx = asymptotics.alternating_zero_asym(args.n, p)
    scale = args.n**2 if args.n % 2 == 0 else args.n
    return _asym(_asym_row("alternating_zero", args.n, format_fraction(p), exact, approx, scale))


def _asym_wagner(args) -> _Rows:
    b, c = as_fraction(args.b), as_fraction(args.c)
    approx = asymptotics.middle_coeff_asym(args.n, b, c)  # checks the float range before the exact powering
    exact = asymptotics.middle_coeff_exact(args.n, b, c)
    param = f"b={format_fraction(b)};c={format_fraction(c)}"
    return _asym(_asym_row("middle_coefficient", args.n, param, exact, approx, args.n**2, relative=True))


def _asym_largeodd(args) -> _Rows:
    p = as_fraction(args.p)
    ratios = asymptotics.odd_tail_ratios(args.m, p)
    return _asym(
        _asym_row("odd_tail_double_pair", ratios.n_eff, format_fraction(p),
                  ratios.exact_double_pair, ratios.approx_double_pair, ratios.n_eff),
        _asym_row("odd_tail_triple", ratios.n_eff, format_fraction(p),
                  ratios.exact_triple, ratios.approx_triple, ratios.n_eff),
    )


def _scan_kphase(args) -> _Rows:
    search._require_ladder(args.n, args.grid, 2 * args.grid)
    diagram = search.k_phase_scan(args.n, search.default_p_grid(args.grid))
    rows = [
        (diagram.n, c.p.numerator, c.p.denominator, ";".join(str(k) for k in c.best_ks), format_fraction(c.best_value))
        for c in diagram.cells
    ]
    return _Rows(("n", "p_num", "p_den", "best_k_set", "best_value"), rows, whole=diagram)


def _scan_signs(args) -> dict:
    dist = _load_dist(args.infile)
    x = _parse_point(args.x) if args.x is not None else None
    value, signs = search.sign_vector_max(dist, args.n, x)
    return {"n": args.n, "value": value, "signs": signs, **({} if x is None else {"x": x})}


def _scan_weights(args) -> dict:
    dist = _load_dist(args.infile)
    grid = [as_fraction(value) for value in args.grid_values.split(",")]
    return {"n": args.n, "grid": grid, **vars(search.weight_grid_search(dist, args.n, grid))}


class _Command(NamedTuple):
    help: str
    flags: tuple[tuple[str, dict], ...]
    run: Callable[[argparse.Namespace], object]
    rows: bool = False


def _required(flag: str, **spec) -> tuple[str, dict]:
    return (flag, {"required": True, **spec})


_IN = _required("--in", dest="infile")
_N = _required("--n", type=int)
_P = _required("--p")
_ALPHA = _required("--alpha")
_OUT = ("--out", {"help": "write output here instead of stdout"})
_FORMAT = ("--format", {"choices": ("json", "csv"), "default": "csv"})
_REARRANGE = (("--values", {"help": "comma separated rationals, odd count"}),
              ("--in", {"dest": "infile", "help": "JSON array holding one sequence"}))
_CHECK_IO = (
    ("--in", {"dest": "infile", "help": "JSON input for a fixed instance"}),
    ("--trials", {"type": int, "help": "run this many seeded random instances"}),
    ("--seed", {"type": int, "help": "seed of the --trials batch (default 0)"}),
    ("--witness", {"help": "path for the violation witness (default witness.json)"}),
)

_GROUPS = {
    "dist": "operate on serialized distributions",
    "family": "construct a named family member",
    "rearrange": "rearrange a centered sequence",
    "check": "verify an inequality on an instance or a seeded batch",
    "asym": "exact value next to its float expansion",
    "scan": "searches over splits, signs and weights",
}

COMMANDS = {
    ("dist", "conv"): _Command(
        "convolve the distributions in a JSON array", (_IN,), lambda args: convolve_all(_load_dists(args.infile))),
    ("dist", "atom"): _Command(
        "mass at a point", (_IN, _required("--x", help="lattice point, comma separated")), _dist_atom),
    ("dist", "q"): _Command(
        "largest atom and its location", (_IN,),
        lambda args: dict(zip(("value", "argmax"), _load_dist(args.infile).concentration()))),
    ("family", "ualpha"): _Command(
        "flattest law with largest atom alpha", (_ALPHA,), lambda args: quasi_uniform(args.alpha)),
    ("family", "binom"): _Command("binomial law", (_N, _P), lambda args: binomial(args.n, args.p)),
    ("family", "tn"): _Command(
        "alternating sum of n Bernoulli(p)", (_N, _P), lambda args: alternating_bernoulli(args.n, args.p)),
    ("rearrange", "left"): _Command(
        "largest at 0, negative side first", _REARRANGE, lambda args: rearrange_left(_seq(args))),
    ("rearrange", "right"): _Command(
        "largest at 0, positive side first", _REARRANGE, lambda args: rearrange_right(_seq(args))),
    ("rearrange", "sym"): _Command(
        "symmetric decreasing, when possible", _REARRANGE, lambda args: rearrange_symmetric(_seq(args))),
    **{("check", name): _Command(check.help, check.flags + _CHECK_IO, functools.partial(_run_check, name))
       for name, check in CHECKS.items()},
    ("decompose",): _Command("peel an extreme point of a concentration cap", (_IN, _ALPHA), _decompose),
    ("asym", "corollary2"): _Command(
        "alternating quasi-uniform zero mass versus first-order ceiling", (_N, _ALPHA), _asym_corollary2, rows=True),
    ("asym", "smalldev"): _Command(
        "small deviation ratio of an alternating pair sum", (_N, _P, _required("--k", type=int)), _asym_smalldev,
        rows=True),
    ("asym", "tnzero"): _Command("alternating zero mass versus two-term expansion", (_N, _P), _asym_tnzero, rows=True),
    ("asym", "wagner"): _Command(
        "central coefficient of a quadratic power versus expansion", (_N, _required("--b"), _required("--c")),
        _asym_wagner, rows=True),
    ("asym", "largeodd"): _Command(
        "odd tail absorption ratios versus expansions", (_required("--m", type=int), _P), _asym_largeodd, rows=True),
    ("scan", "kphase"): _Command(
        "best sign split as a function of p",
        (_N, ("--grid", {"type": int, "default": 512, "help": "grid size N for p = i/(2N), i = 1..N"})),
        _scan_kphase, rows=True),
    ("scan", "signs"): _Command(
        "best sign vector for n iid summands",
        (_IN, _N, ("--x", {"help": "fixed target point; default maximizes over targets"})), _scan_signs),
    ("scan", "weights"): _Command(
        "best weight tuple from a grid for n iid summands",
        (_IN, _N,
         ("--grid-values", {"default": "-3,-2,-1,1,2,3",
                            "help": "comma separated nonzero rationals; use --grid-values=-2,... for a leading minus"})),
        _scan_weights),
}


def _leaf(parser: argparse.ArgumentParser, command: _Command) -> argparse.ArgumentParser:
    for flag, spec in command.flags + ((_OUT, _FORMAT) if command.rows else (_OUT,)):
        parser.add_argument(flag, **spec)
    parser.set_defaults(run=command.run)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="anticonc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for path, command in COMMANDS.items():
        if path[:-1] not in subparsers:
            group = subparsers[()].add_parser(path[0], help=_GROUPS[path[0]])
            subparsers[path[:-1]] = group.add_subparsers(dest="subcommand", required=True)
        _leaf(subparsers[path[:-1]].add_parser(path[-1], help=command.help), command)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """Parse with the parser of the leaf that argv names; any other argv (help, a bare group,
    an unknown word, an option before the words) goes to the whole tree, for its usage and errors."""
    for path in (tuple(argv[:2]), tuple(argv[:1])):
        if path in COMMANDS:
            return _leaf(_Parser(prog=" ".join(("anticonc", *path))), COMMANDS[path]).parse_args(argv[len(path):])
    return build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        _emit(args, args.run(args))
    except AssertionFailed as exc:
        try:
            note = f"witness written to {_dump_witness(args, exc)}"
        except OSError as error:
            note = f"witness not written: {error}"
        print(f"violated: {exc} ({note})", file=sys.stderr)
        return 2
    except (UsageError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
