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
import io
import json
import random
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import asymptotics, sampling, search
from .dist import Dist, as_fraction, convolve_all, format_fraction
from .errors import AssertionFailed, _require_at_least
from .families import alternating_bernoulli, binomial, quasi_uniform
from .reduction import Extremal, balancing_bound, extreme_decompose
from .transforms import CenteredSeq, birnbaum_sides, gabriel_sides, rearrange_left, rearrange_right, rearrange_symmetric

THEOREM2_LEVELS = (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- input parsing ----------------------------------------------------------


def _parse_point(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise UsageError(f"not a lattice point: {text!r}") from exc


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc


def _load_dists(path: str) -> list[Dist]:
    obj = _load_json(path)
    return [Dist.from_json_obj(entry) for entry in (obj if isinstance(obj, list) else [obj])]


def _load_seqs(path: str) -> list[CenteredSeq]:
    obj = _load_json(path)
    if not (isinstance(obj, list) and all(isinstance(row, list) for row in obj)):
        raise ValueError(f"{path}: expected a JSON array of sequences, each an array of rationals")
    return [CenteredSeq.from_values(row) for row in obj]


# -- output -----------------------------------------------------------------


def _jsonable(value):
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, Dist):
        return value.to_json_obj()
    if isinstance(value, CenteredSeq):
        return [format_fraction(v) for v in value.values]
    if is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_text(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    _write_text(args, json.dumps(_jsonable(payload), indent=2) + "\n")


def _emit_rows(args, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    if getattr(args, "format", "csv") == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _emit_json(args, payload)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    _write_text(args, buf.getvalue())


def _dump_witness(args, failure: AssertionFailed) -> str:
    path = getattr(args, "witness", None) or "witness.json"
    payload = {"error": str(failure), "witness": _jsonable(failure.witness)}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return path


# -- dist / family / rearrange ----------------------------------------------


def _cmd_dist_conv(args) -> None:
    dists = _load_dists(args.infile)
    _emit_json(args, convolve_all(dists).to_json_obj())


def _cmd_dist_atom(args) -> None:
    (dist,) = _load_dists(args.infile)
    x = _parse_point(args.x)
    _emit_json(args, {"x": list(x), "mass": dist.atom(x)})


def _cmd_dist_q(args) -> None:
    (dist,) = _load_dists(args.infile)
    value, argmax = dist.concentration()
    _emit_json(args, {"value": value, "argmax": list(argmax)})


def _cmd_family_ualpha(args) -> None:
    _emit_json(args, quasi_uniform(args.alpha))


def _cmd_family_binom(args) -> None:
    _emit_json(args, binomial(args.n, args.p))


def _cmd_family_tn(args) -> None:
    _emit_json(args, alternating_bernoulli(args.n, args.p))


def _cmd_rearrange(args) -> None:
    if args.values is not None:
        seq = CenteredSeq.from_values(args.values.split(","))
    elif args.infile is not None:
        (seq,) = _load_seqs(args.infile)
    else:
        raise UsageError("give --values or --in")
    op = {"left": rearrange_left, "right": rearrange_right, "sym": rearrange_symmetric}[args.mode]
    _emit_json(args, op(seq))


# -- check ------------------------------------------------------------------
#
# One entry per checked inequality.  draw(args, rng) builds a seeded instance
# as a dict of the checker's inputs, trial(instance) runs the library checker,
# which raises AssertionFailed on a violated bound, and fixed(args) loads --in
# and the check's flags and returns the report fields.  Entries look checkers
# and samplers up by module-global name at call time, so patched names apply.


class _Check(NamedTuple):
    help: str
    flags: tuple[tuple[str, dict], ...]
    draw: Callable[[argparse.Namespace, random.Random], dict]
    trial: Callable[[dict], object]
    fixed: Callable[[argparse.Namespace], dict]


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


def _trial_birnbaum(instance: dict) -> None:
    laws = (instance["X"], instance["Y"], instance["Yp"])
    radius = max(abs(x) for d in laws for (x,), _ in d.atoms)
    for k in range(2 * radius + 1):
        birnbaum_sides(*laws, k)


def _fixed_birnbaum(args) -> dict:
    dists = _load_dists(args.infile)
    if len(dists) != 3:
        raise UsageError(f"need exactly 3 distributions (X, Y, Y'), got {len(dists)}")
    if args.k is None:
        raise UsageError("give --k")
    return _sides(birnbaum_sides(*dists, args.k))


def _draw_balancing(args, rng: random.Random) -> dict:
    n = rng.choice((2, 4, 6))
    dim = rng.choice((1, 2))
    return {"dists": [sampling.random_dist(rng, dim=dim) for _ in range(n)]}


def _fixed_balancing(args) -> dict:
    if args.x is None:
        raise UsageError("give --x")
    return vars(balancing_bound(_load_dists(args.infile), _parse_point(args.x)))


def _draw_theorem2(args, rng: random.Random) -> dict:
    alpha = as_fraction(args.alpha) if args.alpha else rng.choice(THEOREM2_LEVELS)
    n = rng.choice((2, 4))
    return {"alpha": alpha, "dists": [sampling.random_capped_dist(rng, alpha) for _ in range(n)]}


def _fixed_theorem2(args) -> dict:
    if args.alpha is None or args.x is None:
        raise UsageError("give --alpha and --x")
    dists = _load_dists(args.infile)
    return _sides(search.quasi_uniform_bound_check(dists, as_fraction(args.alpha), _parse_point(args.x)))


def _draw_monotone(args, rng: random.Random) -> dict:
    dim = rng.choice((1, 2))
    if rng.random() < 0.5:
        return {"dists": [sampling.random_dist(rng, dim=dim)] * rng.randint(2, 5)}
    return {"dists": [sampling.random_dist(rng, dim=dim) for _ in range(rng.randint(2, 5))]}


# A balancing or theorem2 trial checks the largest atom only: the bound does not depend on x.
CHECKS = {
    "gabriel": _Check(
        "zero-sum coefficient versus canonical rearrangements",
        (("--star-from", {"type": int, "default": 2, "help": "first index rearranged symmetrically"}),),
        _draw_gabriel,
        lambda instance: gabriel_sides(instance["seqs"]),
        lambda args: _sides(gabriel_sides(_load_seqs(args.infile), star_from=args.star_from)),
    ),
    "birnbaum": _Check(
        "peakedness transfer through convolution",
        (("--k", {"type": int, "help": "interval radius (fixed instance)"}),),
        _draw_birnbaum, _trial_birnbaum, _fixed_birnbaum,
    ),
    "balancing": _Check(
        "hit probability versus best alternating iid replacement",
        (("--x", {"help": "target point (fixed instance)"}),),
        _draw_balancing,
        lambda instance: balancing_bound(instance["dists"], _argmax(instance["dists"])),
        _fixed_balancing,
    ),
    "theorem2": _Check(
        "hit probability versus alternating quasi-uniform ceiling",
        (("--alpha", {"help": "concentration level"}), ("--x", {"help": "target point (fixed instance)"})),
        _draw_theorem2,
        lambda instance: search.quasi_uniform_bound_check(
            instance["dists"], instance["alpha"], _argmax(instance["dists"])),
        _fixed_theorem2,
    ),
    "monotone": _Check(
        "largest atom never increases along prefix sums",
        (),
        _draw_monotone,
        lambda instance: search.monotonicity_check(instance["dists"]),
        lambda args: {"maxima": list(search.monotonicity_check(_load_dists(args.infile)))},
    ),
}


def _cmd_check(args) -> None:
    check = CHECKS[args.subcommand]
    if args.trials is not None:
        _require_at_least("trials", args.trials, 1)
        rng = random.Random(args.seed)
        for trial in range(args.trials):
            instance = check.draw(args, rng)
            try:
                check.trial(instance)
            except AssertionFailed as exc:
                exc.witness = {"seed": args.seed, "trial": trial, **instance, **exc.witness}
                raise
        report = {"trials": args.trials, "seed": args.seed, "violations": 0}
    elif args.infile:
        report = check.fixed(args)
    else:
        raise UsageError("give --in or --trials")
    _emit_json(args, {**report, "holds": True})


# -- decompose ---------------------------------------------------------------


def _cmd_decompose(args) -> None:
    (dist,) = _load_dists(args.infile)
    alpha = as_fraction(args.alpha)
    result = extreme_decompose(dist, alpha)
    kind = "extremal" if isinstance(result, Extremal) else "mixture"
    _emit_json(args, {"kind": kind, "alpha": alpha, **vars(result)})


# -- asym --------------------------------------------------------------------

ASYM_HEADER = ("quantity", "n", "param", "exact", "asym", "residual", "scaled_residual")


def _asym_row(quantity: str, n: int, param: str, exact: Fraction, approx: float, scale: float, relative: bool = False):
    residual = abs(float(exact) - approx)
    if relative:
        residual = residual / float(exact)
    return (quantity, n, param, format_fraction(exact), repr(approx), repr(residual), repr(residual * scale))


def _cmd_asym_corollary2(args) -> None:
    alpha = as_fraction(args.alpha)
    n = args.n
    bound = asymptotics.local_limit_bound(n, alpha)
    exact = asymptotics.local_limit_exact(n, alpha)
    residual = abs(float(exact) - bound)
    row = ("local_limit_bound", n, format_fraction(alpha), format_fraction(exact),
           repr(bound), repr(residual), repr(residual / bound))
    _emit_rows(args, ASYM_HEADER, [row])


def _cmd_asym_smalldev(args) -> None:
    p = as_fraction(args.p)
    exact = asymptotics.small_dev_ratio_exact(args.n, p, args.k)
    approx = asymptotics.small_dev_ratio_approx(args.n, p, args.k)
    row = _asym_row("small_dev_ratio", args.n, f"{format_fraction(p)};k={args.k}", exact, approx, args.n)
    _emit_rows(args, ASYM_HEADER, [row])


def _cmd_asym_tnzero(args) -> None:
    p = as_fraction(args.p)
    exact = asymptotics.alternating_zero_exact(args.n, p)
    approx = asymptotics.alternating_zero_asym(args.n, p)
    scale = args.n**2 if args.n % 2 == 0 else args.n
    row = _asym_row("alternating_zero", args.n, format_fraction(p), exact, approx, scale)
    _emit_rows(args, ASYM_HEADER, [row])


def _cmd_asym_wagner(args) -> None:
    b, c = as_fraction(args.b), as_fraction(args.c)
    approx = asymptotics.middle_coeff_asym(args.n, b, c)  # checks the float range before the exact powering
    exact = asymptotics.middle_coeff_exact(args.n, b, c)
    param = f"b={format_fraction(b)};c={format_fraction(c)}"
    row = _asym_row("middle_coefficient", args.n, param, exact, approx, args.n**2, relative=True)
    _emit_rows(args, ASYM_HEADER, [row])


def _cmd_asym_largeodd(args) -> None:
    p = as_fraction(args.p)
    ratios = asymptotics.odd_tail_ratios(args.m, p)
    rows = [
        _asym_row("odd_tail_double_pair", ratios.n_eff, format_fraction(p),
                  ratios.exact_double_pair, ratios.approx_double_pair, ratios.n_eff),
        _asym_row("odd_tail_triple", ratios.n_eff, format_fraction(p),
                  ratios.exact_triple, ratios.approx_triple, ratios.n_eff),
    ]
    _emit_rows(args, ASYM_HEADER, rows)


# -- scan --------------------------------------------------------------------


def _cmd_scan_kphase(args) -> None:
    grid = search.default_p_grid(args.grid)
    diagram = search.k_phase_scan(args.n, grid)
    if getattr(args, "format", "csv") == "json":
        _emit_json(args, diagram)
        return
    rows = [
        (diagram.n, c.p.numerator, c.p.denominator, ";".join(str(k) for k in c.best_ks), format_fraction(c.best_value))
        for c in diagram.cells
    ]
    _emit_rows(args, ("n", "p_num", "p_den", "best_k_set", "best_value"), rows)


def _cmd_scan_signs(args) -> None:
    (dist,) = _load_dists(args.infile)
    x = _parse_point(args.x) if args.x is not None else None
    value, signs = search.sign_vector_max(dist, args.n, x)
    payload = {"n": args.n, "value": value, "signs": list(signs)}
    if x is not None:
        payload["x"] = list(x)
    _emit_json(args, payload)


def _cmd_scan_weights(args) -> None:
    (dist,) = _load_dists(args.infile)
    grid = [as_fraction(value) for value in args.grid_values.split(",")]
    result = search.weight_grid_search(dist, args.n, grid, cap=args.cap)
    _emit_json(args, {"n": args.n, "grid": grid, **vars(result)})


# -- parser ------------------------------------------------------------------


def _add_io(parser, default_format="json"):
    parser.add_argument("--out", help="write output here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default=default_format)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="anticonc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    top = parser.add_subparsers(dest="command", required=True)

    p_dist = top.add_parser("dist", help="operate on serialized distributions")
    sub = p_dist.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("conv", help="convolve the distributions in a JSON array")
    p.add_argument("--in", dest="infile", required=True)
    _add_io(p)
    p.set_defaults(handler=_cmd_dist_conv)
    p = sub.add_parser("atom", help="mass at a point")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--x", required=True, help="lattice point, comma separated")
    _add_io(p)
    p.set_defaults(handler=_cmd_dist_atom)
    p = sub.add_parser("q", help="largest atom and its location")
    p.add_argument("--in", dest="infile", required=True)
    _add_io(p)
    p.set_defaults(handler=_cmd_dist_q)

    p_family = top.add_parser("family", help="construct a named family member")
    sub = p_family.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("ualpha", help="flattest law with largest atom alpha")
    p.add_argument("--alpha", required=True)
    _add_io(p)
    p.set_defaults(handler=_cmd_family_ualpha)
    p = sub.add_parser("binom", help="binomial law")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    _add_io(p)
    p.set_defaults(handler=_cmd_family_binom)
    p = sub.add_parser("tn", help="alternating sum of n Bernoulli(p)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    _add_io(p)
    p.set_defaults(handler=_cmd_family_tn)

    p_re = top.add_parser("rearrange", help="rearrange a centered sequence")
    sub = p_re.add_subparsers(dest="mode", required=True)
    for mode, blurb in (("left", "largest at 0, negative side first"),
                        ("right", "largest at 0, positive side first"),
                        ("sym", "symmetric decreasing, when possible")):
        p = sub.add_parser(mode, help=blurb)
        p.add_argument("--values", help="comma separated rationals, odd count")
        p.add_argument("--in", dest="infile", help="JSON array holding one sequence")
        _add_io(p)
        p.set_defaults(handler=_cmd_rearrange, mode=mode)

    p_check = top.add_parser("check", help="verify an inequality on an instance or a seeded batch")
    sub = p_check.add_subparsers(dest="subcommand", required=True)
    for name, check in CHECKS.items():
        p = sub.add_parser(name, help=check.help)
        for flag, spec in check.flags:
            p.add_argument(flag, **spec)
        p.add_argument("--in", dest="infile", help="JSON input for a fixed instance")
        p.add_argument("--trials", type=int, help="run this many seeded random instances")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--witness", help="path for the violation witness (default witness.json)")
        _add_io(p)
        p.set_defaults(handler=_cmd_check)

    p_dec = top.add_parser("decompose", help="peel an extreme point of a concentration cap")
    p_dec.add_argument("--in", dest="infile", required=True)
    p_dec.add_argument("--alpha", required=True)
    _add_io(p_dec)
    p_dec.set_defaults(handler=_cmd_decompose)

    p_asym = top.add_parser("asym", help="exact value next to its float expansion")
    sub = p_asym.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("corollary2", help="alternating quasi-uniform zero mass versus first-order ceiling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", required=True)
    _add_io(p, default_format="csv")
    p.set_defaults(handler=_cmd_asym_corollary2)
    p = sub.add_parser("smalldev", help="small deviation ratio of an alternating pair sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_io(p, default_format="csv")
    p.set_defaults(handler=_cmd_asym_smalldev)
    p = sub.add_parser("tnzero", help="alternating zero mass versus two-term expansion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", required=True)
    _add_io(p, default_format="csv")
    p.set_defaults(handler=_cmd_asym_tnzero)
    p = sub.add_parser("wagner", help="central coefficient of a quadratic power versus expansion")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    _add_io(p, default_format="csv")
    p.set_defaults(handler=_cmd_asym_wagner)
    p = sub.add_parser("largeodd", help="odd tail absorption ratios versus expansions")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--p", required=True)
    _add_io(p, default_format="csv")
    p.set_defaults(handler=_cmd_asym_largeodd)

    p_scan = top.add_parser("scan", help="searches over splits, signs and weights")
    sub = p_scan.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("kphase", help="best sign split as a function of p")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, default=512, help="grid size N for p = i/(2N), i = 1..N")
    _add_io(p, default_format="csv")
    p.set_defaults(handler=_cmd_scan_kphase)
    p = sub.add_parser("signs", help="best sign vector for n iid summands")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", help="fixed target point; default maximizes over targets")
    _add_io(p)
    p.set_defaults(handler=_cmd_scan_signs)
    p = sub.add_parser("weights", help="best weight tuple from a grid for n iid summands")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid-values", default="-3,-2,-1,1,2,3",
                   help="comma separated nonzero rationals; use --grid-values=-2,... for a leading minus")
    p.add_argument("--cap", type=int, default=10**7, help="enumeration cap on grid^n")
    _add_io(p)
    p.set_defaults(handler=_cmd_scan_weights)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        args.handler(args)
    except AssertionFailed as exc:
        path = _dump_witness(args, exc)
        print(f"violated: {exc} (witness written to {path})", file=sys.stderr)
        return 2
    except (UsageError, OSError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
