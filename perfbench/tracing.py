"""Spans around anticonc's public functions, installed from outside the package.

`Tracer` wraps every public function of each anticonc module in every
``anticonc.*`` namespace that bound it (``from .families import binomial``
makes ``search.binomial`` a second binding), and the methods of ``Dist`` on
the class; entering it as a context manager puts the wrappers in place and
leaving it puts the originals back.  Nothing under ``src/`` changes.

A generator passed to a wrapped function is drained into a tuple before the
span starts, so lazy work the caller defined (the binomial pmf handed to
``Dist.from_entries``, the mass parsing in ``Dist.from_json_obj``) is charged
to the caller that defined it.

A span is ``[name, start, end, parent, job, extra, payload]``.  Counters that
need the call's arguments or result are computed after ``end`` is taken, and
the time they cost is kept in ``extra`` so that it is not charged to the
caller's self time.

The helpers ``as_fraction``, ``as_point`` and ``format_fraction`` and the
methods of other classes are not wrapped: they run inside inner loops, and
their time falls to the caller.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import types
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import anticonc
from anticonc.dist import Dist

UNWRAPPED = {"as_fraction", "as_point", "format_fraction"}

DIST_METHOD_GROUPS = {
    "convolve": "dist.convolve",
    "from_entries": "dist.build", "map_points": "dist.build", "negate": "dist.build",
    "shift": "dist.build", "scale": "dist.build",
    "atom": "dist.query", "concentration": "dist.query", "interval_prob": "dist.query",
    "is_symmetric": "dist.query", "is_unimodal": "dist.query", "mean": "dist.query", "variance": "dist.query",
    "to_json_obj": "dist.json", "from_json_obj": "dist.json", "to_json": "dist.json", "from_json": "dist.json",
}
DIST_FUNCTION_GROUPS = {
    "delta": "dist.build", "uniform_on": "dist.build", "same_type": "dist.query",
    "convolve_all": "dist.combine", "self_convolve": "dist.combine", "weighted_sum": "dist.combine",
}
ASYM_EXACT = {"alternating_zero_exact", "small_dev_ratio_exact", "middle_coeff_exact", "odd_tail_ratios"}
ASYM_FLOAT = {"alternating_zero_asym", "small_dev_ratio_approx", "middle_coeff_asym", "local_limit_bound"}


def _den_bits(dist: Dist) -> int:
    return max(m.denominator.bit_length() for _, m in dist.atoms)


def _compact_len(obj) -> int:
    return len(json.dumps(obj, separators=(",", ":")))


def _grid_tuples(args, kwargs, result) -> int:
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    return len({Fraction(g) for g in grid}) ** n


# Payloads recorded for the per-layer counters, keyed by span name.
PAYLOADS = {
    "dist.convolve": lambda a, kw, r: (len(a[0].atoms) * len(a[1].atoms), len(r.atoms), _den_bits(r)),
    "dist.to_json_obj": lambda a, kw, r: _compact_len(r),
    "dist.to_json": lambda a, kw, r: len(r),
    "dist.from_json_obj": lambda a, kw, r: _compact_len(a[0]),
    "dist.from_json": lambda a, kw, r: len(a[0]),
    "families.binomial": lambda a, kw, r: (a[0] if a else kw["n"], Fraction(a[1] if len(a) > 1 else kw["p"])),
    "search.optimal_k_scan": lambda a, kw, r: len(r.rows),
    "search.weight_grid_search": _grid_tuples,
}


def _modules() -> list[types.ModuleType]:
    names = [f"anticonc.{m.name}" for m in pkgutil.iter_modules(anticonc.__path__)]
    return [anticonc, *(importlib.import_module(n) for n in names if n != "anticonc.__main__")]


def _targets() -> dict:
    """Original function -> span name, for every public function to wrap."""
    targets = {}
    for module in _modules():
        layer = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
                    and not name.startswith("_") and name not in UNWRAPPED):
                targets[obj] = f"{layer}.{name}"
    return targets


def group_of(span_name: str) -> str:
    """The per-layer group a span's self time and calls count towards."""
    layer, _, name = span_name.partition(".")
    if layer == "dist":
        return DIST_METHOD_GROUPS.get(name) or DIST_FUNCTION_GROUPS[name]
    return layer


class Tracer:
    """Keeps spans in memory while entered; one instance per traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        wrappers = {fn: self._wrap(name, fn) for fn, name in _targets().items()}
        for module in _modules():
            for attr, obj in vars(module).items():
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((module, attr, obj, wrappers[obj]))
        for attr in DIST_METHOD_GROUPS:
            raw = Dist.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._patches.append((Dist, attr, raw, staticmethod(self._wrap(f"dist.{attr}", raw.__func__))))
            else:
                self._patches.append((Dist, attr, raw, self._wrap(f"dist.{attr}", raw)))

    def _wrap(self, name: str, fn):
        spans, stack, payload = self.spans, self._stack, PAYLOADS.get(name)

        def wrapper(*args, **kwargs):
            args = tuple(tuple(a) if isinstance(a, types.GeneratorType) else a for a in args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if payload is not None:
                rec[6] = payload(args, kwargs, result)
                rec[5] = perf_counter() - rec[2]
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON array per span: name, start, end, parent, job, extra, payload."""
        with path.open("w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, default=str, separators=(",", ":")) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its children's durations and counter costs."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _job, extra, _ in spans:
        if parent >= 0:
            child[parent] += end - start + extra
    return [end - start - child[i] for i, (_n, start, end, *_rest) in enumerate(spans)]


def layer_metrics(spans: list[list], io_bytes: tuple[int, int]) -> dict[str, float]:
    """Per-layer counters and self times from one traced pass.

    `io_bytes` is (bytes the CLI read through --in, bytes it wrote to stdout
    and --out files), measured around the traced jobs.
    """
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for rec, t in zip(spans, own):
        group = group_of(rec[0])
        calls[group] += 1
        self_s[group] += t

    def ancestors(i: int):
        i = spans[i][3]
        while i >= 0:
            yield spans[i][0]
            i = spans[i][3]

    conv = [(i, rec[6]) for i, rec in enumerate(spans) if rec[0] == "dist.convolve" and rec[6] is not None]
    cell_convs = sum(1 for i, _ in conv if "search.optimal_k_scan" in ancestors(i))
    reduction_convs = sum(1 for i, _ in conv if any(a.startswith("reduction.") for a in ancestors(i)))
    binomials = [rec[6] for rec in spans if rec[0] == "families.binomial" and rec[6] is not None]
    cells = sum(rec[6] for rec in spans if rec[0] == "search.optimal_k_scan" and rec[6] is not None)
    tuples = sum(rec[6] for rec in spans if rec[0] == "search.weight_grid_search" and rec[6] is not None)
    grid_ids = {i for i, rec in enumerate(spans) if rec[0] == "search.weight_grid_search"}
    orbits = sum(1 for rec in spans if rec[0] == "dist.weighted_sum" and rec[3] in grid_ids)

    def asymptotics_self(names: set[str]) -> float:
        return sum(t for rec, t in zip(spans, own)
                   if rec[0].startswith("asymptotics.") and rec[0].partition(".")[2] in names)

    def payload_sum(names: tuple[str, ...]) -> int:
        return sum(rec[6] for rec in spans if rec[0] in names and rec[6] is not None)

    return {
        "dist.convolve.calls": calls["dist.convolve"],
        "dist.convolve.self_s": self_s["dist.convolve"],
        "dist.convolve.atom_products": sum(p[0] for _, p in conv),
        "dist.convolve.max_support": max((p[1] for _, p in conv), default=0),
        "dist.convolve.max_den_bits": max((p[2] for _, p in conv), default=0),
        "dist.build.calls": calls["dist.build"],
        "dist.build.self_s": self_s["dist.build"],
        "dist.query.calls": calls["dist.query"],
        "dist.query.self_s": self_s["dist.query"],
        "dist.json.self_s": self_s["dist.json"],
        "dist.json.bytes_in": payload_sum(("dist.from_json_obj", "dist.from_json")),
        "dist.json.bytes_out": payload_sum(("dist.to_json_obj", "dist.to_json")),
        "families.calls": calls["families"],
        "families.self_s": self_s["families"],
        "families.binomial.calls": len(binomials),
        "families.binomial.distinct": len(set(binomials)),
        "families.binomial.reuse_ratio": len(set(binomials)) / len(binomials) if binomials else 0.0,
        "search.self_s": self_s["search"],
        "search.cells": cells,
        "search.convolutions_per_cell": cell_convs / cells if cells else 0.0,
        "search.weight_tuples": tuples,
        "search.weight_orbits": orbits,
        "search.orbit_ratio": orbits / tuples if tuples else 0.0,
        "reduction.calls": calls["reduction"],
        "reduction.self_s": self_s["reduction"],
        "reduction.convolutions": reduction_convs,
        "transforms.calls": calls["transforms"],
        "transforms.self_s": self_s["transforms"],
        "asymptotics.calls": calls["asymptotics"],
        "asymptotics.exact_s": asymptotics_self(ASYM_EXACT),
        "asymptotics.float_s": asymptotics_self(ASYM_FLOAT),
        "sampling.calls": calls["sampling"],
        "sampling.self_s": self_s["sampling"],
        "cli.self_s": self_s["cli"],
        "cli.bytes_read": io_bytes[0],
        "cli.bytes_written": io_bytes[1],
    }
