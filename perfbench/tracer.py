"""Traced driver: one `triplet` CLI call with every public function timed.

Child side, run as a fresh process with ``src`` on ``PYTHONPATH``::

    python3 perfbench/tracer.py SPANS_FILE REQUEST_ID ARGV...

It imports ``triplet.cli`` under a span, wraps each public function and
method of each ``triplet.*`` module at every binding site (modules import by
name, so ``verify`` holds its own reference to ``conformal_weight``), runs
``triplet.cli.main(ARGV)`` and exits with its code.  Spans stay in memory
and are written to SPANS_FILE at exit.  stdout is the call's own output.
The program's files are not modified.

Parent side: :class:`LayerTotals` reads span files and
:func:`per_layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
import types
from array import array
from collections import defaultdict

# Layers are the `triplet` modules; a span belongs to the module of the
# function it times.
LAYERS = (
    "exactnum", "virasoro", "kacmod", "fusion", "wpq", "braidfmat",
    "linalg", "sl2rep", "verify", "cli",
)
SUITES = ("exactnum", "virasoro", "kacmod", "fusion", "braidfmat", "sl2rep", "wpq")
# Operator methods are how callers use Phase and ParamScalar, so they count
# as public; generated dataclass methods (__init__, __eq__, __hash__) do not.
OPERATORS = frozenset({"__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__pow__", "__str__"})
DISTINCT = ("virasoro.canonical_label", "virasoro.conformal_weight")
CACHES = {"build_irrep": "build_irrep", "invariant_form": "invariant_form", "cg_system": "_cg_system"}
IMPORT_SPAN = "cli.import"


class Recorder:
    """Spans in four parallel int64 columns; a span's id is its row."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_col = array("q")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.stack = [-1]
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.rref_cells = 0

    def _hook(self, name: str):
        if name in self.distinct:
            seen = self.distinct[name]
            return lambda args, kwargs: seen.add((args, tuple(sorted(kwargs.items()))))
        if name == "linalg.rref":
            def count_cells(args, kwargs):
                a = args[0] if args else kwargs["a"]
                self.rref_cells += len(a) * (len(a[0]) if a else 0)
            return count_cells
        return None

    def wrap(self, fn, name: str):
        self.names.append(name)
        name_id = len(self.names) - 1
        hook = self._hook(name)
        names, parents, starts, ends = self.name_col, self.parent_col, self.start_col, self.end_col
        stack = self.stack
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            i = len(ends)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        span.__wrapped__ = fn
        return span

    def write(self, path: str, request: int, caches: dict) -> None:
        header = {
            "request": request,
            "names": self.names,
            "count": len(self.end_col),
            "distinct": {name: len(seen) for name, seen in self.distinct.items()},
            "rref_cells": self.rref_cells,
            "caches": caches,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_col, self.parent_col, self.start_col, self.end_col):
                col.tofile(f)


def _wrap_class(rec: Recorder, layer: str, cls: type) -> None:
    for attr, val in list(vars(cls).items()):
        if attr.startswith("_") and attr not in OPERATORS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(val, staticmethod):
            setattr(cls, attr, staticmethod(rec.wrap(val.__func__, name)))
        elif isinstance(val, types.FunctionType):
            setattr(cls, attr, rec.wrap(val, name))


def instrument(rec: Recorder) -> None:
    """Wrap every public function of every loaded ``triplet.*`` module.

    Each wrapper replaces the original wherever a ``triplet`` module binds
    it: as a module global, or as a value of a module-level dict such as
    ``verify.SUITES``.
    """
    modules = {n: m for n, m in sys.modules.items() if n == "triplet" or n.startswith("triplet.")}
    wrappers: dict[int, tuple[object, object]] = {}
    for modname, mod in modules.items():
        if modname == "triplet":
            continue
        layer = modname.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != modname:
                continue
            if isinstance(obj, type):
                _wrap_class(rec, layer, obj)
            elif callable(obj) and not name.startswith("_"):
                wrappers[id(obj)] = (obj, rec.wrap(obj, f"{layer}.{name}"))

    def replacement(obj):
        hit = wrappers.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if name.startswith("__"):
                continue
            new = replacement(obj)
            if new is not None:
                setattr(mod, name, new)
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    new = replacement(val)
                    if new is not None:
                        obj[key] = new


def child_main(argv: list[str]) -> int:
    spans_path, request, cli_argv = argv[0], int(argv[1]), argv[2:]
    rec = Recorder()
    cli = rec.wrap(importlib.import_module, IMPORT_SPAN)("triplet.cli")
    from triplet import sl2rep

    caches = {key: getattr(sl2rep, attr) for key, attr in CACHES.items()}
    instrument(rec)
    code: object = 1
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        infos = {key: fn.cache_info() for key, fn in caches.items()}
        rec.write(spans_path, request, {k: [v.hits, v.misses] for k, v in infos.items()})
    return code


class LayerTotals:
    """Sums over the span files of one run, by span name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, int] = defaultdict(int)
        self.cache: dict[str, list[int]] = {key: [0, 0] for key in CACHES}
        self.rref_cells = 0

    def add_file(self, path) -> None:
        with open(path, "rb") as f:
            header = json.loads(f.readline())
            cols = []
            for _ in range(4):
                col = array("q")
                col.fromfile(f, header["count"])
                cols.append(col)
        names, parents, starts, ends = cols
        durations = [e - s for s, e in zip(starts, ends)]
        children = [0] * len(durations)
        for i, parent in enumerate(parents):
            if parent >= 0:
                children[parent] += durations[i]
        table = header["names"]
        for name_id, dur, child in zip(names, durations, children):
            name = table[name_id]
            self.calls[name] += 1
            self.self_ns[name] += dur - child
            self.total_ns[name] += dur
        for name, n in header["distinct"].items():
            self.distinct[name] += n
        for key, (hits, misses) in header["caches"].items():
            self.cache[key][0] += hits
            self.cache[key][1] += misses
        self.rref_cells += header["rref_cells"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    totals: LayerTotals, traced_walls: list[float], untraced_walls: list[float], interp_start_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit); times and counts are per traced call."""
    n = len(traced_walls)
    wall_s = statistics.fmean(traced_walls)
    layer_self_ns: dict[str, int] = defaultdict(int)
    layer_calls: dict[str, int] = defaultdict(int)
    for name, ns in totals.self_ns.items():
        layer = name.split(".", 1)[0]
        layer_self_ns[layer] += ns
        if name != IMPORT_SPAN:
            layer_calls[layer] += totals.calls[name]
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self_ns[layer] / 1e9 / n, "s")
        out[f"{layer}.calls"] = (layer_calls[layer] / n, "count")
    out["cli.import_s"] = (totals.total_ns[IMPORT_SPAN] / 1e9 / n, "s")
    out["cli.interp_start_s"] = (interp_start_s, "s")
    for name in DISTINCT:
        out[f"{name}.calls"] = (totals.calls[name] / n, "count")
        out[f"{name}.distinct_frac"] = (_ratio(totals.distinct[name], totals.calls[name]), "ratio")
    out["fusion.fusion_ring_product.calls"] = (totals.calls["fusion.fusion_ring_product"] / n, "count")
    out["linalg.rref.calls"] = (totals.calls["linalg.rref"] / n, "count")
    out["linalg.rref.self_s"] = (totals.self_ns["linalg.rref"] / 1e9 / n, "s")
    out["linalg.rref.cells"] = (totals.rref_cells / n, "count")
    for key, (hits, misses) in totals.cache.items():
        out[f"sl2rep.{key}.hit_frac"] = (_ratio(hits, hits + misses), "ratio")
    for suite in SUITES:
        out[f"verify.{suite}.s"] = (totals.total_ns[f"verify.suite_{suite}"] / 1e9 / n, "s")
    out["other.self_s"] = (wall_s - sum(out[f"{layer}.self_s"][0] for layer in LAYERS), "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.overhead_s"] = (wall_s - statistics.fmean(untraced_walls), "s")
    return out


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
