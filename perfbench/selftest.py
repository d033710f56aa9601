#!/usr/bin/env python3
"""Fast self-test of the benchmark itself; exits 1 if any check fails.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It swaps each workload's pool for one
cheap request, so it takes seconds, not a full benchmark run.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import run
import tracer
import workloads

NAME = re.compile(r"[A-Za-z0-9_.-]+")
CHEAP = "fuse-C --m 1 --n 1"
# Requests whose output goes through the wrapped operators, dict bindings
# (verify.SUITES) and error exits, to compare traced with untraced bytes.
SAME_BYTES = [
    "hexagon --p 2 --q 3 --t 1/2",
    "sl2 --n 2 --op cg --m 3 --k 1",
    "decompose --p 2 --q 3 --target wprime --nmax 50",
    "verify --suite exactnum --suite wpq",
    "kac-diagram --p 2 --q 3 --r 4 --s 4",
]

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_once(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    check(code == 0, f"{workload} trace={trace} exits 0")
    lines = out.getvalue().splitlines()
    check("stamp" in json.loads(lines[-2]), f"{workload} trace={trace} prints a stamp")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    check(all(NAME.fullmatch(n) and len(n) <= 64 for n in names), "metric names match [A-Za-z0-9_.-]+")
    check(len(names) == len(set(names)), "metric names are unique")
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS), "BENCHMARK.json lists every workload")

    pools = dict(workloads.WORKLOADS)
    workloads.WORKLOADS.update({name: ([CHEAP], whole) for name, (_, whole) in pools.items()})
    try:
        for name in pools:
            result = run_once(name, 0)
            check(result["correct"] and result["attempted"] >= 1, f"{name} passes its goldens")
            check(set(result["metrics"]) == end_to_end, f"{name} reports every end-to-end metric")
        traced = run_once("cli-light", 1)
        check(set(traced["metrics"]) == per_layer, "traced run reports every per-layer metric")
        layer_sum = sum(traced["metrics"][f"{layer}.self_s"]["value"] for layer in tracer.LAYERS)
        wall = traced["metrics"]["trace.wall_s"]["value"]
        check(abs(layer_sum + traced["metrics"]["other.self_s"]["value"] - wall) < 1e-9,
              "layer self times plus other add up to the traced wall time")

        real_goldens = run.load_goldens
        tampered = json.loads(json.dumps(real_goldens()))
        tampered[CHEAP]["stdout_sha256"] = "0" * 64
        run.load_goldens = lambda: tampered
        try:
            result = run_once("cli-light", 0)
        finally:
            run.load_goldens = real_goldens
        check(not result["correct"] and result["failed"] == result["attempted"],
              "a tampered golden is reported as a failure")
    finally:
        workloads.WORKLOADS.update(pools)

    checkout = run.Checkout(Path.cwd())
    checkout.work.mkdir(exist_ok=True)
    spans = checkout.work / "selftest-spans.bin"
    try:
        for req in SAME_BYTES:
            _, code, out, _ = checkout.spawn(["-m", "triplet", *req.split()])
            _, tcode, tout, _ = checkout.spawn([str(run.HERE / "tracer.py"), str(spans), "0", *req.split()])
            check(code == tcode and out == tout, f"traced and untraced calls agree byte for byte: {req}")
    finally:
        spans.unlink(missing_ok=True)
        checkout.work.rmdir()

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
