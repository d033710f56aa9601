#!/usr/bin/env python3
"""Benchmark of the `triplet` CLI, run from the root of a source checkout.

    python3 perfbench/run.py --workload cli-light --seed 1 --seconds 30 --trace 0

A single client calls the CLI in a closed loop: one `python3 -m triplet ARGV`
child at a time, the next one started when the previous has exited.  Every
call's exit code and stdout sha256 are checked against goldens.json.

--trace 0 reports the end-to-end metrics, scaled to a nominal machine speed
(see NOMINAL_S); --trace 1 alternates traced calls
(perfbench/tracer.py) with untraced ones and reports the per-layer metrics.
The line before the last is a stamp (Python, CPU, nproc, commit, seed,
sample counts); the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
CALL_TIMEOUT_S = 60.0
TRACED_TIMEOUT_S = 120.0
SETUP_REPS = 15
# The machine's speed drifts by tens of percent over minutes, and fixed
# reference work timed in the same run drifts with it.  End-to-end times are
# scaled by NOMINAL_S[kind] / (the run's reference time), for the kind of
# reference work that resembles what is timed: a bare interpreter start
# (`python3 -c pass`) for start-up, reference_rep for computation.  After
# each call the client spends about REF_SHARE of its wall time on reference
# work of the workload's kind.
NOMINAL_S = {"start": 0.075, "compute": 0.030}
REF_SHARE = 0.2


def reference_rep() -> float:
    """Time one rep of fixed interpreter work: Fraction and int arithmetic."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return time.perf_counter() - start


class Checkout:
    """The source tree under test and the environment its children run in."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        if not (self.src / "triplet" / "cli.py").is_file():
            raise FileNotFoundError(f"no triplet sources under {self.src}")
        self.env = {k: v for k, v in os.environ.items() if not k.startswith(("TRIPLET_", "PYTHON"))}
        self.env["PYTHONPATH"] = str(self.src)
        self.work = root / ".perfbench"

    def spawn(self, args: list[str], timeout: float = CALL_TIMEOUT_S) -> tuple[float, int, bytes, float]:
        """Run `python3 ARGS`; return (wall s, exit code, stdout, peak RSS MB)."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            cwd=self.root,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, out, usage.ru_maxrss / 1024

    def loads_own_sources(self) -> bool:
        _, code, out, _ = self.spawn(["-c", "import triplet.cli; print(triplet.cli.__file__)"])
        return code == 0 and Path(out.decode().strip()).resolve().is_relative_to(self.src.resolve())


def nearest_rank(values: list[float], q: float) -> float:
    """The smallest sample with at least a share q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_goldens() -> dict[str, dict]:
    return json.loads(GOLDENS.read_text())["goldens"]


def matches(golden: dict, code: int, out: bytes) -> bool:
    return code == golden["exit"] and hashlib.sha256(out).hexdigest() == golden["stdout_sha256"]


class Client:
    """The closed-loop client: runs calls and records their outcome."""

    def __init__(self, checkout: Checkout, goldens: dict[str, dict]) -> None:
        self.checkout = checkout
        self.goldens = goldens
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.peak_rss_mb = 0.0
        self.probes: list[float] = []
        self.probes_ok = True
        self.refs: dict[str, list[float]] = {kind: [] for kind in NOMINAL_S}
        self.ref_debt = 0.0
        self.attempted = 0
        self.failed = 0
        self.totals = tracer.LayerTotals()

    def _record(self, argv: list[str], code: int, out: bytes) -> None:
        self.attempted += 1
        if not matches(self.goldens[" ".join(argv)], code, out):
            self.failed += 1
            print(f"FAIL exit={code} {' '.join(argv)}", file=sys.stderr)

    def probe(self, args: list[str]) -> float:
        """Time one fresh interpreter running `python3 ARGS`; it must exit 0."""
        wall, code, _, _ = self.checkout.spawn(args)
        self.probes.append(wall)
        self.probes_ok = self.probes_ok and code == 0
        return wall

    def reference(self, kind: str) -> float:
        """Time one unit of reference work of `kind`."""
        if kind == "start":
            wall, code, _, _ = self.checkout.spawn(["-c", "pass"])
            self.probes_ok = self.probes_ok and code == 0
        else:
            wall = reference_rep()
        self.refs[kind].append(wall)
        return wall

    def calibrate(self, kind: str, wall: float) -> None:
        """Owe REF_SHARE of `wall` to reference work of `kind`; pay what is due."""
        self.ref_debt += REF_SHARE * wall
        while self.ref_debt > 0:
            self.ref_debt -= self.reference(kind)

    def call(self, argv: list[str]) -> None:
        wall, code, out, rss = self.checkout.spawn(["-m", "triplet", *argv])
        self._record(argv, code, out)
        self.walls.append(wall)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)

    def traced_call(self, argv: list[str]) -> None:
        work = self.checkout.work
        work.mkdir(exist_ok=True)
        spans = work / f"spans-{os.getpid()}.bin"
        request = len(self.traced_walls)
        args = [str(HERE / "tracer.py"), str(spans), str(request), *argv]
        try:
            wall, code, out, _ = self.checkout.spawn(args, TRACED_TIMEOUT_S)
            self._record(argv, code, out)
            self.traced_walls.append(wall)
            if spans.exists():
                self.totals.add_file(spans)
        finally:
            spans.unlink(missing_ok=True)
            if not any(work.iterdir()):
                work.rmdir()


def closed_loop(client: Client, batches, seconds: float, run_batch, probe) -> None:
    """Run batches while the next one is expected to end within `seconds`.

    Between batches, SETUP_REPS calls of `probe` (each adds to
    `client.probes`) are spread evenly over the run, so their median does not
    rest on one moment of a machine whose speed drifts.
    """
    durations: list[float] = []
    start = time.perf_counter()
    for batch in batches:
        elapsed = time.perf_counter() - start
        if durations and elapsed + statistics.median(durations) > seconds:
            break
        while len(client.probes) < SETUP_REPS and len(client.probes) <= SETUP_REPS * elapsed / max(seconds, 1e-9):
            probe()
        t0 = time.perf_counter()
        run_batch(batch)
        durations.append(time.perf_counter() - t0)
    while len(client.probes) < SETUP_REPS:
        probe()


def stamp(checkout: Checkout, args, samples: dict[str, int]) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (checkout.root / ".git").exists():
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout.root, capture_output=True, text=True, check=False
        )
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((checkout.src / "triplet").rglob("*.py")):
        src.update(path.relative_to(checkout.src).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "samples": samples,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if hasattr(os, "sched_setaffinity"):
        # Children inherit this: the reference reps and the calls share one
        # CPU, whose speed the reps then track.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        checkout = Checkout(Path.cwd())
    except FileNotFoundError as exc:
        print(f"error: {exc}; run from the root of a triplet checkout", file=sys.stderr)
        return 2
    client = Client(checkout, load_goldens())
    # Also the untimed warm-up: it writes the bytecode caches.
    own_sources = checkout.loads_own_sources()
    if not own_sources:
        print("error: `import triplet` does not resolve to this checkout", file=sys.stderr)
    batches = workloads.batches(args.workload, args.seed)

    if args.trace:
        def run_batch(batch):
            for req in batch:
                client.traced_call(req)
                client.call(req)

        closed_loop(client, batches, args.seconds, run_batch, lambda: client.probe(["-c", "pass"]))
        interp_start_s = statistics.median(client.probes)
        metrics = tracer.per_layer_metrics(client.totals, client.traced_walls, client.walls, interp_start_s)
        samples = {"probes": len(client.probes), "traced_calls": len(client.traced_walls),
                   "untraced_calls": len(client.walls)}
    else:
        kind = workloads.REFERENCE[args.workload]

        def run_batch(batch):
            for req in batch:
                client.call(req)
                client.calibrate(kind, client.walls[-1])

        setup_ratios: list[float] = []

        def probe():
            # Each set-up probe is scaled by a bare start taken right after it.
            wall = client.probe(["-c", "import triplet.cli"])
            setup_ratios.append(wall / client.reference("start"))

        closed_loop(client, batches, args.seconds, run_batch, probe)
        call_scale = NOMINAL_S[kind] / statistics.fmean(client.refs[kind])
        metrics = {
            "setup_s": (statistics.median(setup_ratios) * NOMINAL_S["start"], "s"),
            "call_mean_s": (statistics.fmean(client.walls) * call_scale, "s"),
            "peak_rss_mb": (client.peak_rss_mb, "MB"),
        }
        samples = {"probes": len(client.probes), "calls": len(client.walls),
                   **{f"reference_{k}": len(v) for k, v in client.refs.items()}}

    info = stamp(checkout, args, samples)
    info["failed_frac"] = client.failed / client.attempted
    if not args.trace:
        # Informational and unscaled: with few, long calls a run's percentiles
        # rest on one or two calls and drift with the machine, so only the
        # scaled mean is gated.
        info["reference"] = kind
        info["reference_medians_s"] = {k: statistics.median(v) for k, v in client.refs.items() if v}
        info["reference_means_s"] = {k: statistics.fmean(v) for k, v in client.refs.items() if v}
        info["unscaled_setup_s"] = statistics.median(client.probes)
        info["unscaled_call_mean_s"] = statistics.fmean(client.walls)
        info["call_p50_s"] = nearest_rank(client.walls, 0.5)
        info["call_p90_s"] = nearest_rank(client.walls, 0.9)
    print(json.dumps({"stamp": info}))
    result = {
        "correct": client.failed == 0 and own_sources and client.probes_ok,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
