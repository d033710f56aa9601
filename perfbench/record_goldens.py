#!/usr/bin/env python3
"""Record goldens.json: the exit code and stdout sha256 of every pooled argv.

    python3 perfbench/record_goldens.py

Run from the root of a checkout whose CLI output is the reference.  Only
re-record when a change is meant to alter the CLI's bytes; a benchmark run
counts every call that differs from the goldens as failed.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    checkout = run.Checkout(Path.cwd())
    goldens = {}
    for argv in workloads.all_requests():
        _, code, out, _ = checkout.spawn(["-m", "triplet", *argv], timeout=600)
        goldens[" ".join(argv)] = {"exit": code, "stdout_sha256": hashlib.sha256(out).hexdigest()}
        print(f"exit={code} {' '.join(argv)}", file=sys.stderr)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout.root, capture_output=True, text=True, check=False
    ).stdout.strip()
    doc = {"recorded_at_commit": commit or None, "goldens": goldens}
    run.GOLDENS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
