"""Time one workload's set-up in a fresh interpreter.

Usage: ``python perfbench/setup_probe.py WORKLOAD SCALE SEED WORKDIR``.
Runs the workload's ``setup`` (imports, registry and runner build, or
the serve daemon's boot until ``/healthz`` answers), prints ``ready``,
then tears the set-up down.  The parent times spawn-to-``ready``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from harness import Context


def main() -> int:
    workload, scale, seed, workdir = sys.argv[1:5]
    ctx = Context(workload=workload, seed=int(seed), seconds=0.0,
                  traced=False, scale=scale, workdir=Path(workdir))
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    module = importlib.import_module(f"{workload}_workload")
    state = module.setup(ctx)
    print("ready", flush=True)
    module.teardown(state)
    return 0


if __name__ == "__main__":
    sys.exit(main())
