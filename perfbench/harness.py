"""Shared benchmark plumbing: run context, pass loop, statistics, fingerprint.

Every workload module exposes ``setup(ctx)`` and ``teardown(state)``
(the set-up ``setup_s`` times in a fresh process), ``run_pass(ctx,
state, tracer)`` (one pass of the workload's fixed work, returning a
:class:`PassResult`; ``tracer`` is ``None`` in untraced passes) and
``finish(ctx, state, passes)`` (reference checks and the workload's own
figures and per-layer values).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: the checkout root (the directory holding ``perfbench/`` and ``src/``)
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: fresh-process set-ups timed per run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: iterations of one host-speed probe (:func:`reference_loop_s`), and the
#: seconds it takes on the nominal host that scaled timings are given for
REFERENCE_ITERATIONS = 100_000
REFERENCE_NOMINAL_S = 0.01


@dataclass
class Context:
    """One benchmark invocation."""

    workload: str
    seed: int
    seconds: float
    traced: bool
    scale: str
    workdir: Path

    def path(self, name: str) -> Path:
        return self.workdir / name


@dataclass
class PassResult:
    """One pass of a workload's fixed work."""

    wall_s: float
    #: per-operation host latencies (ms) and whether each op passed its checks
    latencies_ms: list[float]
    ok: list[bool]
    #: work units done in the pass (simulated results, refs, queries)
    work: float
    #: digest of the pass's simulated outputs (must not depend on tracing)
    digest: str = ""
    #: anything else a workload's ``finish`` needs
    extra: dict = field(default_factory=dict)


def sha256_json(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=repr).encode()).hexdigest()


def percentile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile (``q`` in (0, 1)).

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics:
    unlike a single order statistic it does not jump between unlike
    neighbours when few samples straddle the quantile (a sweep has about
    thirty jobs of very different lengths).
    """
    ordered = np.sort(np.asarray(samples, dtype=float))
    n = ordered.size
    if n == 1:
        return float(ordered[0])
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = 64  # integration points per order statistic
    grid = np.linspace(0.0, 1.0, steps * n + 1)
    inner = grid[1:-1]
    density = np.zeros_like(grid)
    density[1:-1] = np.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner))
    cdf = np.concatenate(([0.0], np.cumsum(
        (density[1:] + density[:-1]) / 2 * np.diff(grid))))
    weights = np.diff(cdf[::steps]) / cdf[-1]
    return float(weights @ ordered)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def tail_quantile(count: int) -> float:
    """Highest quantile with at least ten of ``count`` samples beyond it
    (cap p99).  Workloads fix ``count`` at their planned sample count, so
    a run that fits one pass fewer reports the same quantile."""
    return max(0.5, min(0.99, 1.0 - 10.0 / count)) if count else 0.5


def reference_loop_s(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Seconds a fixed pure-Python loop takes now: a probe of host speed,
    which drifts by half on a shared machine over minutes."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i
    return time.perf_counter() - start


def run_passes(run_pass, seconds: float) -> list[PassResult]:
    """Repeat ``run_pass`` while another pass still fits in ``seconds``."""
    passes: list[PassResult] = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass())
        elapsed = time.perf_counter() - started
        if elapsed + passes[-1].wall_s > seconds:
            return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory of ``pid`` plus its direct children, in MB."""
    total = 0.0
    pids = [pid]
    try:
        children = Path(f"/proc/{pid}/task/{pid}/children").read_text()
        pids += [int(p) for p in children.split()]
    except OSError:
        pass
    for one in pids:
        try:
            for line in Path(f"/proc/{one}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
        except OSError:
            continue
    return total


def child_env(ctx: Context) -> dict:
    """Environment for child processes: the checkout's ``src`` on the
    path, every cache inside the work directory, default backend."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    env["REPRO_CACHE_DIR"] = str(ctx.path("repro-cache"))
    env["REPRO_KERNEL_CACHE"] = str(ROOT / ".bench_work" / "kernels")
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_KERNEL_PROVIDER", None)
    return env


def probe_setup(ctx: Context, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter to the workload being
    ready for its first timed operation (``setup_probe.py``)."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), ctx.workload,
         ctx.scale, str(ctx.seed), str(workdir)],
        stdout=subprocess.PIPE, text=True, env=child_env(ctx), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.monotonic()
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return ready - start


def cpu_ticks() -> list[int]:
    """The host's cumulative CPU time split (``/proc/stat`` ``cpu``
    line: user, nice, system, idle, iowait, irq, softirq, steal, ...);
    empty where the file is missing."""
    try:
        return [int(v) for v in
                Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return []


def fingerprint(ctx: Context, ticks_before: list[int]) -> dict:
    """Host and run identity stamped on every result.  ``ticks_before``
    is :func:`cpu_ticks` at the start of the run."""
    from repro import kernels

    import numpy

    info = kernels.backend_info()
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        # the ceiling keeps git from reporting an enclosing repository
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        revision = None
    reference_s = reference_loop_s(1_000_000)
    ticks = [now - then for now, then in zip(cpu_ticks(), ticks_before)]
    steal_share = ticks[7] / sum(ticks) if len(ticks) > 7 and any(
        ticks) else None
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "traced": ctx.traced,
        "scale": ctx.scale,
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "default_backend": info["default_backend"],
        "kernel_provider": info["compiled_provider"],
        "kernels_measured": False,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        # a fixed pure-Python loop timed after the run: host speed drifts
        # on shared machines, and this tells drift from a regression
        "host_ref_loop_s": reference_s,
        # share of the host's CPU time taken by other guests during the
        # run; slow spells of a shared machine show here
        "host_steal_share": steal_share,
    }
