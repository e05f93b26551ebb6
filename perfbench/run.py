"""The repository benchmark: three workloads, timed end to end and per layer.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload {sweep,replay,serve} --seed N \\
        --seconds S --trace {0,1}

* ``sweep`` — the default ``repro sweep`` selection, cold through the
  serial ``orchestrate.Runner`` on an empty store, then warm
  (``sweep_workload.py``).
* ``replay`` — seeded kernel traces replayed through five caches
  (``replay_workload.py``).
* ``serve`` — a seeded query mix against ``repro serve --workers 1``
  from a closed loop of two clients (``serve_workload.py``).

Inputs derive from ``--seed`` only.  Every run starts from empty caches
and an empty result store, uses the default ``numpy`` backend (so
``repro.kernels`` is not measured) and keeps all its files under
``.bench_work/`` in the checkout.

``--trace 0`` repeats the workload's fixed pass while another fits in
``--seconds`` and reports the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` (median of five fresh-process set-ups, timed after the
passes), ``peak_rss_mb`` and, each a median over passes, ``wall_s``,
``work_per_s`` (simulated vector results, references replayed or
queries answered per second of the pass), ``p50_ms`` and ``tail_ms``
(Harrell-Davis estimates of operation latency within the pass: a sweep
job's completion time from the start of the pass, a replay's or a
query's own duration; the tail is the highest percentile with at least
ten samples beyond it at the workload's planned sample count over all
passes, capped at p99).  On ``replay`` every timing is scaled to a
nominal host speed measured by a probe loop between replays
(``replay_workload.py``).  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics: the traced pass wraps
public functions of each ``repro`` layer from ``spans.py``, and the
difference between the two pass times is the tracing overhead.

Every operation (job, replay, query, reference re-run) is checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Earlier lines carry the host
and run fingerprint, the simulated-output digest and the workload's own
named figures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys

from harness import (
    ROOT,
    SETUP_REPEATS,
    SRC,
    Context,
    child_env,
    cpu_ticks,
    fingerprint,
    peak_rss_mb,
    percentile,
    probe_setup,
    run_passes,
)

from spans import LAYERS, Tracer, install_layers

WORKLOADS = ("sweep", "replay", "serve")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes for the benchmark's own tests")
    return parser.parse_args(argv)


def end_to_end(passes, setups, finished) -> dict:
    # every timing is a median over passes, so one pass that meets a slow
    # spell of a shared host does not move it
    def per_pass(value):
        return statistics.median(value(p) for p in passes)

    return {
        "setup_s": statistics.median(setups),
        "wall_s": per_pass(lambda p: p.wall_s),
        "peak_rss_mb": peak_rss_mb() + finished.get("child_rss_mb", 0.0),
        "work_per_s": per_pass(lambda p: p.work / p.wall_s),
        "p50_ms": per_pass(lambda p: percentile(p.latencies_ms, 0.5)),
        "tail_ms": per_pass(
            lambda p: percentile(p.latencies_ms, finished["tail_q"])),
    }


def per_layer(tracer, untraced, traced, finished) -> dict:
    calls, secs = tracer.calls, tracer.seconds
    counters = tracer.counters
    values = {
        "machine.execute.calls": calls("machine.execute"),
        "machine.execute.s": secs("machine.execute"),
        "machine.execute.self_s": tracer.self_seconds("machine.execute"),
        "machine.address_array.calls": calls("machine.address_array"),
        "machine.address_array.s": secs("machine.address_array"),
        "memory.claim_reads_batch.s": secs("memory.claim_reads_batch"),
        "cache.access_many.calls": calls("cache.access_many"),
        "cache.access_many.refs": counters["cache.refs"],
        "cache.access_many.s": secs("cache.access_many"),
        "cache.refs_per_call": (counters["cache.refs"]
                                / max(1, calls("cache.access_many"))),
        "cache.hit_ratio": (counters["cache.hits"]
                            / max(1, counters["cache.refs"])),
        "bench.untraced_wall_s": untraced.wall_s,
        "bench.traced_wall_s": traced.wall_s,
        "bench.trace_overhead_s": traced.wall_s - untraced.wall_s,
    }
    for name in ("sim_cycles", "bank_stall_cycles", "miss_stall_cycles",
                 "overhead_cycles"):
        values[f"machine.{name}"] = counters[f"machine.{name}"]
    for name in ("elements", "stall_cycles"):
        values[f"memory.{name}"] = counters[f"memory.{name}"]
    for name in ("service_at", "service_many", "service_writes"):
        values[f"memory.{name}.calls"] = calls(f"memory.{name}")
        values[f"memory.{name}.s"] = secs(f"memory.{name}")
    for name in ("cache_key", "store.save", "store.load"):
        values[f"orchestrate.{name}.calls"] = calls(f"orchestrate.{name}")
        values[f"orchestrate.{name}.s"] = secs(f"orchestrate.{name}")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.layer_self_seconds(layer)
    values.update(finished["layers"])
    return values


def measure(ctx, module) -> dict:
    """Run the workload; returns everything the report prints."""
    state = module.setup(ctx)
    try:
        if ctx.traced:
            passes = [module.run_pass(ctx, state, None)]
            tracer = Tracer()
            install_layers(tracer, state.get("analytical", frozenset()))
            try:
                traced = module.run_pass(ctx, state, tracer)
            finally:
                tracer.uninstall()
            finished = module.finish(ctx, state, [traced])
            everything = passes + [traced]
        else:
            passes = run_passes(
                lambda: module.run_pass(ctx, state, None), ctx.seconds)
            finished = module.finish(ctx, state, passes)
            everything = passes
    finally:
        module.teardown(state)
    # after the passes, so no set-up's exiting processes share the CPUs
    # with a timed pass
    setups = [] if ctx.traced else [
        probe_setup(ctx, ctx.path(f"probe-{i}"))
        for i in range(SETUP_REPEATS)]

    digests = sorted({p.digest for p in everything})
    checks = list(finished["checks"])
    checks.append(("digest stable across passes", len(digests) == 1,
                   " ".join(digests)))
    attempted = sum(len(p.ok) for p in everything) + len(checks)
    failed = (sum(not ok for p in everything for ok in p.ok)
              + sum(not ok for _, ok, _ in checks))
    info = dict(finished["info"])
    info["failed_frac"] = (failed / attempted, "ratio")
    if ctx.traced:
        values = per_layer(tracer, passes[0], traced, finished)
        spans = tracer.rows()
    else:
        values = end_to_end(passes, setups, finished)
        spans = []
        samples = sum(len(p.latencies_ms) for p in passes)
        info["latency_samples"] = (samples, "count")
        info["tail_quantile"] = (finished["tail_q"], "ratio")
    return {"values": values, "attempted": attempted, "failed": failed,
            "checks": checks, "notes": finished["notes"], "info": info,
            "digest": digests[0], "passes": len(everything),
            "spans": spans}


def declared(traced: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if traced else "end_to_end"]


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, traced=bool(args.trace),
                  scale=args.scale, workdir=workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ.update({k: v for k, v in child_env(ctx).items()
                       if k.startswith("REPRO_")})
    for name in ("REPRO_BACKEND", "REPRO_KERNEL_PROVIDER"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    ticks = cpu_ticks()
    try:
        module = importlib.import_module(f"{args.workload}_workload")
        result = measure(ctx, module)
        stamp = fingerprint(ctx, ticks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("fingerprint " + json.dumps(stamp, sort_keys=True))
    print(f"simulated-output digest {result['digest']} "
          f"({result['passes']} passes)")
    for name, (value, unit) in result["info"].items():
        print(f"{args.workload}.{name} = {value:.6g} {unit}")
    for row in result["spans"]:
        print("span " + json.dumps(row))
    for note in result["notes"]:
        print(f"FAILED: {note}")
    for name, ok, detail in result["checks"]:
        if not ok:
            print(f"FAILED: {name}: {detail}")
    specs = declared(ctx.traced)
    undeclared = set(result["values"]) - {spec["name"] for spec in specs}
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {undeclared}")
    metrics = {}
    for spec in specs:
        # a per-layer metric a workload does not touch reads 0
        value = (result["values"].get(spec["name"], 0.0) if ctx.traced
                 else result["values"][spec["name"]])
        print(f"{spec['name']} = {value:.6g} {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
