"""``sweep``: the default ``repro sweep`` selection, cold and then warm.

The registered default selection runs through ``orchestrate.Runner``
(serial scheduler) against an empty store and an empty results
directory, then again on the now-warm store.  ``fig7-simulated`` and
``fig8-simulated`` are re-parameterised to a reduced grid seeded by the
run seed (fig8 keeps a ``B >= 4096`` point so the paired-stream path
runs); every other job keeps its registry parameters, so its artifact
must be byte-identical to the committed ``results/`` file.

Work rate: simulated vector results per host second of the cold pass
(the result count is fixed by the reduced grid, so the rate moves with
the pass time alone; simulated cycles per second of the two simulated
jobs are printed, but swing with the seed's strides).  Operation
latency: each job's completion time from the start of the cold pass (the
running sum of the Runner's per-job elapsed times), which is how long a
user waits for that job's result when the whole selection is submitted
at once.
"""

from __future__ import annotations

import dataclasses
import itertools
import time

from harness import ROOT, PassResult, mean, sha256_json, tail_quantile

SIMULATED = ("fig7-simulated", "fig8-simulated")
REDUCED = {
    "full": {
        "fig7-simulated": {"t_m_values": (8, 32, 64), "seeds": 1,
                           "blocks": 1},
        "fig8-simulated": {"block_values": (256, 4096), "seeds": 1,
                           "blocks": 1},
    },
    "tiny": {
        "fig7-simulated": {"t_m_values": (8,), "block": 128, "seeds": 1,
                           "blocks": 1},
        "fig8-simulated": {"block_values": (128,), "seeds": 1,
                           "blocks": 1},
    },
}
TINY_SELECTION = ("fig4", "subblock", "zoo-hashed-collision",
                  "fig7-simulated", "fig8-simulated")
#: the grid point re-run on the scalar backend: fig8's smallest block
SCALAR_CHECK_T_M = 32
#: fig7's default blocking factor (its reduced grid keeps it in full size)
FIG7_BLOCK = 1024


def _analytical(job) -> bool:
    from repro.orchestrate.jobs import figure_job_names

    return (job.name in figure_job_names()
            or job.name in ("extension-figures", "subblock")
            or job.fn.startswith("repro.experiments.extension_figures:"))


def setup(ctx):
    from repro.orchestrate.job import resolve
    from repro.orchestrate.jobs import all_jobs, default_sweep

    jobs = all_jobs()
    for name, params in REDUCED[ctx.scale].items():
        jobs[name] = dataclasses.replace(
            jobs[name], params={**params, "base_seed": ctx.seed})
    selection = default_sweep() if ctx.scale == "full" else TINY_SELECTION
    # import every job's implementation now, so passes time work only
    for name in selection:
        resolve(jobs[name].fn)
        if jobs[name].render:
            resolve(jobs[name].render)
    return {"jobs": jobs, "selection": selection, "pass": 0,
            "analytical": frozenset(n for n in selection
                                    if _analytical(jobs[n]))}


def teardown(state) -> None:
    return None


def artifact_mismatches(jobs, names, results_dir, expected_dir) -> set:
    """Registry-parameter jobs whose artifact differs from the committed
    reference (the re-parameterised simulated figures are exempt)."""
    bad = set()
    for name in names:
        job = jobs[name]
        if job.artifact is None or name in SIMULATED:
            continue
        try:
            same = ((results_dir / job.artifact).read_bytes()
                    == (expected_dir / job.artifact).read_bytes())
        except OSError:
            same = False
        if not same:
            bad.add(name)
    return bad


def _grid(params: dict, name: str) -> list[tuple[int, int]]:
    """(problem size N, reuse R) per grid point of a full-reuse figure."""
    blocks = params["blocks"]
    if name == "fig7-simulated":
        block = params.get("block", FIG7_BLOCK)
        return [(block * blocks, block)] * len(params["t_m_values"])
    return [(b * blocks, b) for b in params["block_values"]]


def run_pass(ctx, state, tracer) -> PassResult:
    from repro.orchestrate.runner import Runner
    from repro.orchestrate.store import ResultStore

    jobs, selection = state["jobs"], state["selection"]
    index = state["pass"]
    state["pass"] += 1
    results_dir = ctx.path(f"sweep-results-{index}")
    runner = Runner(jobs.values(), store=ResultStore(
        ctx.path(f"sweep-store-{index}")), results_dir=results_dir,
        scheduler="serial")
    start = time.perf_counter()
    cold = runner.run(selection)
    wall = time.perf_counter() - start
    start = time.perf_counter()
    warm = runner.run(selection)
    warm_s = time.perf_counter() - start

    mismatched = artifact_mismatches(jobs, selection, results_dir,
                                     ROOT / "results")
    ok = [o.status == "ran" and o.name not in mismatched
          for o in cold.outcomes]
    ok += [o.status == "hit" for o in warm.outcomes]
    warm_misses = [o.name for o in warm.outcomes if o.status != "hit"]

    # simulated results and cycles, exact from cycles-per-result x results
    results = cycles = 0.0
    cpr = {"CC-prime": [], "CC-direct": []}
    rendered = {}
    for name in SIMULATED:
        figure = cold.results.get(name)
        if figure is None:
            continue
        rendered[name] = jobs[name].render_result(figure)
        seeds = jobs[name].params["seeds"]
        grid = _grid(jobs[name].params, name)
        for series in figure.series:
            for value, (n, reuse) in zip(series.values, grid):
                results += seeds * n * reuse
                cycles += value * seeds * n * reuse
            if series.label in cpr:
                cpr[series.label] += list(series.values)
    elapsed = {o.name: o.elapsed_s for o in cold.outcomes}
    sim_s = sum(elapsed.get(name, 0.0) for name in SIMULATED)
    return PassResult(
        wall_s=wall,
        latencies_ms=list(itertools.accumulate(
            o.elapsed_s * 1e3 for o in cold.outcomes)),
        ok=ok,
        work=results,
        digest=sha256_json(rendered),
        extra={
            "elapsed": elapsed,
            "sim_s": sim_s,
            "warm_s": warm_s,
            "warm_hits": warm.count("hit"),
            "sim_cycles": cycles,
            "cpr": cpr,
            "mismatched": sorted(mismatched),
            "warm_misses": warm_misses,
            "statuses": {o.name: o.status for o in cold.outcomes},
            "errors": {o.name: o.error for o in cold.outcomes if o.error},
        },
    )


def _scalar_check(ctx) -> list[tuple[str, bool, str]]:
    """Re-run one reduced grid point on ``backend="scalar"``; every
    machine's ``ExecutionReport`` must equal the numpy engine's."""
    from repro.analytical.base import MachineConfig
    from repro.analytical.vcm import VCM
    from repro.cache import DirectMappedCache, PrimeMappedCache
    from repro.experiments.figures import DEFAULTS
    from repro.machine import CCMachine, MMMachine, VCMDriver

    block = REDUCED[ctx.scale]["fig8-simulated"]["block_values"][0]
    vcm = VCM(blocking_factor=block, reuse_factor=block,
              p_ds=DEFAULTS["p_ds"], p_stride1_s1=DEFAULTS["p_stride1"],
              p_stride1_s2=DEFAULTS["p_stride1"])
    config = MachineConfig(num_banks=64, memory_access_time=SCALAR_CHECK_T_M,
                           cache_lines=DEFAULTS["direct_lines"])
    prime = config.with_(cache_lines=DEFAULTS["prime_lines"])
    machines = {
        "MM-model": lambda b: MMMachine(config, backend=b),
        "CC-direct": lambda b: CCMachine(config, DirectMappedCache(
            num_lines=DEFAULTS["direct_lines"], classify_misses=False),
            backend=b),
        "CC-prime": lambda b: CCMachine(prime, PrimeMappedCache(
            c=13, classify_misses=False), backend=b),
    }
    checks = []
    for label, make in machines.items():
        reports = [VCMDriver(make(b), seed=ctx.seed).run(
            vcm, problem_size=block).report for b in ("numpy", "scalar")]
        checks.append((f"scalar-report {label} B={block}",
                       reports[0] == reports[1],
                       f"numpy {reports[0]} scalar {reports[1]}"))
    return checks


def finish(ctx, state, passes) -> dict:
    notes = [f"pass {i} job {name}: status {p.extra['statuses'][name]}"
             f"{', artifact differs' if name in p.extra['mismatched'] else ''}"
             f" {p.extra['errors'].get(name) or ''}".rstrip()
             for i, p in enumerate(passes)
             for name, status in p.extra["statuses"].items()
             if status != "ran" or name in p.extra["mismatched"]]
    notes += [f"pass {i} job {name}: not a store hit on the warm re-run"
              for i, p in enumerate(passes)
              for name in p.extra["warm_misses"]]
    cycles = sum(p.extra["sim_cycles"] for p in passes)
    sim_s = sum(p.extra["sim_s"] for p in passes)
    cpr = passes[0].extra["cpr"]
    info = {
        "sim_cycles_per_s": (cycles / sim_s if sim_s else 0.0, "1/s"),
        "sim_cpr_prime": (mean(cpr["CC-prime"]), "cycles"),
        "sim_cpr_direct": (mean(cpr["CC-direct"]), "cycles"),
        "warm_s": (mean(p.extra["warm_s"] for p in passes), "s"),
    }
    layers = {
        f"experiments.{name}.s": mean(p.extra["elapsed"].get(name, 0.0)
                                      for p in passes)
        for name in ("fig7-simulated", "fig8-simulated",
                     "ablation-associativity")
    }
    layers["analytical.jobs.s"] = mean(
        sum(s for n, s in p.extra["elapsed"].items()
            if n in state["analytical"]) for p in passes)
    layers["orchestrate.overhead_s"] = mean(
        p.wall_s - sum(p.extra["elapsed"].values()) for p in passes)
    layers["orchestrate.warm_s"] = info["warm_s"][0]
    layers["orchestrate.warm_hits"] = mean(
        p.extra["warm_hits"] for p in passes)
    layers["machine.sim_cycles_per_s"] = info["sim_cycles_per_s"][0]
    layers["experiments.sim_cpr_prime"] = info["sim_cpr_prime"][0]
    layers["experiments.sim_cpr_direct"] = info["sim_cpr_direct"][0]
    return {"checks": _scalar_check(ctx), "notes": notes, "info": info,
            "layers": layers,
            "tail_q": tail_quantile(len(state["selection"]))}
