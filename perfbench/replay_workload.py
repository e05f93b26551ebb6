"""``replay``: seeded kernel traces replayed through five caches.

Four kernels from ``repro.workloads`` (blocked matmul, blocked LU,
blocked four-step FFT, SpMV over CSR) generate traces from seeded
inputs; each trace is replayed with ``repro.trace.replay`` through a
direct-mapped 8192-line cache, the prime-mapped 8191-line cache, a
hashed-index 8192-set cache and 4-way and 8-way LRU caches of 8192
lines, all with three-C miss classification.  ``replay`` resets the
cache, so every replay starts empty.  The FFT and SpMV footprints are
larger than 8 K lines and the matmul and LU footprints smaller; the FFT
rows are the stride-128 sweeps that conflict in a power-of-two cache.

Work rate: references replayed across all organisations per host second.

Every timing of a pass is scaled to a nominal host speed.  On a shared
machine the speed of pure-Python code drifts by up to half over minutes,
and this workload, a per-reference Python loop, follows it.  A fixed
reference loop (``harness.reference_loop_s``) runs before every replay
and after the last; a replay's time is multiplied by the nominal
reference time over the mean of the two probes around it.  The raw pass
time and the scale are printed beside the metrics.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from harness import (
    REFERENCE_NOMINAL_S,
    PassResult,
    mean,
    reference_loop_s,
    sha256_json,
    tail_quantile,
)

SIZES = {
    # kernel -> keyword sizes; footprints (words = lines) in comments
    "full": {
        "matmul": {"n": 24, "block": 8},              # 1 728 lines
        "lu": {"n": 48, "block": 16},                 # 2 304 lines
        "fft": {"n": 16384, "b2": 128},               # 16 384 lines
        "spmv": {"rows": 1000, "cols": 12000, "nnz": 8},  # ~24 000 lines
    },
    "tiny": {
        "matmul": {"n": 8, "block": 4},
        "lu": {"n": 8, "block": 4},
        "fft": {"n": 64, "b2": 8},
        "spmv": {"rows": 16, "cols": 64, "nnz": 4},
    },
}
ORGANISATIONS = ("direct", "prime", "hashed", "lru4", "lru8")
#: passes a run is sized for (the tail quantile assumes this many)
PLANNED_PASSES = 6
#: references of one trace re-replayed on the scalar backend
SCALAR_SLICE = {"full": 16384, "tiny": 256}


def make_cache(org: str, seed: int):
    from repro.cache import DirectMappedCache, PrimeMappedCache
    from repro.cache import SetAssociativeCache
    from repro.cache.hashed import HashedIndexCache

    if org == "direct":
        return DirectMappedCache(num_lines=8192)
    if org == "prime":
        return PrimeMappedCache(c=13)
    if org == "hashed":
        return HashedIndexCache(num_sets=8192, seed=seed)
    ways = {"lru4": 4, "lru8": 8}[org]
    return SetAssociativeCache(num_sets=8192 // ways, num_ways=ways)


def make_inputs(scale: str, seed: int) -> dict:
    """The kernels' numeric inputs, all drawn from the run seed."""
    rng = np.random.default_rng(seed)
    sizes = SIZES[scale]
    n = sizes["matmul"]["n"]
    lu_n = sizes["lu"]["n"]
    return {
        "matmul": (rng.standard_normal((n, n)), rng.standard_normal((n, n))),
        # diagonally dominant: the unpivoted blocked LU stays stable
        "lu": rng.standard_normal((lu_n, lu_n)) + lu_n * np.eye(lu_n),
        "fft": rng.standard_normal(sizes["fft"]["n"]),
        "spmv": int(rng.integers(0, 2**31)),
    }


def generate(kernel: str, scale: str, inputs: dict):
    """Run one kernel; returns ``(numeric result, trace)``."""
    from repro.workloads.fft import blocked_fft_2d
    from repro.workloads.irregular import spmv_csr
    from repro.workloads.lu import blocked_lu
    from repro.workloads.matmul import blocked_matmul

    size = SIZES[scale][kernel]
    if kernel == "matmul":
        return blocked_matmul(*inputs["matmul"], size["block"])
    if kernel == "lu":
        return blocked_lu(inputs["lu"], size["block"])
    if kernel == "fft":
        return blocked_fft_2d(inputs["fft"], size["b2"])
    return spmv_csr(size["rows"], size["cols"], size["nnz"],
                    seed=inputs["spmv"])


def reference_ok(kernel: str, scale: str, inputs: dict, value) -> bool:
    """Whether a kernel's numeric result matches its numpy reference."""
    if kernel == "matmul":
        a, b = inputs["matmul"]
        return bool(np.allclose(value, a @ b))
    if kernel == "lu":
        lower = np.tril(value, -1) + np.eye(value.shape[0])
        return bool(np.allclose(lower @ np.triu(value), inputs["lu"]))
    if kernel == "fft":
        return bool(np.allclose(value, np.fft.fft(inputs["fft"])))
    # rebuild the matrix from spmv_csr's documented seeded draw
    size = SIZES[scale]["spmv"]
    rows, cols, nnz = size["rows"], size["cols"], size["nnz"]
    rng = np.random.default_rng(inputs["spmv"])
    indices = np.concatenate([np.sort(rng.choice(cols, size=nnz,
                                                 replace=False))
                              for _ in range(rows)])
    values = rng.standard_normal(indices.size)
    x = rng.standard_normal(cols)
    expected = (values * x[indices]).reshape(rows, nnz).sum(axis=1)
    return bool(np.allclose(value, expected))


def setup(ctx):
    import repro.trace  # noqa: F401 - the replay entry point
    import repro.workloads.fft  # noqa: F401
    import repro.workloads.irregular  # noqa: F401
    import repro.workloads.lu  # noqa: F401
    import repro.workloads.matmul  # noqa: F401

    for org in ORGANISATIONS:
        make_cache(org, ctx.seed)
    return {"inputs": make_inputs(ctx.scale, ctx.seed)}


def teardown(state) -> None:
    return None


def run_pass(ctx, state, tracer) -> PassResult:
    import repro.trace

    inputs = state["inputs"]
    latencies, stats, kernel_s, values, traces = [], {}, {}, {}, {}
    reference_s = []
    start = time.perf_counter()
    for kernel in SIZES[ctx.scale]:
        t0 = time.perf_counter()
        if tracer is None:
            values[kernel], trace = generate(kernel, ctx.scale, inputs)
        else:
            values[kernel], trace = tracer.span(
                f"workloads.{kernel}", generate, kernel, ctx.scale, inputs)
        kernel_s[kernel] = time.perf_counter() - t0
        traces[kernel] = trace
        for org in ORGANISATIONS:
            reference_s.append(reference_loop_s())
            cache = make_cache(org, ctx.seed)
            t0 = time.perf_counter()
            result = repro.trace.replay(trace, cache, t_m=32)
            latencies.append((time.perf_counter() - t0) * 1e3)
            s = result.stats
            stats[f"{kernel}/{org}"] = {
                "refs": len(trace), "accesses": s.accesses, "hits": s.hits,
                "misses": s.misses, "compulsory": s.compulsory_misses,
                "capacity": s.capacity_misses,
                "conflict": s.conflict_misses,
                "stall_cycles": result.stall_cycles,
                "latency_ms": latencies[-1],
            }
    reference_s.append(reference_loop_s())
    raw_wall = time.perf_counter() - start - sum(reference_s)
    # a replay's host speed is read from the probes just before and after
    # it, as the host can change speed within a pass; the rest of the pass
    # (trace generation, cache construction) takes the replays' mean scale
    scaled_ms = [ms * 2 * REFERENCE_NOMINAL_S / (before + after)
                 for ms, before, after in zip(latencies, reference_s,
                                              reference_s[1:])]
    scale = sum(scaled_ms) / sum(latencies)
    kernel_ok = {k: reference_ok(k, ctx.scale, inputs, v)
                 for k, v in values.items()}
    ok = [kernel_ok[key.split("/")[0]] and s["accesses"] == s["refs"]
          and s["hits"] + s["misses"] == s["refs"]
          for key, s in stats.items()]
    refs_total = sum(s["refs"] for s in stats.values())
    digest = sha256_json({k: {f: v for f, v in d.items() if f != "latency_ms"}
                          for k, d in stats.items()})
    state["traces"] = traces
    return PassResult(wall_s=raw_wall * scale,
                      latencies_ms=scaled_ms, ok=ok,
                      work=refs_total, digest=digest,
                      extra={"stats": stats, "kernel_s": kernel_s,
                             "kernel_ok": kernel_ok, "raw_wall_s": raw_wall,
                             "scale": scale})


def _slice(trace, count: int):
    from repro.trace import Trace

    addresses, writes = trace.as_arrays()
    sliced = Trace(description="scalar-check slice")
    sliced.append_block(addresses[:count],
                        write=False if writes is None else writes[:count])
    return sliced


def _scalar_check(ctx, state) -> list[tuple[str, bool, str]]:
    """The LU trace's first references replayed on both engines."""
    from repro.trace import replay

    sliced = _slice(state["traces"]["lu"], SCALAR_SLICE[ctx.scale])
    checks = []
    for org in ORGANISATIONS:
        numpy_stats = replay(sliced, make_cache(org, ctx.seed),
                             backend="numpy").stats
        scalar_stats = replay(sliced, make_cache(org, ctx.seed),
                              backend="scalar").stats
        checks.append((f"scalar-replay {org}", numpy_stats == scalar_stats,
                       f"numpy {numpy_stats} scalar {scalar_stats}"))
    return checks


def finish(ctx, state, passes) -> dict:
    notes = [f"pass {i} kernel {k}: numeric result differs from numpy"
             for i, p in enumerate(passes)
             for k, good in p.extra["kernel_ok"].items() if not good]
    notes += [f"pass {i} replay {key}: hits + misses, accesses, refs differ"
              for i, p in enumerate(passes)
              for key, s in p.extra["stats"].items()
              if not s["hits"] + s["misses"] == s["accesses"] == s["refs"]]
    layers = {}
    for org in ORGANISATIONS:
        rows = [p.extra["stats"] for p in passes]
        layers[f"cache.replay.{org}.s"] = mean(
            sum(r[f"{k}/{org}"]["latency_ms"] for k in SIZES[ctx.scale])
            / 1e3 for r in rows)
        accesses = sum(rows[0][f"{k}/{org}"]["accesses"]
                       for k in SIZES[ctx.scale])
        hits = sum(rows[0][f"{k}/{org}"]["hits"] for k in SIZES[ctx.scale])
        layers[f"cache.replay.{org}.hit_ratio"] = hits / accesses
        layers[f"cache.replay.{org}.conflict_misses"] = sum(
            rows[0][f"{k}/{org}"]["conflict"] for k in SIZES[ctx.scale])
    for kernel in SIZES[ctx.scale]:
        layers[f"workloads.{kernel}.s"] = mean(
            p.extra["kernel_s"][kernel] for p in passes)
    layers["workloads.refs"] = sum(
        passes[0].extra["stats"][f"{k}/direct"]["accesses"]
        for k in SIZES[ctx.scale])
    work = sum(p.work for p in passes)
    info = {"refs_per_s": (work / sum(p.wall_s for p in passes), "1/s"),
            "refs_per_pass": (passes[0].work, "count"),
            "raw_wall_s": (statistics.median(
                p.extra["raw_wall_s"] for p in passes), "s"),
            "host_scale": (statistics.median(
                p.extra["scale"] for p in passes), "ratio")}
    replays = len(SIZES[ctx.scale]) * len(ORGANISATIONS)
    return {"checks": _scalar_check(ctx, state), "notes": notes,
            "info": info, "layers": layers,
            "tail_q": tail_quantile(replays * PLANNED_PASSES)}
