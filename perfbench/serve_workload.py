"""``serve``: a seeded query mix against ``repro serve`` in a child process.

Each pass boots ``repro serve --workers 1 --port 0`` on an empty store,
waits for ``/healthz``, and sends it the run's fixed query list from a
closed loop of two client threads (each sends its next query only after
the previous reply, one connection per request, through the public
:class:`repro.serve.client.ServeClient`).  A run repeats short passes so
``wall_s`` is a median over several.

Where the mix comes from:

* the ``vcm`` catalogue, its Zipf exponent and the pass length are those
  of ``benchmarks/bench_serve.py`` (32 configs ranked ``1/rank^1.1``,
  400 requests; 8 configs in its smoke size), with the popularity order
  shuffled by the seed;
* ``vcm_batch``, ``trace`` and ``job`` bodies take the shapes of the
  request examples in ``docs/serving.md`` (three-point batches,
  4096-reference strided replays on 13-bit caches, analytical registry
  jobs);
* the number of queries of each kind (``COUNTS``) is an assumption:
  nothing in the repository records how often users send each kind.

Work rate: completed queries per second.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import time

from harness import (
    HERE,
    PassResult,
    child_env,
    percentile,
    sha256_json,
    tail_quantile,
    vm_hwm_mb,
)

from repro.serve.client import ServeClient, ServeError

#: queries of each kind per pass.  400 queries and the catalogue size
#: are ``bench_serve.py``'s full / smoke sizes (``tiny`` is for the
#: benchmark's own tests); the split between kinds (about 80 % ``vcm``,
#: 10 % ``vcm_batch``, 6 % ``trace`` and each analytical job once) is an
#: assumption, not taken from recorded usage.  Fixed counts keep the work
#: of a pass the same for every seed.
COUNTS = {
    "full": {"vcm": 322, "vcm_batch": 40, "trace": 24, "job": 14},
    "tiny": {"vcm": 16, "vcm_batch": 4, "trace": 2, "job": 2},
}
CATALOGUE = {"full": 32, "tiny": 8}
#: passes a run is sized for (the tail quantile assumes this many)
PLANNED_PASSES = 8
KINDS = ("vcm", "vcm_batch", "trace", "job")
ZIPF_S = 1.1
CLIENTS = 2
BATCH_POINTS = 3
#: served ``vcm`` answers re-computed in-process per pass
VCM_SAMPLE = 24
ANALYTICAL_JOBS = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                   "fig11a", "fig11b", "subblock", "ext-assoc",
                   "ext-missratio", "ext-bandwidth", "ext-utilization")


def catalogue(size: int, rng: random.Random) -> list[dict]:
    """``bench_serve.py``'s VCM configs, most popular first, in an order
    shuffled by ``rng``."""
    configs = [{
        "t_m": 8 + 8 * (rank % 8),
        "banks": 64 if rank % 2 == 0 else 32,
        "blocking_factor": 256 << (rank % 4),
        "reuse_factor": float(8 + rank),
    } for rank in range(size)]
    rng.shuffle(configs)
    return configs


def make_queries(scale: str, seed: int) -> list[tuple[str, dict]]:
    """The run's fixed query list: ``(kind, request body)`` pairs."""
    rng = random.Random(seed)
    configs = catalogue(CATALOGUE[scale], rng)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(configs))]
    counts = COUNTS[scale]
    kinds = [kind for kind in KINDS for _ in range(counts[kind])]
    rng.shuffle(kinds)
    jobs = iter(rng.sample(ANALYTICAL_JOBS, counts["job"]))
    queries = []
    for kind in kinds:
        if kind == "vcm":
            body = {"vcm": rng.choices(configs, weights)[0]}
        elif kind == "vcm_batch":
            body = {"vcm_batch": rng.choices(configs, weights,
                                             k=BATCH_POINTS)}
        elif kind == "trace":
            body = {"trace": {
                "stride": rng.randint(1, 8191), "length": 4096, "c": 13,
                "organisation": rng.choice(("prime", "direct"))}}
        else:
            body = {"job": next(jobs)}
        queries.append((kind, body))
    return queries


def boot(ctx, store_dir, spans_out=None) -> dict:
    """Start the daemon on an empty store; returns once ``/healthz``
    answers.  ``spans_out`` runs it under the tracing wrapper."""
    args = ["serve", "--workers", "1", "--port", "0",
            "--cache-dir", str(store_dir)]
    command = ([sys.executable, str(HERE / "serve_child.py"),
                str(spans_out), *args] if spans_out is not None
               else [sys.executable, "-m", "repro", *args])
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=child_env(ctx), cwd=ctx.workdir)
    try:
        line = proc.stdout.readline()
        if "http://" not in line:
            raise RuntimeError(f"serve did not start: {line!r}")
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        client = ServeClient(port=port, timeout=60)
        deadline = time.monotonic() + 60
        while True:
            try:
                if client.healthz().get("ok"):
                    break
            except (OSError, ServeError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("serve /healthz never answered")
            time.sleep(0.01)
    except BaseException:
        stop({"proc": proc, "port": None})
        raise
    return {"proc": proc, "port": port}


def stop(server: dict) -> None:
    """Ask the daemon to drain and exit; kill it if it does not."""
    proc = server["proc"]
    if server["port"] is not None and proc.poll() is None:
        try:
            ServeClient(port=server["port"], timeout=60).shutdown()
        except (OSError, ServeError):
            pass
    try:
        proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def setup(ctx):
    import repro.serve.queries  # noqa: F401 - the in-process reference

    queries = make_queries(ctx.scale, ctx.seed)
    return {"queries": queries, "pass": 0,
            "server": boot(ctx, ctx.path("serve-store-0"))}


def teardown(state) -> None:
    if state.get("server") is not None:
        stop(state["server"])
        state["server"] = None


def drive(port: int, queries) -> tuple[list, float]:
    """Closed loop: ``CLIENTS`` threads share one ordered query list.
    Each reply is ``(HTTP status, payload, milliseconds)``; status 0
    means the exchange itself failed."""
    serve_client = ServeClient(port=port, timeout=60)
    replies: list = [None] * len(queries)
    cursor = iter(range(len(queries)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            start = time.perf_counter()
            try:
                status, payload = 200, serve_client.query(queries[index][1])
            except ServeError as error:
                status, payload = error.status, error.payload
            except (OSError, ValueError) as error:
                status, payload = 0, {"error": repr(error)}
            replies[index] = (status, payload,
                              (time.perf_counter() - start) * 1e3)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies, time.perf_counter() - start


def answer_status(status: int, payload) -> str:
    """``hit`` when every resolved job was a store hit, ``computed`` when
    any was executed, ``error`` for anything but a good 200 reply."""
    if status != 200 or not isinstance(payload, dict) or not payload.get(
            "ok") or not payload.get("results"):
        return "error"
    statuses = {r.get("status") for r in payload["results"]}
    if statuses <= {"hit"}:
        return "hit"
    return "computed" if statuses <= {"hit", "computed"} else "error"


def wrong_vcm_answers(pairs) -> list[int]:
    """Indexes of served ``vcm`` answers that differ from an in-process
    :func:`repro.serve.queries.vcm_query` of the same config."""
    from repro.serve.queries import vcm_query

    wrong = []
    for index, config, served in pairs:
        expected = json.loads(json.dumps(vcm_query(**config)))
        if served != expected:
            wrong.append(index)
    return wrong


def run_pass(ctx, state, tracer) -> PassResult:
    queries = state["queries"]
    index = state["pass"]
    state["pass"] += 1
    spans_out = ctx.path(f"serve-spans-{index}.json")
    if state["server"] is None or tracer is not None:
        teardown(state)
        state["server"] = boot(ctx, ctx.path(f"serve-store-{index}"),
                               spans_out if tracer is not None else None)
    server = state["server"]
    try:
        replies, wall = drive(server["port"], queries)
        try:
            stats = ServeClient(port=server["port"], timeout=60).stats()
        except (OSError, ServeError, ValueError):
            stats = None
        child_mb = vm_hwm_mb(server["proc"].pid)
    finally:
        teardown(state)
    if tracer is not None:
        tracer.merge(json.loads(spans_out.read_text()))

    statuses = [answer_status(status, payload)
                for status, payload, _ in replies]
    ok = [s != "error" for s in statuses]
    seen, sample = set(), []
    for i, (kind, body) in enumerate(queries):
        if kind == "vcm" and ok[i] and len(sample) < VCM_SAMPLE:
            key = json.dumps(body["vcm"], sort_keys=True)
            if key not in seen:
                seen.add(key)
                sample.append((i, body["vcm"],
                               replies[i][1]["results"][0]["result"]))
    for i in wrong_vcm_answers(sample):
        ok[i] = False
    # the daemon's own error counter is one more checked operation
    ok.append(stats is not None and stats.get("errors") == 0)
    answers = [[r.get("result") for r in payload["results"]]
               if s != "error" else None
               for (_, payload, _), s in zip(replies, statuses)]
    return PassResult(
        wall_s=wall, latencies_ms=[ms for _, _, ms in replies], ok=ok,
        work=len(queries), digest=sha256_json(answers),
        extra={"statuses": statuses, "stats": stats or {},
               "child_rss_mb": child_mb,
               "wrong_vcm": len(sample) - sum(ok[i] for i, _, _ in sample)})


def _median(values):
    return percentile(values, 0.5) if values else 0.0


def finish(ctx, state, passes) -> dict:
    kinds = [kind for kind, _ in state["queries"]]
    layers, notes = {}, []
    for kind in KINDS:
        samples = [ms for p in passes
                   for k, ms in zip(kinds, p.latencies_ms) if k == kind]
        layers[f"serve.{kind}.n"] = len(samples) / len(passes)
        layers[f"serve.{kind}.p50_ms"] = _median(samples)
        layers[f"serve.{kind}.tail_ms"] = (percentile(
            samples, tail_quantile(len(samples))) if samples else 0.0)
    by_status = {"hit": [], "computed": []}
    for p in passes:
        for status, ms in zip(p.extra["statuses"], p.latencies_ms):
            if status in by_status:
                by_status[status].append(ms)
    layers["serve.hit_p50_ms"] = _median(by_status["hit"])
    layers["serve.cold_p50_ms"] = _median(by_status["computed"])
    stats = [p.extra["stats"] for p in passes]
    layers["serve.hit_ratio"] = sum(s.get("hits", 0) for s in stats) / max(
        1, sum(s.get("hits", 0) + s.get("computed", 0) for s in stats))
    layers["serve.coalesce_ratio"] = sum(
        s.get("coalesced", 0) for s in stats) / max(
        1, sum(s.get("requests", 0) for s in stats))
    layers["serve.errors"] = sum(s.get("errors", 0) for s in stats)
    layers["serve.self_s"] = sum(sum(p.latencies_ms) for p in passes) \
        / 1e3 / len(passes)
    for i, p in enumerate(passes):
        errors = p.extra["statuses"].count("error")
        if errors:
            notes.append(f"pass {i}: {errors} queries failed")
        if p.extra["wrong_vcm"]:
            notes.append(f"pass {i}: {p.extra['wrong_vcm']} vcm answers "
                         f"differ from the in-process vcm_query")
        if p.extra["stats"].get("errors", 1):
            notes.append(f"pass {i}: /stats reports errors "
                         f"{p.extra['stats'].get('errors')}")
    info = {
        "serve_qps": (_median([p.work / p.wall_s for p in passes]), "1/s"),
        "hit_p50_ms": (layers["serve.hit_p50_ms"], "ms"),
        "cold_p50_ms": (layers["serve.cold_p50_ms"], "ms"),
        "queries": (sum(len(p.latencies_ms) for p in passes), "count"),
    }
    return {"checks": [], "notes": notes, "info": info, "layers": layers,
            "child_rss_mb": max(p.extra["child_rss_mb"] for p in passes),
            "tail_q": tail_quantile(len(state["queries"]) * PLANNED_PASSES)}
