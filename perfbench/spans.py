"""In-memory spans and counters for the traced benchmark run.

A :class:`Tracer` wraps public functions of the ``repro`` layers from the
outside (class or module attributes are replaced, and restored by
:meth:`Tracer.uninstall`).  Every wrapped call is a span with a name, a
duration and the span that caused it; spans are folded into an
aggregate call tree keyed by ``(name, parent)`` as they close, so memory
stays bounded however many calls a pass makes.  A span's self time is
its duration minus the time covered by the wrapped spans it caused.

Each thread keeps its own span stack, and the aggregates sit behind one
lock, so the serve daemon's worker threads can be traced too.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

__all__ = ["LAYERS", "Tracer", "install_layers", "install_orchestrate"]

#: the layers whose in-process spans give a self time (serve's spans are
#: its clients' request timings, reported by the serve workload itself)
LAYERS = ("trace", "workloads", "cache", "memory", "machine", "analytical",
          "experiments", "orchestrate")


class Tracer:
    """Aggregating span recorder with attribute patching."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (name, parent name or None) -> [calls, total seconds, self seconds]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, parent: str | None, total: float,
                own: float) -> None:
        with self._lock:
            entry = self.spans.get((name, parent))
            if entry is None:
                entry = self.spans[(name, parent)] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += total
            entry[2] += own

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             on_result: Callable | None = None) -> Callable:
        """``fn`` recorded as a span; ``name`` may derive from the args."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            frame = [label, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                tracer._record(label, parent, elapsed, elapsed - frame[1])
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)

    def patch(self, owner: Any, attr: str, name, on_result=None) -> None:
        """Replace ``owner.attr`` by its traced wrapper."""
        original = (vars(owner)[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, on_result))

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(v[0] for (n, _), v in self.spans.items() if n == name)

    def seconds(self, name: str) -> float:
        return sum(v[1] for (n, _), v in self.spans.items() if n == name)

    def self_seconds(self, name: str) -> float:
        return sum(v[2] for (n, _), v in self.spans.items() if n == name)

    def layer_self_seconds(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v[2] for (n, _), v in self.spans.items()
                   if n.startswith(prefix))

    def rows(self) -> list[dict]:
        """The aggregate call tree, heaviest edge first."""
        return [
            {"span": name, "parent": parent, "calls": calls,
             "total_s": total, "self_s": own}
            for (name, parent), (calls, total, own)
            in sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        ]

    def export(self) -> dict:
        return {"spans": [[n, p, *v] for (n, p), v in self.spans.items()],
                "counters": dict(self.counters)}

    def merge(self, exported: dict) -> None:
        """Fold in another process's :meth:`export` output."""
        with self._lock:
            for name, parent, calls, total, own in exported["spans"]:
                entry = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
            for name, value in exported["counters"].items():
                self.counters[name] += value


# -- counters read from what the wrapped calls return ---------------------


def _count_report(tracer: Tracer, _args, report) -> None:
    tracer.count("machine.sim_cycles", report.cycles)
    tracer.count("machine.bank_stall_cycles", report.bank_stall_cycles)
    tracer.count("machine.miss_stall_cycles", report.miss_stall_cycles)
    tracer.count("machine.overhead_cycles", report.overhead_cycles)


def _count_reply(tracer: Tracer, _args, reply) -> None:
    tracer.count("memory.elements", reply.accesses)
    tracer.count("memory.stall_cycles", reply.stall_cycles)


def _count_writes(tracer: Tracer, args, _result) -> None:
    tracer.count("memory.elements", len(args[1]))


def _count_batch(tracer: Tracer, _args, batch) -> None:
    tracer.count("cache.refs", batch.delta.accesses)
    tracer.count("cache.hits", batch.delta.hits)


def install_orchestrate(tracer: Tracer) -> None:
    """Trace content keying and result-store I/O (sweep and serve)."""
    import sys

    from repro.orchestrate import fingerprint, runner
    from repro.orchestrate.store import ResultStore

    service = sys.modules.get("repro.serve.service")
    for module in (fingerprint, runner, service):
        if module is not None:
            tracer.patch(module, "cache_key", "orchestrate.cache_key")
    tracer.patch(ResultStore, "save", "orchestrate.store.save")
    tracer.patch(ResultStore, "load", "orchestrate.store.load")


def install_layers(tracer: Tracer, analytical_jobs=frozenset()) -> None:
    """Trace the in-process layers: machine, memory, cache, trace, jobs.

    ``analytical_jobs`` names the registry jobs whose execution counts
    as the analytical layer; every other job execution is experiments.
    """
    import sys

    import repro.trace
    from repro.cache.base import Cache
    from repro.machine.ops import VectorLoad
    from repro.machine.vector_machine import VectorMachine
    from repro.memory.banks import InterleavedMemory
    from repro.memory.bus import BusSet
    from repro.orchestrate.job import Job
    from repro.orchestrate.runner import Runner

    tracer.patch(VectorMachine, "execute", "machine.execute", _count_report)
    tracer.patch(VectorLoad, "address_array", "machine.address_array")
    tracer.patch(InterleavedMemory, "service_at", "memory.service_at",
                 _count_reply)
    tracer.patch(InterleavedMemory, "service_many", "memory.service_many",
                 _count_reply)
    tracer.patch(InterleavedMemory, "service_writes",
                 "memory.service_writes", _count_writes)
    tracer.patch(BusSet, "claim_reads_batch", "memory.claim_reads_batch")
    tracer.patch(Cache, "access_many", "cache.access_many", _count_batch)
    for module in (repro.trace, sys.modules["repro.trace.replay"]):
        tracer.patch(module, "replay", "trace.replay")
    tracer.patch(Job, "execute", lambda job, *_a, **_k: (
        "analytical.job" if job.name in analytical_jobs
        else "experiments.job"))
    tracer.patch(Runner, "run", "orchestrate.run")
    install_orchestrate(tracer)
