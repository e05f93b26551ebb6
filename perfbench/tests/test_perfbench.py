"""The benchmark's own tests.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

Tiny-scale runs of every workload must print exactly the metrics
``BENCHMARK.json`` declares, and seeded faults must be caught by the
correctness checks the benchmark runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from serve_workload import wrong_vcm_answers  # noqa: E402
from spans import Tracer  # noqa: E402


def run_bench(root: Path, workload: str, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith(
        "{") else None
    return proc, result


def copy_checkout(tmp_path: Path) -> Path:
    root = tmp_path / "checkout"
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work")
    for name in ("src", "results", "perfbench"):
        shutil.copytree(ROOT / name, root / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep", "replay", "serve"])
def test_tiny_run_prints_declared_metrics(workload, trace):
    proc, result = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "fingerprint " in proc.stdout
    assert "simulated-output digest" in proc.stdout


def test_altered_artifact_byte_is_caught(tmp_path):
    root = copy_checkout(tmp_path)
    artifact = root / "results" / "fig4.txt"
    data = bytearray(artifact.read_bytes())
    data[len(data) // 2] ^= 0x01
    artifact.write_bytes(bytes(data))
    proc, result = run_bench(root, "sweep")
    assert proc.returncode == 1
    assert result is not None and not result["correct"]
    assert result["failed"] >= 1
    failures = [line for line in proc.stdout.splitlines()
                if line.startswith("FAILED")]
    assert len(failures) == result["failed"]
    assert all("job fig4: status ran, artifact differs" in line
               for line in failures)


def test_wrong_vcm_answer_is_caught():
    from repro.serve.queries import vcm_query

    configs = [{"t_m": 8, "mapping": "prime"},
               {"t_m": 32, "banks": 16, "mapping": "direct",
                "cache_lines": 8192}]
    served = [json.loads(json.dumps(vcm_query(**c))) for c in configs]
    pairs = [(i, c, s) for i, (c, s) in enumerate(zip(configs, served))]
    assert wrong_vcm_answers(pairs) == []
    served[1]["cycles_per_result"] += 1e-9
    assert wrong_vcm_answers(pairs) == [1]


def test_rejected_query_is_recorded_with_its_status(tmp_path):
    from harness import Context
    from serve_workload import answer_status, boot, drive, stop

    ctx = Context(workload="serve", seed=0, seconds=0.0, traced=False,
                  scale="tiny", workdir=tmp_path)
    server = boot(ctx, tmp_path / "store")
    try:
        replies, _ = drive(server["port"], [
            ("job", {"job": "fig4"}), ("job", {"job": "no-such-job"})])
    finally:
        stop(server)
    assert [status for status, _, _ in replies] == [200, 400]
    assert [answer_status(status, payload)
            for status, payload, _ in replies] == ["computed", "error"]


def test_incomplete_checkout_fails_without_a_result(tmp_path):
    root = tmp_path / "bare"
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    proc, result = run_bench(root, "replay")
    assert proc.returncode != 0
    assert result is None and proc.stdout == ""


def test_span_self_time_excludes_wrapped_children():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        return traced_inner() + traced_inner()

    traced_inner = tracer.wrap(inner, "cache.inner")
    traced_outer = tracer.wrap(outer, "machine.outer")
    traced_outer()
    assert tracer.calls("cache.inner") == 2
    assert tracer.calls("machine.outer") == 1
    total = tracer.seconds("machine.outer")
    own = tracer.self_seconds("machine.outer")
    assert own == pytest.approx(total - tracer.seconds("cache.inner"))
    assert [r["parent"] for r in tracer.rows()
            if r["span"] == "cache.inner"] == ["machine.outer"]
