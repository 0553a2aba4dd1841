"""Smoke test of the benchmark itself.

    python3 -m pytest bench/tests -q

Runs every workload for one second, untraced and traced (a run always
completes its first pass over the workload's pool of cycles, so each takes
some 10-20 s), and checks that every metric is emitted by name with its unit
and that the outputs passed their checks.  Outside tier 1, which collects
only tests/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

END_TO_END = {"items_per_s": "1/s", "call_p50_ms": "ms", "call_p90_ms": "ms",
              "call_p99_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = [
    "dicke.moments_us", "dicke.moments_ns_per_coeff",
    "dicke.moments_calls_per_item", "dicke.ctor_us", "frame.us",
    "metrics.variances_us", "metrics.tail_us", "metrics.analyze_self_us",
    "states.factory_us", "states.calls", "states.failures", "io.csv_row_us",
    "io.parse_state_us", "io.state_dump_us", "io.report_dump_us",
    "oracle.expand_us", "oracle.metrics_ms", "oracle.ns_per_amplitude_op",
    "oracle.action_calls_per_item", "oracle.peak_alloc_mb", "cli.self_ms",
    "cli.sweep_rows_per_s", "trace.overhead_frac",
] + [f"{layer}.self_share" for layer in
     ("states", "dicke", "frame", "metrics", "io", "oracle", "cli")]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_names_every_metric():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(PER_LAYER)
    assert WORKLOADS == ["analyze-small", "analyze-large", "cli",
                         "oracle-check"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds",
                "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    record, result = map(json.loads, done.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["messages"]
    assert result["attempted"] >= 1
    assert record["error_rate"] == result["failed"] / result["attempted"]
    for key in ("python", "numpy", "nproc", "loadavg"):
        assert key in record
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        if not trace:
            assert metric["value"] > 0, name
    if workload == "cli" and not trace:
        assert record["sweep_rows_per_s"] > 0


def test_only_known_defects_count_as_plain_failures():
    sys.path.insert(0, str(ROOT / "bench"))
    import run
    run._import_spinent()
    import workloads

    def raising(exc):
        def call():
            raise exc
        return call

    residue = AssertionError("Hermitian expectation has imaginary residue 2e-10")
    items = [
        # A known defect on an input that may hit it: failed, not wrong.
        workloads.Item(raising(residue), lambda _: None,
                       known_defect=workloads.RESIDUE_ASSERT),
        # The same defect on another input: wrong.
        workloads.Item(raising(residue), lambda _: None),
        # Any other exception: wrong.
        workloads.Item(raising(TypeError("x")), lambda _: None,
                       known_defect=workloads.RESIDUE_ASSERT),
        workloads.Item(lambda: 1, lambda _: None),
    ]
    loop = run.Loop()
    run.run_cycle(items, loop)
    assert [loop.total(f) for f in ("attempted", "failed", "wrong")] == [
        4, 3, 2]


def test_counts_come_from_the_first_pass():
    sys.path.insert(0, str(ROOT / "bench"))
    import run
    run._import_spinent()
    import workloads

    raises = iter([False, True])

    def flaky():
        # Passes in the first pass, hits the known defect in the second.
        if next(raises):
            raise AssertionError("Hermitian expectation has imaginary residue")

    item = workloads.Item(flaky, lambda _: None,
                          known_defect=workloads.RESIDUE_ASSERT)
    loop = run.Loop()
    run.run_cycle([item], loop, index=0)
    run.run_cycle([item], loop, index=0)
    assert [loop.total(f, counted_only=True)
            for f in ("attempted", "failed")] == [1, 0]
    # The second pass failed on another call than the first: wrong.
    assert [loop.total(f) for f in ("attempted", "failed", "wrong")] == [
        2, 1, 1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
