"""Tiny-scale self-test of the benchmark: every workload, plain and traced.

Runs each workload on a one-day world (serving: a one-day artifact and a
short load) and asserts that every metric ``BENCHMARK.json`` names is
emitted with its unit and that every correctness check passes.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import common, hostspeed, run, serve, sim
from perfbench.common import ROOT, STATE

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 3


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert set(SPEC["workloads"][0]) == {"name", "why"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_plain_run_emits_every_end_to_end_metric(workload):
    result, detail = run.measure(workload, SEED, seconds=2, trace=False, days=1)
    assert result["correct"], detail["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert detail["provenance"]["seed"] == SEED
    if workload != "serve-relay-api":
        assert detail["content_digest"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result, detail = run.measure(workload, SEED, seconds=2, trace=True, days=1)
    assert result["correct"], detail["problems"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared("per_layer")
    assert not detail["undeclared_metrics"]
    if workload == "serve-relay-api":
        assert metrics["serve.handle.calls"] > 0
        assert metrics["serve.response_cache.hit_rate"] > 0
        return
    # The layer tree is regime-complete: child spans cover World.run.
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["chain.execute_tx.calls"] > 0
    assert detail["exec_cache_stats_lookups"] == metrics["chain.exec_cache.lookups"]
    if workload == "sim-local":
        assert metrics["chain.exec_cache.hit_rate"] == 0
        assert metrics["core.builder.build.calls"] == 0
    else:
        assert metrics["core.builder.build.self_s"] > 0
    if workload == "sim-mev-boost":
        assert metrics["chain.exec_cache.hit_rate"] > 0
        assert metrics["core.relay.receive_submission.calls"] > 0
    if workload == "sim-epbs":
        assert metrics["beacon.registry.process_day.calls"] > 0
        assert metrics["core.epbs.ptc_vote.calls"] > 0


def test_same_seed_collects_the_same_dataset():
    first, _ = run.measure("sim-local", SEED, seconds=2, trace=False, days=1)
    again, detail = run.measure("sim-local", SEED, seconds=2, trace=False, days=1)
    assert first["correct"] and again["correct"], detail["problems"]


def test_dataset_digests_are_kept_per_source_tree(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "STATE", tmp_path)
    assert common.record_digest("sim-local", 1, "1d-x1", "aaaa", source="code-1")
    assert common.record_digest("sim-local", 1, "1d-x1", "aaaa", source="code-1")
    # Changed code may collect another dataset: no mismatch.
    assert common.record_digest("sim-local", 1, "1d-x1", "bbbb", source="code-2")
    # The same code collecting another dataset is a mismatch.
    assert not common.record_digest("sim-local", 1, "1d-x1", "bbbb", source="code-1")


def test_a_world_is_timed_at_the_reference_host_speed():
    ref = hostspeed.PROBE_REFERENCE_S
    # A repeat on a host running the probe at half speed counts half its time.
    world = {"run_s": [1.0, 3.0, 2.0], "probe_s": [ref, ref, 2 * ref]}
    assert sim.scaled_s(world) == pytest.approx(1.0)
    assert hostspeed.probe() > 0


def test_a_rate_whose_windows_all_failed_has_no_reading():
    def window(name: str, status: int, latency_s: float) -> serve.PhaseResult:
        n = 4
        phase = serve.Phase(name, 500, np.arange(n) * 0.01, [("/relays", {})] * n, ["metadata"] * n)
        due = np.arange(n) * 0.01
        return serve.PhaseResult(
            phase, due, np.zeros(n), due + latency_s, np.full(n, status, dtype=np.int32)
        )

    failed = window("high-1", 0, 0.001)
    assert failed.summary()["p50_ms"] is None and not failed.keeps_up()
    assert serve.best_window([failed], "high") is None
    good = window("high-2", 200, 0.002)
    assert serve.best_window([failed, good], "high")["p50_ms"] == pytest.approx(2.0)


def test_runs_fail_without_the_program():
    """A directory holding only BENCHMARK.json and perfbench/ gives no result."""
    bare = STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns(".state"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sim-local",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert not done.stdout.strip()
