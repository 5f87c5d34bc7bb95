"""The simulated workloads: one PBS regime each, over several seeded worlds.

A run simulates ``WORLDS`` worlds of ``DAYS`` days each, with the
default populations and world seeds drawn from the run's seed, in one
fresh process (:mod:`perfbench.simworker`).  The worlds run in rounds,
each time freshly built from their seeds, for ``--seconds`` seconds.
Worlds differ in how much MEV and how many builders they produce, so one
world's speed depends on its seed; a run aggregates several worlds to
keep the figure steady from seed to seed.

End-to-end metrics (plain run):

- ``setup_s``: launch-to-first-slot at the reference host speed (scaled
  by the host-speed probe each process runs just after), the median of
  the worker and ``SETUP_REPEATS - 1`` more fresh processes that only
  set up;
- ``throughput``: canonical blocks per second of ``World.run`` +
  collection + report pipeline at the reference host speed: each repeat's
  time is scaled by the host-speed probe run around it
  (:mod:`perfbench.hostspeed`), and each world counts the median of its
  scaled repeats;
- ``peak_rss_mb``: the worker's peak RSS, read before the checks run.

The traced run simulates each world once with spans off and then once
with spans on, back to back in the same process, so the tracing overhead
compares identical work, each run scaled by the host-speed probe around it.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys

import numpy as np

from perfbench.common import ROOT, child_env, record_digest, state_dir
from perfbench.hostspeed import PROBE_REFERENCE_S
from perfbench.spans import Trace, clock, coverage, layer_totals, layer_tree, span_p50_ms

REGIMES = {"sim-mev-boost": "mev_boost", "sim-local": "local", "sim-epbs": "epbs"}
DAYS = 1
WORLDS = 3
MIN_ROUNDS = 3
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 160


def world_seeds(seed: int, count: int) -> list[int]:
    """The run's world seeds, a pure function of the run's seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def launch_worker(regime: str, days: int, seeds: list[int], *options: str) -> dict:
    """Run :mod:`perfbench.simworker` in a fresh process; its JSON result."""
    command = [
        sys.executable, "-m", "perfbench.simworker", "--regime", regime,
        "--days", str(days), *options, *map(str, seeds),
    ]
    launched = clock()
    try:
        done = subprocess.run(
            command + ["--launched", repr(launched)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker exceeded {WORKER_TIMEOUT_S} s"}
    if done.returncode != 0:
        return {"error": done.stderr.strip()[-2000:]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def world_problems(world: dict) -> list[str]:
    problems = []
    if world["oracle_violations"]:
        problems.append(f"world {world['seed']}: {world['oracle_violations']} oracle violations")
    if world["report_mismatches"]:
        problems.append(
            f"world {world['seed']}: report differs from the reference in "
            f"{world['report_mismatches']}"
        )
    if len(set(world["digests"])) > 1:
        problems.append(f"world {world['seed']}: repeats collected different datasets")
    return problems


def run(workload: str, seed: int, seconds: int, trace: bool, days: int = DAYS):
    """Run one simulated workload; returns (correct, attempted, failed, metrics, detail)."""
    regime = REGIMES[workload]
    seeds = world_seeds(seed, WORLDS)
    spans = state_dir("traces") / f"{workload}-{seed}.npz"
    if trace:
        options = ["--trace", str(spans)]
    else:
        options = ["--seconds", str(seconds), "--min-rounds", str(MIN_ROUNDS)]
    worker = launch_worker(regime, days, seeds, *options)
    detail: dict = {"days": days, "world_seeds": seeds, "worker": worker}
    if "error" in worker:
        detail["problems"] = [f"worker failed: {worker['error']}"]
        return False, len(seeds), len(seeds), {}, detail

    worlds = worker["worlds"]
    problems = [p for world in worlds for p in world_problems(world)]
    passed = [world for world in worlds if not world_problems(world)]
    digest = hashlib.sha256("".join(w["digests"][0] for w in worlds).encode()).hexdigest()
    if not record_digest(workload, seed, f"{days}d-x{len(seeds)}", digest):
        problems.append(f"content digest {digest[:16]} differs from an earlier run of seed {seed}")
    detail["content_digest"] = digest
    detail["problems"] = problems
    failed = len(worlds) - len(passed)
    if not passed:
        return False, len(worlds), failed, {}, detail

    if not trace:
        # More fresh processes, each only setting up.
        setups = [worker] + [
            launch_worker(regime, days, seeds[:1], "--setup-only")
            for _ in range(SETUP_REPEATS - 1)
        ]
        setups = [s for s in setups if "setup_s" in s]
        detail["setup_samples_s"] = [s["setup_s"] for s in setups]
        detail["setup_probe_s"] = [s["setup_probe_s"] for s in setups]
        blocks = sum(w["blocks"] for w in passed)
        scaled = sum(scaled_s(w) for w in passed)
        detail["wall_blocks_per_s"] = blocks / sum(statistics.median(w["run_s"]) for w in passed)
        detail["probe_s_median"] = statistics.median(p for w in passed for p in w["probe_s"])
        metrics = {
            "setup_s": (
                statistics.median(
                    s["setup_s"] * PROBE_REFERENCE_S / s["setup_probe_s"] for s in setups
                ),
                "s",
            ),
            "throughput": (blocks / scaled, "1/s"),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        }
    else:
        traces = [Trace(spans)]
        # A traced run's repeats are (plain, traced) of the same world,
        # compared at the reference host speed.
        scaled = [[t / p for t, p in zip(w["run_s"], w["probe_s"])] for w in passed]
        overhead = sum(s[1] for s in scaled) / sum(s[0] for s in scaled) - 1.0
        metrics = simulation_layers(traces, passed, overhead)
        # The program's own cache counters, beside the traced lookup count.
        detail["exec_cache_stats_lookups"] = sum(
            w["exec_cache_hits"] + w["exec_cache_misses"] for w in passed
        )
        detail["layer_tree"] = layer_tree(traces)
    return not problems, len(worlds), failed, metrics, detail


def scaled_s(world: dict) -> float:
    """A world's time at the reference host speed: its median scaled repeat."""
    return statistics.median(
        run_s * PROBE_REFERENCE_S / probe_s for run_s, probe_s in zip(world["run_s"], world["probe_s"])
    )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def simulation_layers(traces: list[Trace], worlds: list[dict], overhead: float) -> dict:
    """Per-layer metrics of the simulated workloads, summed over worlds."""
    totals = layer_totals(traces)
    counters: dict[str, int] = {}
    for trace in traces:
        for name, value in trace.counters.items():
            counters[name] = counters.get(name, 0) + value

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def seconds(name, field="s"):
        return totals.get(name, {}).get(field, 0.0)

    lookups = calls("chain.exec_cache.execute")
    hits = sum(w["exec_cache_hits"] for w in worlds)
    metrics = {
        "trace.overhead": (overhead, "share"),
        "trace.coverage": (coverage(traces, "simulation.run"), "share"),
        "simulation.slot.p50_ms": (span_p50_ms(traces, "simulation.slot"), "ms"),
        "chain.exec_cache.lookups": (lookups, "count"),
        "chain.exec_cache.hit_rate": (_ratio(hits, lookups), "share"),
        "mev.bundles.count": (counters.get("mev.bundles", 0), "count"),
        "mev.arbitrage.plan.profitable_ratio": (
            _ratio(counters.get("mev.arbitrage.plan.profitable", 0), calls("mev.arbitrage.plan")),
            "share",
        ),
        "core.builder.build.self_s": (seconds("core.builder.build", "self_s"), "s"),
        "core.builder.build.submit_ratio": (
            _ratio(counters.get("core.builder.build.submitted", 0), calls("core.builder.build")),
            "share",
        ),
        "core.relay.receive_submission.accept_ratio": (
            _ratio(
                counters.get("core.relay.receive_submission.accepted", 0),
                calls("core.relay.receive_submission"),
            ),
            "share",
        ),
    }
    for name in SIM_TIMED:
        metrics[f"{name}.s"] = (seconds(name), "s")
    for name in SIM_COUNTED:
        metrics[f"{name}.calls"] = (calls(name), "count")
    return metrics


# Layers reported with inclusive seconds, and those reported with call counts.
SIM_TIMED = (
    "simulation.build_world", "simulation.run", "simulation.advance_day",
    "simulation.workload", "simulation.bundle_search", "simulation.pick_builders",
    "simulation.apply_outcome", "mempool.broadcast",
    "mev.find_bundles.sandwich", "mev.find_bundles.arbitrage",
    "mev.find_bundles.liquidation", "mev.arbitrage.plan", "core.auction.run",
    "core.local_builder.build", "core.relay.receive_submission",
    "core.mev_boost.get_best_bid", "core.epbs.ptc_vote",
    "beacon.registry.process_day", "beacon.registry.charge",
    "beacon.registry.slash", "chain.execute_tx", "chain.execute_transaction",
    "sanctions.screen_block", "datasets.collect", "analysis.report",
)
SIM_COUNTED = (
    "mempool.broadcast", "mev.arbitrage.plan", "core.builder.build", "core.epbs.ptc_vote",
    "core.local_builder.build", "core.relay.receive_submission",
    "beacon.registry.process_day", "beacon.registry.charge",
    "beacon.registry.slash", "chain.execute_tx", "chain.execute_transaction",
    "sanctions.screen_block",
)
