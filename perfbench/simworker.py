"""A simulated workload's worlds in one fresh process: set up, run, check.

Started by :mod:`perfbench.sim` once per run.  Set-up time runs from the
parent's launch of this process to the first slot of the first world.
The timed region of a world is ``World.run`` + ``collect_study_dataset``
+ the report pipeline.  The worlds run in rounds (A B C A B C ...), each
time freshly built from their seeds, until ``--seconds`` of measuring
have passed and every world has run ``--min-rounds`` times; every repeat
of a world must collect the same dataset.  After the timed rounds each
world runs once more, untimed, for the correctness checks.
``--setup-only`` stops after the first world is built.  Prints one JSON
object on its last stdout line.

    python -m perfbench.simworker --regime mev_boost --days 1 --seconds 20 --launched <monotonic> 11 12 13
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import sys
import time

from perfbench.common import ROOT
from perfbench.spans import Tracer, clock

sys.path.insert(0, str(ROOT / "benchmarks"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--regime", required=True)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--trace", default=None,
        help="run every world once plain, then once with spans on (its "
             "two repeats), and write the spans to this .npz",
    )
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)

    from bench_analysis_legacy import run_legacy_report_pipeline, run_report_pipeline
    from repro.datasets import collect_study_dataset
    from repro.simulation import SimulationConfig, build_world

    def config(seed: int) -> SimulationConfig:
        # Default populations (1200 validators, 7 active builders per
        # slot, 40 blocks/day); one process, no build or shard workers.
        return SimulationConfig(
            seed=seed, num_days=args.days, regime=args.regime,
            build_workers=1, shard_workers=1,
        )

    from perfbench.hostspeed import probe

    first = build_world(config(args.seeds[0]))
    setup_s = clock() - args.launched
    # The host's speed just after set-up, to scale set-up time by.
    setup_probe_s = probe()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_probe_s": setup_probe_s}))
        return 0

    def simulate(world, tracer=None) -> dict:
        """One timed world; returns its timings and what the checks need."""

        def call(name, fn, *call_args):
            return tracer.span(name, fn, *call_args) if tracer else fn(*call_args)

        start = time.perf_counter()
        call("simulation.run", world.run)
        dataset = call("datasets.collect", collect_study_dataset, world)
        report = call("analysis.report", run_report_pipeline, dataset)
        run_s = time.perf_counter() - start
        return {
            "run_s": run_s,
            "digest": dataset.content_digest(),
            "blocks": len(dataset.blocks),
            "world": world, "dataset": dataset, "report": report,
        }

    runs: list[tuple[int, dict]] = []
    peak_rss_mb = None
    if args.trace:
        from perfbench.layers import install_simulation

        # Each world runs untraced, then traced, back to back, so the
        # tracing overhead compares identical work at nearly the same time
        # (and the two runs must collect the same dataset); the host-speed
        # probe runs before, between and after them.
        tracer = Tracer()
        for index, seed in enumerate(args.seeds):
            world, first = first or build_world(config(seed)), None
            before = probe()
            plain = simulate(world)
            world = None
            finish(plain, index, runs, None)
            between = probe()
            plain["probe_s"] = (before + between) / 2
            gc.collect()
            install_simulation(tracer)
            world = tracer.span("simulation.build_world", build_world, config(seed))
            run = simulate(world, tracer)
            world = None
            tracer.restore()
            run["probe_s"] = (between + probe()) / 2
            finish(run, index, runs, run_legacy_report_pipeline)
        tracer.save(args.trace)
    else:
        # The host-speed probe runs between worlds; each world is scaled
        # by the mean of the probes just before and just after it.
        deadline = clock() + args.seconds
        rounds = 0
        before = probe()
        while rounds < args.min_rounds or clock() < deadline:
            for index, seed in enumerate(args.seeds):
                world, first = first, None
                if world is None:
                    gc.collect()
                    world = build_world(config(seed))
                run = simulate(world)
                world = None
                finish(run, index, runs, None)
                after = probe()
                run["probe_s"] = (before + after) / 2
                before = after
            rounds += 1
        # The checks allocate too; the peak of the work is in by now.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for index, seed in enumerate(args.seeds):
            gc.collect()
            run = simulate(build_world(config(seed)))
            finish(run, index, runs, run_legacy_report_pipeline)
            run["timed"] = False

    worlds = []
    for index, seed in enumerate(args.seeds):
        repeats = [run for i, run in runs if i == index]
        checked = repeats[-1]
        worlds.append({
            "seed": seed,
            "blocks": checked["blocks"],
            "run_s": [run["run_s"] for run in repeats if run.get("timed", True)],
            "probe_s": [run["probe_s"] for run in repeats if "probe_s" in run],
            "digests": [run["digest"] for run in repeats],
            **{key: checked[key] for key in CHECK_KEYS},
        })
    print(json.dumps({
        "setup_s": setup_s, "setup_probe_s": setup_probe_s,
        "peak_rss_mb": peak_rss_mb, "worlds": worlds,
    }))
    return 0


CHECK_KEYS = ("oracle_violations", "report_mismatches", "exec_cache_hits", "exec_cache_misses")


def finish(run: dict, index: int, runs: list, reference_pipeline) -> None:
    """Check ``run`` if a reference pipeline is given, then keep its figures."""
    if reference_pipeline is not None:
        check(run, reference_pipeline)
    for key in ("world", "dataset", "report"):
        run.pop(key)
    runs.append((index, run))


def check(run: dict, reference_pipeline) -> None:
    """Correctness of one world's last repeat, recorded into ``run``."""
    from repro.testing.oracles import run_oracles

    world, dataset, report = run["world"], run["dataset"], run["report"]
    run["oracle_violations"] = len(run_oracles(world, dataset).violations)
    reference = reference_pipeline(dataclasses.replace(dataset, blocks=list(dataset.blocks)))
    run["report_mismatches"] = sorted(key for key in report if report[key] != reference[key])
    counters = world.perf.snapshot()["counters"]
    run["exec_cache_hits"] = counters.get("exec_cache_hits", 0)
    run["exec_cache_misses"] = counters.get("exec_cache_misses", 0)


if __name__ == "__main__":
    raise SystemExit(main())
