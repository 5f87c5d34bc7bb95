"""The benchmark's one command: run a workload, check it, print its metrics.

    python3 perfbench/run.py --workload sim-mev-boost --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run that records spans around the program's
public calls and reports the per-layer metrics.  Metric names and units
come from ``BENCHMARK.json``; a layer a workload never enters reports 0.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the run's detail (provenance, per-world or
per-phase figures, the layer tree, check results) goes to stderr and to
``perfbench/.state/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from perfbench.common import ROOT, emit, provenance, require_program  # noqa: E402

WORKLOADS = ("sim-mev-boost", "sim-local", "sim-epbs", "serve-relay-api")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: int, trace: bool, days: int | None = None):
    """One run: (result line, detail).  ``days`` overrides the world size."""
    declared = declared_metrics(trace)
    sized = {} if days is None else {"days": days}
    if workload == "serve-relay-api":
        from perfbench import serve

        correct, attempted, failed, measured, detail = serve.run(seed, seconds, trace, **sized)
    else:
        from perfbench import sim

        correct, attempted, failed, measured, detail = sim.run(
            workload, seed, seconds, trace, **sized
        )

    metrics = {}
    for name, unit in declared.items():
        if name not in measured and not trace and correct:
            raise SystemExit(f"perfbench: {workload} did not measure {name}")
        value, measured_unit = measured.get(name, (0, unit))
        if measured_unit != unit:
            raise SystemExit(f"perfbench: {name} measured in {measured_unit}, declared {unit}")
        metrics[name] = {"value": value, "unit": unit}
    detail["provenance"] = provenance(workload, seed)
    detail["undeclared_metrics"] = sorted(set(measured) - set(declared))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(result, detail, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
