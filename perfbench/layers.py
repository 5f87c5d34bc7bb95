"""Which public calls of the program the traced runs wrap, and their names.

Every span name is ``<layer>.<call>``, where the layer is the program's
module path under ``repro`` (``core.relay``, ``chain.exec_cache``...), so
the per-layer metrics in ``BENCHMARK.json`` read as the module they
measure.  ``simulation.*`` spans split the slot loop itself into the
steps of the layer tree: day advance, slot, workload injection, bundle
search, builder pick and outcome apply.
"""

from __future__ import annotations

import hashlib

from .spans import Tracer


def _count_bundles(tracer: Tracer, args, result) -> None:
    tracer.count("mev.bundles", len(result))


def _count_profitable(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.count("mev.arbitrage.plan.profitable")


def _count_submitted(tracer: Tracer, args, result) -> None:
    if result is not None:
        tracer.count("core.builder.build.submitted")


def _count_accepted(tracer: Tracer, args, result) -> None:
    if result:
        tracer.count("core.relay.receive_submission.accepted")


def install_simulation(tracer: Tracer) -> None:
    """Wrap the simulation's public calls (and the slot loop's steps)."""
    from repro.beacon.builders import BuilderRegistry
    from repro.chain.exec_cache import ExecutionCache
    from repro.chain.execution import ExecutionEngine
    from repro.core.auction import SlotAuction
    from repro.core.builder import BlockBuilder
    from repro.core.context import SlotContext
    from repro.core.epbs import EnshrinedPBSAuction
    from repro.core.mev_boost import MevBoostClient
    from repro.core.proposer import LocalBlockBuilder
    from repro.core.relay import Relay
    from repro.mempool.pool import SharedMempool
    from repro.mev import searcher
    from repro.sanctions.screening import SanctionScreener
    from repro.simulation.world import World

    patch = tracer.patch
    patch(World, "_advance_day", "simulation.advance_day", key_arg=1)
    patch(World, "_run_slot", "simulation.slot", key_arg=1)
    patch(World, "_inject_workload", "simulation.workload")
    patch(World, "_collect_bundles", "simulation.bundle_search")
    patch(World, "_pick_active_builders", "simulation.pick_builders")
    patch(World, "_apply_outcome", "simulation.apply_outcome")
    patch(SharedMempool, "broadcast", "mempool.broadcast")
    for cls, kind in (
        (searcher.SandwichSearcher, "sandwich"),
        (searcher.ArbitrageSearcher, "arbitrage"),
        (searcher.LiquidationSearcher, "liquidation"),
    ):
        patch(cls, "find_bundles", f"mev.find_bundles.{kind}", on_result=_count_bundles)
    # The searchers call the planner through their own module's name.
    patch(searcher, "plan_cycle_arbitrage", "mev.arbitrage.plan", on_result=_count_profitable)
    patch(SlotAuction, "run", "core.auction.run")
    patch(EnshrinedPBSAuction, "run", "core.auction.run")
    patch(EnshrinedPBSAuction, "_ptc_vote", "core.epbs.ptc_vote")
    patch(BlockBuilder, "build", "core.builder.build", on_result=_count_submitted)
    patch(LocalBlockBuilder, "build", "core.local_builder.build")
    patch(Relay, "receive_submission", "core.relay.receive_submission", on_result=_count_accepted)
    patch(MevBoostClient, "get_best_bid", "core.mev_boost.get_best_bid")
    for call in ("process_day", "charge", "slash"):
        patch(BuilderRegistry, call, f"beacon.registry.{call}")
    patch(SlotContext, "execute_tx", "chain.execute_tx")
    patch(ExecutionCache, "execute", "chain.exec_cache.execute")
    patch(ExecutionEngine, "execute_transaction", "chain.execute_transaction")
    patch(SanctionScreener, "screen_block", "sanctions.screen_block")


def endpoint_class(path: str) -> str:
    """The serving layer's endpoint classes: relay data, analysis, metadata."""
    if path.startswith("/relay/"):
        return "paginated"
    if path.startswith("/analysis/"):
        return "analysis"
    return "metadata"


def request_key(path: str, params: dict[str, str]) -> int:
    """A 63-bit id of one request target, computed alike by server and client."""
    text = path + "?" + "&".join(f"{k}={v}" for k, v in sorted(params.items()))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big") >> 1


def install_serving(tracer: Tracer) -> None:
    """Wrap artifact load, index build and request handling in a server."""
    from repro.perf import artifacts
    from repro.serve.service import QueryService

    patch = tracer.patch
    patch(artifacts, "load_study_artifact", "perf.artifact.load")
    patch(QueryService, "__init__", "serve.index.build")
    original = QueryService.__dict__["handle"]
    wrapped = {
        kind: tracer.wrap(f"serve.handle.{kind}", original)
        for kind in ("paginated", "analysis", "metadata")
    }

    def handle(self, path, params):
        # The span's key is the request target, so the load generator can
        # find the server's handle time for each of its requests.
        tracer.current_key = request_key(path, params)
        return wrapped[endpoint_class(path)](self, path, params)

    tracer.replace(QueryService, "handle", handle)
    # A handle call that never reaches dispatch was answered by the LRU.
    patch(QueryService, "_dispatch", "serve.dispatch")
