"""Golden tests: the vectorized analyses against two independent references.

1. Both ways into a :class:`~repro.datasets.columnar.BlockTable` agree.
   A seeded world's collected dataset (columns appended straight from
   the chain) and the same rows re-entered as ``BlockObservation``
   objects (a hand-built dataset, converted by
   ``BlockTable.from_observations``) must give *identical* results from
   every public analysis function.  Identical, not approximately equal:
   the columnar encoding is lossless, so any drift is a real defect in
   the encoding or the accessors.
2. The report pipeline equals the pinned per-object loops in
   ``benchmarks/bench_analysis_legacy.py`` on the collected dataset.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    adoption,
    blocks,
    builders,
    censorship,
    mev,
    network_structure,
    relays,
    rewards,
)
from repro.datasets.collector import collect_study_dataset
from repro.datasets.columnar import LazyBlockList
from repro.simulation.config import small_test_config
from repro.simulation.world import build_world


@pytest.fixture(scope="module")
def collected():
    config = small_test_config(num_days=5, blocks_per_day=8)
    return collect_study_dataset(build_world(config))


@pytest.fixture(scope="module")
def backend_pair(collected):
    rebuilt = dataclasses.replace(collected, blocks=list(collected.blocks))
    assert isinstance(rebuilt.blocks, LazyBlockList)
    assert rebuilt.table is not collected.table
    return collected, rebuilt


def _comparable(value):
    """Normalize analysis results into exactly-comparable structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _comparable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {k: _comparable(v) for k, v in sorted(value.items(), key=repr)}
    if isinstance(value, (list, tuple)):
        return [_comparable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    return value


#: name -> callable(dataset); covers the full public analysis surface
#: that takes a dataset.
ANALYSES = {
    "daily_pbs_share": adoption.daily_pbs_share,
    "identification_rule_breakdown": adoption.identification_rule_breakdown,
    "daily_block_value": blocks.daily_block_value,
    "daily_proposer_profit": blocks.daily_proposer_profit,
    "daily_block_size": blocks.daily_block_size,
    "daily_private_tx_share": blocks.daily_private_tx_share,
    "cluster_builders": builders.cluster_builders,
    "daily_builder_shares": builders.daily_builder_shares,
    "builder_profit_distribution": builders.builder_profit_distribution,
    "proposer_profit_by_builder": builders.proposer_profit_by_builder,
    "daily_profit_split": builders.daily_profit_split,
    "builder_map": builders.builder_map,
    "daily_compliant_relay_share": censorship.daily_compliant_relay_share,
    "daily_sanctioned_share": censorship.daily_sanctioned_share,
    "overall_sanctioned_shares": censorship.overall_sanctioned_shares,
    "sanctioned_blocks_by_relay": censorship.sanctioned_blocks_by_relay,
    "sanctioned_inclusion_delay_after_updates": (
        censorship.sanctioned_inclusion_delay_after_updates
    ),
    "daily_mev_per_block": mev.daily_mev_per_block,
    "daily_mev_value_share": mev.daily_mev_value_share,
    "bloxroute_ethical_sandwiches": mev.bloxroute_ethical_sandwiches,
    "mev_totals_by_kind": mev.mev_totals_by_kind,
    "daily_relay_shares": relays.daily_relay_shares,
    "daily_relay_shares_with_none": (
        lambda ds: relays.daily_relay_shares(ds, include_non_pbs=True)
    ),
    "multi_relay_share": relays.multi_relay_share,
    "builders_per_relay_daily": relays.builders_per_relay_daily,
    "relay_trust_table": relays.relay_trust_table,
    "pbs_totals_row": lambda ds: relays.pbs_totals_row(
        relays.relay_trust_table(ds)
    ),
    "daily_user_payment_shares": rewards.daily_user_payment_shares,
    "daily_total_user_payments_eth": rewards.daily_total_user_payments_eth,
    "connectivity_report": network_structure.connectivity_report,
    "relay_overlap_matrix": network_structure.relay_overlap_matrix,
}


def _outcome(run, dataset):
    """Result of ``run`` — or its error, which must also match across
    tables (e.g. graphs too sparse to analyze raise AnalysisError)."""
    from repro.errors import AnalysisError

    try:
        return _comparable(run(dataset))
    except AnalysisError as error:
        return ("AnalysisError", str(error))


@pytest.mark.parametrize("name", sorted(ANALYSES))
def test_backend_equivalence(name, backend_pair):
    columnar, object_backed = backend_pair
    run = ANALYSES[name]
    assert _outcome(run, columnar) == _outcome(run, object_backed)


def test_cluster_blocks_match_backends(backend_pair):
    """Cluster membership materializes the same block numbers."""
    columnar, object_backed = backend_pair
    by_columnar = [
        [obs.number for obs in cluster.blocks]
        for cluster in builders.cluster_builders(columnar)
    ]
    by_object = [
        [obs.number for obs in cluster.blocks]
        for cluster in builders.cluster_builders(object_backed)
    ]
    assert by_columnar == by_object


def test_report_pipeline_matches_legacy_oracle(collected):
    """Every report figure equals the pinned per-object reference loops."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
    try:
        from bench_analysis_legacy import (
            run_legacy_report_pipeline,
            run_report_pipeline,
        )
    finally:
        sys.path.pop(0)
    assert run_report_pipeline(collected) == run_legacy_report_pipeline(collected)
