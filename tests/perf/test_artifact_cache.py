"""Unit tests for the persistent study-dataset artifact cache."""

from __future__ import annotations

import dataclasses
import datetime

from repro.datasets.collector import StudyDataset
from repro.datasets.records import BlockObservation, DatasetInventory
from repro.mev.labels import MevDataset
from repro.perf import artifacts
from repro.perf.artifacts import (
    config_content_hash,
    load_study_artifact,
    save_study_artifact,
)
from repro.sanctions.ofac import SanctionsList
from repro.simulation.config import SimulationConfig
from repro.types import derive_address, derive_hash


def _config(**overrides) -> SimulationConfig:
    base = {"seed": 7, "num_days": 3, "blocks_per_day": 4}
    base.update(overrides)
    return SimulationConfig(**base)


def _dataset(*numbers: int) -> StudyDataset:
    """A hand-built dataset with one observation per block number."""
    blocks = [
        BlockObservation(
            number=number,
            block_hash=derive_hash("artifact", number),
            slot=number,
            date=datetime.date(2022, 10, 1),
            proposer_index=0,
            proposer_entity="Lido",
            proposer_fee_recipient=derive_address("artifact", "proposer"),
            fee_recipient=derive_address("artifact", "builder"),
            extra_data="",
            gas_used=15_000_000,
            gas_limit=30_000_000,
            base_fee_per_gas=10,
            burned_wei=100,
            priority_fees_wei=50 + number,
            direct_transfers_wei=5,
            tx_count=10,
            private_tx_count=1,
            builder_payment_wei=7,
            claimed_by_relay={"Flashbots": 7},
        )
        for number in numbers
    ]
    return StudyDataset(
        blocks=blocks,
        mev=MevDataset(),
        relays={},
        sanctions=SanctionsList(),
        inventory=DatasetInventory(
            blocks=len(blocks), transactions=0, logs=0, traces=0,
            mev_labels_by_source={}, mev_labels_union=0,
            mempool_arrival_times=0, relay_data_entries=0, ofac_addresses=0,
        ),
    )


class TestConfigHash:
    def test_stable_across_instances(self):
        assert config_content_hash(_config()) == config_content_hash(_config())

    def test_sensitive_to_every_field(self):
        base = config_content_hash(_config())
        assert config_content_hash(_config(seed=8)) != base
        assert config_content_hash(_config(enable_exec_cache=False)) != base
        changed = dataclasses.replace(_config(), num_days=5)
        assert config_content_hash(changed) != base


def _assert_discarded(tmp_path, caplog) -> None:
    """The artifact for ``_config()`` loads as a miss with the warning."""
    with caplog.at_level("WARNING", logger=artifacts.__name__):
        assert load_study_artifact(_config(), cache_dir=tmp_path) is None
    assert "discarding stale/corrupt study artifact" in caplog.text


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        dataset = _dataset(1, 2, 3)
        path = save_study_artifact(_config(), dataset, cache_dir=tmp_path)
        assert path.exists()
        loaded = load_study_artifact(_config(), cache_dir=tmp_path)
        assert loaded.content_digest() == dataset.content_digest()

    def test_save_writes_one_file(self, tmp_path):
        path = save_study_artifact(_config(), _dataset(1), cache_dir=tmp_path)
        save_study_artifact(_config(), _dataset(2, 3), cache_dir=tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_wrong_config_misses(self, tmp_path):
        save_study_artifact(_config(), _dataset(1), cache_dir=tmp_path)
        assert load_study_artifact(_config(seed=8), cache_dir=tmp_path) is None

    def test_empty_cache_misses(self, tmp_path):
        assert load_study_artifact(_config(), cache_dir=tmp_path) is None

    def test_corrupt_artifact_is_a_miss(self, tmp_path, caplog):
        path = save_study_artifact(_config(), _dataset(1), cache_dir=tmp_path)
        path.write_bytes(b"not an archive")
        _assert_discarded(tmp_path, caplog)

    def test_empty_artifact_is_a_miss(self, tmp_path, caplog):
        path = save_study_artifact(_config(), _dataset(1), cache_dir=tmp_path)
        path.write_bytes(b"")
        _assert_discarded(tmp_path, caplog)

    def test_truncated_artifact_is_a_miss(self, tmp_path, caplog):
        path = save_study_artifact(_config(), _dataset(1, 2), cache_dir=tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        _assert_discarded(tmp_path, caplog)

    def test_artifact_of_another_config_is_a_miss(self, tmp_path, caplog):
        """A file saved for another config, found under this config's name."""
        other = save_study_artifact(_config(seed=8), _dataset(1), cache_dir=tmp_path)
        other.rename(other.with_name(f"study-{config_content_hash(_config())}.npz"))
        _assert_discarded(tmp_path, caplog)
        assert "another config" in caplog.text

    def test_source_change_invalidates(self, tmp_path, caplog, monkeypatch):
        save_study_artifact(_config(), _dataset(1), cache_dir=tmp_path)
        monkeypatch.setattr(artifacts, "source_content_hash", lambda: "edited")
        _assert_discarded(tmp_path, caplog)
        assert "other source code" in caplog.text

    def test_save_after_source_change_overwrites(self, tmp_path, monkeypatch):
        path = save_study_artifact(_config(), _dataset(1), cache_dir=tmp_path)
        monkeypatch.setattr(artifacts, "source_content_hash", lambda: "edited")
        assert save_study_artifact(_config(), _dataset(2), cache_dir=tmp_path) == path
        assert list(tmp_path.iterdir()) == [path]
        loaded = load_study_artifact(_config(), cache_dir=tmp_path)
        assert loaded.content_digest() == _dataset(2).content_digest()
