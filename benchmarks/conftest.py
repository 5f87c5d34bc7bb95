"""Shared fixtures for the benchmark harness.

The full-study world (198 days from the merge through 2023-03-31) is built
once per session; every benchmark then times its analysis over the same
collected dataset and prints the table/figure it reproduces.

The collected dataset is additionally cached on disk as one file keyed by
a content hash of ``BENCHMARK_CONFIG`` (see :mod:`repro.perf.artifacts`).
The file records a hash of the ``src/repro`` sources, so sessions with an
unchanged config and unchanged code skip the multi-minute world build
entirely, and any code edit rebuilds it once.  Benches that need the live
``study_world`` (not just the dataset) still trigger a build on demand.
"""

from __future__ import annotations

import pytest

from repro.datasets import collect_study_dataset
from repro.perf.artifacts import load_study_artifact, save_study_artifact
from repro.simulation import SimulationConfig, build_world

# The full measurement window at benchmark scale.  ~40 blocks/day keeps the
# one-off world build to a few minutes while leaving every daily series
# statistically meaningful.
BENCHMARK_CONFIG = SimulationConfig(seed=7, blocks_per_day=40)


@pytest.fixture(scope="session")
def study_world():
    """The simulated measurement window (built once per session)."""
    return build_world(BENCHMARK_CONFIG).run()


@pytest.fixture(scope="session")
def study(request):
    """The collected study dataset the analyses consume.

    Loads the on-disk artifact when one matches ``BENCHMARK_CONFIG``;
    otherwise simulates the world, collects the dataset and saves the
    artifact for the next session.
    """
    cached = load_study_artifact(BENCHMARK_CONFIG)
    if cached is not None:
        return cached
    dataset = collect_study_dataset(request.getfixturevalue("study_world"))
    save_study_artifact(BENCHMARK_CONFIG, dataset)
    return dataset
