"""Persistent study-dataset artifacts keyed by config and source hashes.

Building and running a benchmark-scale world takes minutes; the collected
:class:`~repro.datasets.collector.StudyDataset` it yields is a pure
function of the :class:`~repro.simulation.config.SimulationConfig` and of
the code that simulated it.  This module caches that dataset on disk, so
benchmark sessions, ``repro serve`` and the serving benchmark skip the
simulation when neither changed (``benchmarks/conftest.py`` wires this up).

One config maps to one file, ``study-<config hash>.npz``, written
uncompressed by ``np.savez``.  It holds every plain numpy column of the
dataset's :class:`~repro.datasets.columnar.BlockTable`, loaded zero-copy by
memory-mapping the archive, plus one ``uint8`` member with the pickled
remainder: the dataset without its blocks (MEV labels, relay stores,
sanctions, inventory), any object-dtype overflow columns, the config hash
and a hash of the ``src/repro`` sources that built it.

A save writes a temp file and publishes it with one ``os.replace``, so a
reader sees a whole old file or a whole new one.  A load whose stored
source hash differs from the running code's is a miss; the next save
overwrites the same file, so the cache holds one file per config.  Delete
the cache directory at any time; it will simply be rebuilt.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import logging
import mmap
import os
import pickle
import zipfile
from pathlib import Path
from typing import Any

import numpy as np
from numpy.lib import format as npy_format

#: The ``.npz`` member carrying the pickled remainder (never a column).
_REMAINDER_MEMBER = "__remainder__"

_CACHE_DIR_ENV = "REPRO_ARTIFACT_CACHE"

_SOURCE_ROOT = Path(__file__).resolve().parents[1]

_LOG = logging.getLogger(__name__)


def config_content_hash(config: Any) -> str:
    """A stable hex hash of every field of a ``SimulationConfig``.

    Fields are serialized by name in sorted order, so two configs hash
    equal iff every field is equal, and dataclass field *ordering* changes
    do not invalidate artifacts (adding, removing or changing a field
    does).
    """
    payload = {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(config)
    }
    encoded = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(encoded.encode()).hexdigest()[:32]


@functools.cache
def source_content_hash() -> str:
    """A hex hash of every ``.py`` file under ``src/repro``, by path.

    Computed once per process.  Any edit to the package, a comment
    included, makes artifacts built before it a miss.
    """
    hasher = hashlib.sha256()
    for path in sorted(_SOURCE_ROOT.rglob("*.py")):
        hasher.update(path.relative_to(_SOURCE_ROOT).as_posix().encode())
        hasher.update(b"\x00")
        hasher.update(path.read_bytes())
        hasher.update(b"\x00")
    return hasher.hexdigest()[:32]


def default_cache_dir() -> Path:
    """``$REPRO_ARTIFACT_CACHE`` if set, else ``benchmarks/.artifact_cache``."""
    override = os.environ.get(_CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "benchmarks" / ".artifact_cache"


def _artifact_path(cache_dir: Path, config_hash: str) -> Path:
    return cache_dir / f"study-{config_hash}.npz"


def save_study_artifact(
    config: Any, dataset: Any, cache_dir: Path | None = None
) -> Path:
    """Persist ``dataset`` under the config's content hash; returns the path."""
    cache_dir = cache_dir or default_cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    config_hash = config_content_hash(config)
    path = _artifact_path(cache_dir, config_hash)

    plain, objects = dataset.table.to_arrays()
    # The remainder pickles with the blocks stripped: the columns carry
    # them.  Object-dtype overflow columns (wei values beyond int64)
    # cannot be mmapped and ride along in the pickle.
    remainder = pickle.dumps(
        {
            "config_hash": config_hash,
            "source_hash": source_content_hash(),
            "dataset": dataclasses.replace(dataset, blocks=[]),
            "object_columns": objects,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    tmp_path = path.with_suffix(".tmp")
    with open(tmp_path, "wb") as handle:
        np.savez(
            handle,
            **plain,
            **{_REMAINDER_MEMBER: np.frombuffer(remainder, dtype=np.uint8)},
        )
    os.replace(tmp_path, path)  # atomic: concurrent readers never see halves
    return path


def load_study_artifact(config: Any, cache_dir: Path | None = None) -> Any:
    """The cached dataset for ``config``, or None on miss/stale/corrupt."""
    from ..datasets.columnar import BlockTable, LazyBlockList

    cache_dir = cache_dir or default_cache_dir()
    config_hash = config_content_hash(config)
    path = _artifact_path(cache_dir, config_hash)
    if not path.exists():
        return None
    try:
        plain = mmap_npz_columns(path)
        payload = pickle.loads(plain.pop(_REMAINDER_MEMBER))
        if payload["config_hash"] != config_hash:
            raise ValueError("built for another config")
        if payload["source_hash"] != source_content_hash():
            raise ValueError("built by other source code")
    except (
        OSError, EOFError, KeyError, TypeError, ValueError,
        pickle.UnpicklingError, zipfile.BadZipFile,
    ) as error:
        _LOG.warning("discarding stale/corrupt study artifact %s: %s", path, error)
        return None
    dataset = payload["dataset"]
    table = BlockTable.from_arrays(plain, payload["object_columns"])
    dataset.blocks = LazyBlockList(table)
    return dataset


def mmap_npz_columns(path: Path) -> dict[str, np.ndarray]:
    """Zero-copy load of an uncompressed ``.npz``: arrays point into one mmap.

    ``np.savez`` stores members uncompressed (``ZIP_STORED``), so each
    ``.npy`` member sits contiguously in the file: seek past the zip local
    file header (30 fixed bytes + name + extra), parse the npy header, and
    wrap the raw bytes with ``np.frombuffer``.  The returned arrays are
    read-only views over a single shared memory map — no column is copied
    into RAM until touched, which is what makes warm artifact loads fast.
    """
    with open(path, "rb") as handle:
        buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    view = memoryview(buffer)
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(
                    f"npz member {info.filename!r} is compressed; "
                    "cannot memory-map"
                )
            header = view[info.header_offset : info.header_offset + 30]
            name_len = int.from_bytes(header[26:28], "little")
            extra_len = int.from_bytes(header[28:30], "little")
            start = info.header_offset + 30 + name_len + extra_len
            member = view[start : start + info.file_size]
            arrays[info.filename.removesuffix(".npy")] = _npy_from_buffer(
                member
            )
    return arrays


def _npy_from_buffer(member: memoryview) -> np.ndarray:
    """An ndarray over the raw data section of an in-memory ``.npy`` image."""
    prefix = io.BytesIO(bytes(member[: min(len(member), 65536)]))
    version = npy_format.read_magic(prefix)
    if version == (1, 0):
        shape, fortran, dtype = npy_format.read_array_header_1_0(prefix)
    elif version == (2, 0):
        shape, fortran, dtype = npy_format.read_array_header_2_0(prefix)
    else:
        raise ValueError(f"unsupported npy version {version}")
    if dtype.hasobject:
        raise ValueError("object arrays cannot be memory-mapped")
    array = np.frombuffer(member, dtype=dtype, offset=prefix.tell())
    array = array.reshape(shape, order="F" if fortran else "C")
    return array
