"""In-memory span recording around calls into the program's public API.

A :class:`Tracer` replaces a function or method with a wrapper that
records one span per call: its name, start, end, parent span and the id
of the slot or request it belongs to.  Spans stay in flat in-memory
columns and are written out once, with :meth:`Tracer.save`, when the
traced process ends.  :func:`layer_tree` turns a saved trace into the
per-layer totals the benchmark reports; a layer's self time is its
inclusive time minus the time its direct child spans cover.

Nothing in the program is modified on disk: wrapping happens at run time
in the benchmark's own processes, and :meth:`Tracer.restore` puts every
original back so correctness checks run on the unwrapped program.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

# Spans are timed with the system-wide monotonic clock so a server's
# spans line up with its load generator's timestamps in another process.
clock = time.monotonic


class Tracer:
    """Flat span columns plus the patches that produce them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.key = array("q")
        self.counters: dict[str, int] = {}
        self.current_key = -1
        self._stack = [-1]
        self._active: set[int] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn, *, key_arg: int | None = None, on_result=None):
        """``fn`` recording a ``name`` span per call.

        ``key_arg`` names the positional argument that identifies the
        slot or request the call works for; nested spans inherit it.
        ``on_result(tracer, args, result)`` records counters from the
        call's result.  A call re-entering a span of the same name (an
        override calling its base) records only the outer span.
        """
        nid = self._name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, keys, stack, active = self.parent, self.key, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nid in active:
                return fn(*args, **kwargs)
            saved_key = self.current_key
            if key_arg is not None:
                self.current_key = int(args[key_arg])
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            keys.append(self.current_key)
            ends.append(0.0)
            stack.append(index)
            active.add(nid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                active.discard(nid)
                stack.pop()
                self.current_key = saved_key
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside one ``name`` span."""
        return self.wrap(name, fn)(*args, **kwargs)

    def replace(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (a class or module attribute) until :meth:`restore`."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with a wrapper recording ``name`` spans."""
        self.replace(owner, attr, self.wrap(name, owner.__dict__[attr], **options))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span and counter to ``path`` (``.npz``) in one go."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            key=np.frombuffer(self.key, dtype=np.int64),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.int64),
        )


class Trace:
    """A saved trace, loaded back as numpy columns."""

    def __init__(self, path: Path) -> None:
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.name = data["name"]
            self.start = data["start"]
            self.end = data["end"]
            self.parent = data["parent"]
            self.key = data["key"]
            self.counters = {
                str(k): int(v)
                for k, v in zip(data["counter_names"], data["counter_values"])
            }

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start


def layer_tree(traces: list[Trace]) -> dict[str, dict]:
    """Per span path: calls, inclusive seconds and self seconds.

    A path joins span names from the root down (``simulation.run/
    simulation.slot/core.auction.run``), so the same layer under two
    parents stays two rows.  Self time is a span's duration minus the
    durations of its direct children (children of one span never overlap:
    the traced program runs them one after another).
    """
    rows: dict[str, dict] = {}
    for trace in traces:
        count = len(trace.start)
        duration = trace.duration
        child_time = np.zeros(count)
        has_parent = trace.parent >= 0
        np.add.at(child_time, trace.parent[has_parent], duration[has_parent])
        paths: list[str] = []
        for i in range(count):
            name = trace.names[trace.name[i]]
            parent = trace.parent[i]
            paths.append(name if parent < 0 else f"{paths[parent]}/{name}")
        self_time = duration - child_time
        by_path: dict[str, list[int]] = {}
        for i, path in enumerate(paths):
            by_path.setdefault(path, []).append(i)
        for path, members in by_path.items():
            row = rows.setdefault(path, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += len(members)
            row["s"] += float(duration[members].sum())
            row["self_s"] += float(self_time[members].sum())
    return dict(sorted(rows.items()))


def layer_totals(traces: list[Trace]) -> dict[str, dict]:
    """Per span name, over every path: calls, inclusive and self seconds."""
    totals: dict[str, dict] = {}
    for path, row in layer_tree(traces).items():
        name = path.rsplit("/", 1)[-1]
        total = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for field in total:
            total[field] += row[field]
    return totals


def span_p50_ms(traces: list[Trace], name: str) -> float:
    """Median duration of the ``name`` spans, in milliseconds (0 if none)."""
    durations = [
        trace.duration[trace.name == trace.names.index(name)]
        for trace in traces if name in trace.names
    ]
    durations = np.concatenate(durations) if durations else np.zeros(0)
    return float(np.median(durations)) * 1000.0 if len(durations) else 0.0


def coverage(traces: list[Trace], name: str) -> float:
    """Share of ``name`` spans' wall time covered by their direct children."""
    covered = 0.0
    total = 0.0
    for trace in traces:
        duration = trace.duration
        nid = trace.names.index(name) if name in trace.names else -1
        own = np.flatnonzero(trace.name == nid)
        total += float(duration[own].sum())
        children = np.isin(trace.parent, own)
        covered += float(duration[children].sum())
    return covered / total if total > 0 else 0.0
