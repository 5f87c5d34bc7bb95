"""A fixed pure-Python task that measures how fast the host runs right now.

Other work on a shared host slows the workloads by up to 2x, in spells
that last from a second to minutes; CPU time slows with wall time, so no
clock hides it.  :func:`probe` times a fixed task of the same
kind of work the simulator does (dict and attribute access, integer
arithmetic, string formatting, small allocations, a keyed sort) and does
not touch the program, so a change to the program never moves it.  The
workloads run it around the timed work and scale the work's time by
``PROBE_REFERENCE_S / probe()``: the time it would have taken on a host
that runs the probe in ``PROBE_REFERENCE_S``.
"""

from __future__ import annotations

import gc
import time

# About the probe's time on a quiet 2-vCPU Xeon VM at 2.0 GHz.
PROBE_REFERENCE_S = 0.075


class _Order:
    __slots__ = ("key", "price", "size")

    def __init__(self, key: int, price: int, size: int) -> None:
        self.key = key
        self.price = price
        self.size = size


def _task() -> int:
    book: dict[int, int] = {}
    orders = []
    acc = 0
    for i in range(48_000):
        key = (i * 2654435761) & 0x3FF
        book[key] = book.get(key, 0) + i
        order = _Order(key, (i * 7919) % 1000, i & 31)
        orders.append(order)
        acc += order.price * order.size
        if i % 8 == 0:
            acc += len(f"0x{key:04x}:{order.price}")
    orders.sort(key=lambda o: (o.price, o.key))
    best = {o.key: o for o in orders[:8000]}
    return acc + len(best) + sum(book.values())


def probe() -> float:
    """Seconds the fixed task takes now.

    The garbage collector is off while it runs: a collection's cost grows
    with everything else the process holds, which is not host speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
