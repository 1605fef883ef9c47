"""Host-speed gauge: a fixed pure-Python work unit timed around every campaign.

A shared host's speed drifts.  On a 2-vCPU x86 guest with nothing else of the
guest running, this work unit took from 0.52 to 1.23 times its reference time
(median over a 20-second run) in runs made within ten minutes of each other,
and a plain Python loop's CPU time tracked its wall time through such swings:
the drift comes from the machine under the guest, not from scheduling inside
it.  A drift that slow moves whole runs, so no number of samples inside a run
removes it.

Every process that runs a campaign loop therefore times :func:`work_unit`
right before and right after its loop, and the benchmark reports the
campaign's timings at a fixed reference speed: each is divided by the
campaign's slowdown, its mean reading over :data:`REFERENCE_S`.  On
eight 20-second tqs-sim runs this cut the spread of comparisons/s (distance
between the quartiles over the median) from 0.47 as measured to 0.09.  The
work unit exercises what the program spends its time on (dict and tuple
traffic, string formatting, object allocation, sorting, method calls) and
none of the program's code, so a change to the program moves the reported
figures by its own effect alone.
"""

from __future__ import annotations

import gc
import time
from typing import List

#: Seconds one :func:`work_unit` takes at the reference speed; figures are
#: reported as if the host ran at this speed throughout.  It is a typical
#: reading on a 2-vCPU x86 guest.
REFERENCE_S = 0.025

#: Loop trips in one work unit.
_TRIPS = 18000


class _Row:
    __slots__ = ("key", "text")

    def __init__(self, key: int, text: str) -> None:
        self.key = key
        self.text = text

    def weight(self) -> int:
        return self.key * 3 + len(self.text)


def work_unit() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    table: dict = {}
    rows: List[_Row] = []
    for i in range(_TRIPS):
        key = (i * 7919) % 1009
        pair = (key, i & 7)
        table[pair] = table.get(pair, 0) + 1
        rows.append(_Row(key, f"r{i}:{key}"))
    rows.sort(key=_Row.weight)
    return len(table) + sum(row.key for row in rows[:64])


def reading() -> float:
    """Seconds one work unit takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work_unit()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
