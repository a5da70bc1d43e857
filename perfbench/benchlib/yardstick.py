"""Host speed yardstick: a fixed piece of pure-Python work, timed next
to each measurement so that timings can be read at one host speed.

The host this benchmark runs on is shared.  For seconds to minutes at a
time it runs the same code up to ~1.7x slower, on each CPU on its own,
in CPU time as much as in wall time.  A timing taken in such a phase
says more about the host than about the program.  The yardstick is
benchmark-owned code that no program change can touch: timed in the
same process right before and after a piece of measured work, it tells
how fast the host ran that work.  :func:`at_reference` scales a
measured time to a host on which the yardstick takes
:data:`REFERENCE_S`.

The slow phases hurt memory access most, so the yardstick is random
lookups in a table far larger than a CPU's second-level cache, as the
fleet's own state is.  On a 2-CPU Xeon host with Python 3.11.7, eight
seeds of the replay workload spread 0.06-0.07 (interquartile range over
median) at the reference speed against 0.12-0.16 as measured; a
compute-only yardstick did no better than none.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, Iterable, Optional

#: Yardstick seconds on the reference host (a 2-CPU Xeon host with
#: Python 3.11.7 with no other load).
REFERENCE_S = 0.006

#: Entries in the lookup table (about 25 MB of objects).
TABLE_SIZE = 150_000
#: Lookups per yardstick run.
LOOKUPS = 8000


class _Entry:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = key * 3


_table: Optional[Dict[int, _Entry]] = None
#: Resident memory the table added to this process, in MiB.
_table_mb = 0.0


def resident_mb() -> float:
    """This process's resident set size now, in MiB (0 where
    ``/proc/self/statm`` does not exist)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def table_mb() -> float:
    """Resident memory the yardstick's table takes in this process, so
    that memory figures can leave it out."""
    return _table_mb


def _ensure_table() -> Dict[int, _Entry]:
    global _table, _table_mb
    if _table is None:
        before = resident_mb()
        _table = {key: _Entry(key) for key in range(TABLE_SIZE)}
        _table_mb = resident_mb() - before
    return _table


def _work(table: Dict[int, _Entry]) -> int:
    """Pseudo-random lookups and attribute reads across *table*."""
    state = 12345
    total = 0
    for _ in range(LOOKUPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        total += table[state % TABLE_SIZE].value
    return total


def measure() -> float:
    """Seconds one yardstick run takes now (the first call in a process
    builds the table first, untimed)."""
    table = _ensure_table()
    started = time.perf_counter()
    _work(table)
    return time.perf_counter() - started


def at_reference(seconds: float, yardsticks: Iterable[float]) -> float:
    """*seconds* of work, scaled to the reference host: the work took
    *seconds* while the yardstick took the median of *yardsticks*."""
    return seconds * REFERENCE_S / statistics.median(yardsticks)
