"""Small statistics and accounting helpers shared by every workload."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from benchlib import yardstick


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank percentile of *values* and the sample count.

    The value is the smallest sample with at least ``q`` percent of the
    samples at or below it.  The count is returned with it, so a caller
    can never report a percentile without the number it rests on.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def beyond(count: int, q: float) -> int:
    """How many of *count* samples lie beyond the q-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


#: A measured window: wall seconds, ops completed, simulator events,
#: the per-op host times (ms) in it and the yardstick times (s) taken
#: around it.
Window = Tuple[float, int, int, Sequence[float], Sequence[float]]


def reference_figures(windows: Sequence[Window]) -> Dict[str, float]:
    """Throughput and latency of a phase cut into windows, every time
    in a window scaled to the reference host by the yardstick timed
    around it (:func:`benchlib.yardstick.at_reference`)."""
    if not windows:
        raise ValueError("no measured windows")
    wall = ops = events = 0
    op_ms: List[float] = []
    slowdowns = []
    for window_s, window_ops, window_events, window_ms, sticks in windows:
        scale = yardstick.at_reference(1.0, sticks)
        wall += window_s * scale
        ops += window_ops
        events += window_events
        op_ms.extend(ms * scale for ms in window_ms)
        slowdowns.append(1.0 / scale)
    return {"sim_events_per_s": events / wall, "ops_per_s": ops / wall,
            "op_p50_ms": percentile(op_ms, 50)[0],
            "op_p99_ms": percentile(op_ms, 99)[0],
            "op_count": len(op_ms), "windows": len(windows),
            "reference_wall_s": wall,
            "host_slowdown_median": median(slowdowns)}


class Failures:
    """Failure accounting for request-serving workloads.

    A 404 for an unplugged property or a Thing the directory no longer
    lists is a correct answer: it is counted apart as ``not_found``.
    Failures are 5xx statuses, transport errors, timeouts and requests
    still unfinished when the run ends.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.ok = 0
        self.not_found = 0
        self.server_errors = 0
        self.transport_errors = 0
        self.timeouts = 0
        self.unfinished = 0
        #: Other statuses (4xx other than 404): wrong answers.
        self.unexpected = 0

    def record_status(self, status: int) -> None:
        self.attempted += 1
        if 200 <= status < 300:
            self.ok += 1
        elif status == 404:
            self.not_found += 1
        elif status >= 500:
            self.server_errors += 1
        else:
            self.unexpected += 1

    def record_transport_error(self) -> None:
        self.attempted += 1
        self.transport_errors += 1

    def record_timeout(self) -> None:
        self.attempted += 1
        self.timeouts += 1

    def record_unfinished(self, n: int = 1) -> None:
        self.attempted += n
        self.unfinished += n

    def add(self, other: "Failures") -> None:
        """Fold another phase's accounting into this one."""
        for key, value in vars(other).items():
            setattr(self, key, getattr(self, key) + value)

    @property
    def failed(self) -> int:
        return (self.server_errors + self.transport_errors + self.timeouts
                + self.unfinished + self.unexpected)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def not_found_ratio(self) -> float:
        return self.not_found / self.attempted if self.attempted else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"attempted": self.attempted, "ok": self.ok,
                "not_found": self.not_found,
                "server_errors": self.server_errors,
                "transport_errors": self.transport_errors,
                "timeouts": self.timeouts, "unfinished": self.unfinished,
                "unexpected": self.unexpected, "failed": self.failed,
                "failed_ratio": self.failed_ratio,
                "not_found_ratio": self.not_found_ratio}


def fleet_failed_ratio(counters: Dict[str, int]) -> Tuple[int, int, float]:
    """In-fleet request failures of a batch run: read timeouts plus
    driver-request failures over reads sent plus driver requests."""
    failed = (counters.get("reads.timeout", 0)
              + counters.get("driver.request_failures", 0))
    attempted = (counters.get("reads.sent", 0)
                 + counters.get("driver.requests", 0))
    return failed, attempted, (failed / attempted if attempted else 0.0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports
    ``ru_maxrss`` in KiB), less the yardstick's table."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            - yardstick.table_mb())


def host_facts() -> Dict[str, object]:
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": sys.implementation.name,
            "platform": platform.platform()}


def summarize_latencies(values_ms: List[float]) -> Optional[dict]:
    """p50/p99 with the sample count and how many samples lie beyond."""
    if not values_ms:
        return None
    p50, count = percentile(values_ms, 50)
    p99, _ = percentile(values_ms, 99)
    return {"p50_ms": p50, "p99_ms": p99, "count": count,
            "beyond_p99": beyond(count, 99), "max_ms": max(values_ms)}
