"""Probe-verified gateway targets and the seeded ``gateway_replay`` op log.

Set-up drives a fresh free-paced :class:`GatewayBridge` the way a
client would: a warm-up ``advance``, a directory + Thing-Description
crawl, then one probe per candidate target.  Only targets that answer
200 are kept: an unanswered read costs the op deadline in simulated
churn, which would measure the fleet's install success rate rather
than per-op cost.  The op log is then a pure function of the targets
and the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.gateway.bridge import GatewayBridge, Op
from repro.gateway.thing_description import INSTALL_ACTION

#: Simulated warm-up before the crawl: the initial plug burst
#: identifies peripherals and installs drivers.
WARMUP_NS = 2_000_000_000

#: Op mix of the replay log: kind -> share.
MIX: Tuple[Tuple[str, float], ...] = (
    ("read", 0.70), ("write", 0.15), ("install", 0.15))

#: Things whose driver installs are probed (installs are the costly op).
INSTALL_PROBE_THINGS = 64


@dataclass(frozen=True)
class Targets:
    """Probe-verified ``(thing, name)`` pairs per op kind."""

    reads: Tuple[Tuple[int, str], ...]
    writes: Tuple[Tuple[int, str], ...]
    installs: Tuple[Tuple[int, str], ...]
    #: Probe outcomes: ``kind -> {status: count}``.
    probes: Tuple[Tuple[str, Tuple[Tuple[int, int], ...]], ...]

    @property
    def probe_counts(self) -> dict:
        return {kind: dict(counts) for kind, counts in self.probes}


def _thing_id(entry: dict) -> int:
    return int(entry["id"].rsplit(":", 1)[1])


def discover(bridge: GatewayBridge) -> Targets:
    """Warm up, crawl and probe *bridge*; every call goes through
    :meth:`GatewayBridge.execute`, so the probes are in its request log."""
    bridge.execute(Op("advance", value=WARMUP_NS, request_id="warmup"))
    listing = bridge.execute(Op("list", request_id="crawl")).body["things"]
    reads: List[Tuple[int, str]] = []
    writes: List[Tuple[int, str]] = []
    for entry in listing:
        thing = _thing_id(entry)
        td = bridge.execute(Op("td", thing=thing, request_id="crawl")).body
        for name in sorted(td.get("properties", ())):
            reads.append((thing, name))
        for name in sorted(td.get("actions", ())):
            if name != INSTALL_ACTION:
                writes.append((thing, name))
    counts = {"read": {}, "write": {}, "install": {}}

    def probe(kind: str, op: Op) -> bool:
        status = bridge.execute(op).status
        counts[kind][status] = counts[kind].get(status, 0) + 1
        return status == 200

    ok_reads = [(t, n) for t, n in reads
                if probe("read", Op("read", thing=t, name=n,
                                    request_id="probe"))]
    ok_writes = [(t, n) for t, n in writes
                 if probe("write", Op("write", thing=t, name=n, value=0,
                                      request_id="probe"))]
    # One install per Thing: the driver of its first readable property.
    first_driver = {}
    for thing, name in ok_reads:
        first_driver.setdefault(thing, name)
    ok_installs = [(t, n) for t, n in
                   sorted(first_driver.items())[:INSTALL_PROBE_THINGS]
                   if probe("install", Op("install", thing=t, name=n,
                                          request_id="probe"))]
    return Targets(
        reads=tuple(ok_reads), writes=tuple(ok_writes),
        installs=tuple(ok_installs),
        probes=tuple((kind, tuple(sorted(c.items())))
                     for kind, c in counts.items()))


def generate(targets: Targets, seed: int, count: int) -> List[Op]:
    """The seeded op log: *count* ops drawn by :data:`MIX` over the
    probe-verified targets.  Kinds with no verified target are skipped
    and their share goes to reads."""
    rng = random.Random(seed)
    pools = {"read": targets.reads, "write": targets.writes,
             "install": targets.installs}
    if not targets.reads:
        raise ValueError("no readable target answered its probe")
    ops = []
    for index in range(count):
        draw = rng.random()
        kind = "read"
        for candidate, share in MIX:
            if draw < share:
                kind = candidate
                break
            draw -= share
        if not pools[kind]:
            kind = "read"
        thing, name = rng.choice(pools[kind])
        value = rng.randrange(2) if kind == "write" else None
        ops.append(Op(kind, thing=thing, name=name, value=value,
                      request_id=f"op-{index}"))
    return ops
