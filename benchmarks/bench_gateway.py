"""Engineering bench: gateway service latency, throughput and determinism.

Boots a fleet behind an in-process :class:`GatewayServer` and measures
the live service the way an operator would:

1. **Load test.**  The open-loop generator drives N registry lookups
   plus M property reads per minute over real sockets against a
   1k-node fleet (``--fast``: 100 nodes) and reports wall-clock
   p50/p95/p99 latency, sustained request rate and error rate, judged
   against the declarative SLOs by the telemetry health engine.
   **Fails (exit 1) if the fleet cannot sustain ≥10k property
   reads/min** (the acceptance floor; ``--fast`` scales it down) or if
   the SLO verdict is degraded.

2. **Determinism gate.**  The recorded request log of the whole load
   run is replayed against a fresh fleet; the merged-metrics digest
   must be byte-identical.  **Fails (exit 1) on mismatch.**

3. **Bridge micro-throughput.**  Serial op round-trips through the
   bridge thread without HTTP, isolating the sim-bridge cost from the
   socket cost.

4. **Observability overhead.**  The same micro workload with the
   request-obs layer on vs off; **fails (exit 1) if the enabled/
   disabled wall-clock ratio exceeds 3%** (see DESIGN.md §12).

    PYTHONPATH=src python benchmarks/bench_gateway.py [--fast] [--out PATH]

Writes ``BENCH_gateway.json`` (sentinel-diffed in CI: requests_per_s
up, p99_latency_ms / queue_wait_p95_ms / sim_exec_p95_ms down,
obs_overhead_ratio down).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fleet.scenario import SCENARIOS  # noqa: E402
from repro.gateway.bridge import GatewayBridge, Op  # noqa: E402
from repro.gateway.loadgen import LoadConfig, run_load  # noqa: E402
from repro.gateway.obs import GatewayObsConfig  # noqa: E402
from repro.gateway.server import GatewayServer  # noqa: E402

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_gateway.json"

WARMUP_NS = 2_000_000_000

#: The acceptance floor the full-size bench must sustain.
READS_PER_MIN_FLOOR = 10_000.0


def bench_load(nodes: int, duration_s: float,
               reads_per_min: float) -> dict:
    scenario = SCENARIOS["gateway"].scaled(
        things=nodes, shard_size=nodes, seed=1)
    config = LoadConfig(duration_s=duration_s,
                        reads_per_min=reads_per_min,
                        lookups_per_min=600.0)

    async def drive():
        bridge = GatewayBridge(scenario)
        try:
            async with GatewayServer(bridge) as server:
                await asyncio.wrap_future(
                    bridge.submit(Op("advance", value=WARMUP_NS)))
                result = await run_load(server.host, server.port, config)
            document = result.as_dict()
            document["digest"] = bridge.run_on_thread(bridge.digest)
            ops = bridge.log.ops()
            return document, ops
        finally:
            bridge.close()

    document, ops = asyncio.run(drive())

    replay_t0 = time.perf_counter()
    replayed = GatewayBridge.replay(scenario, ops)
    document["replay"] = {
        "ops": len(ops),
        "wall_s": round(time.perf_counter() - replay_t0, 3),
        "digest": replayed.digest(),
        "deterministic": replayed.digest() == document["digest"],
    }
    document["nodes"] = nodes
    # Headline latency decomposition (observability tier): per-read
    # p95 of queue wait vs sim execution, lifted out of the server-side
    # decomposition summary so the sentinel can watch them.
    read = ((document.get("server") or {})
            .get("decomposition") or {}).get("read") or {}
    for component, key in (("queue_wait_ms", "queue_wait_p95_ms"),
                           ("sim_exec_ms", "sim_exec_p95_ms")):
        summary = read.get(component) or {}
        if summary.get("p95") is not None:
            document[key] = round(summary["p95"], 3)
    return document


def _ready_bridge(nodes: int, obs_enabled: bool = True):
    """A started bridge over a warmed-up fleet, plus up to 16 property
    targets that answered a probe read."""
    scenario = SCENARIOS["gateway"].scaled(
        things=nodes, shard_size=nodes, seed=2)
    bridge = GatewayBridge(
        scenario, obs=GatewayObsConfig(enabled=obs_enabled)).start()
    bridge.execute(Op("advance", value=WARMUP_NS), timeout=300.0)
    listing = bridge.execute(Op("list")).body["things"]
    targets = []
    for entry in listing:
        thing = int(entry["id"].rsplit(":", 1)[1])
        td = bridge.execute(Op("td", thing=thing))
        for prop in td.body.get("properties", ()):
            if bridge.execute(Op("read", thing=thing,
                                 name=prop)).status == 200:
                targets.append((thing, prop))
        if len(targets) >= 16:
            break
    return bridge, targets


def _timed_reads(bridge, targets, start: int, count: int):
    """Reads ``start .. start+count`` of the cyclic target stream;
    returns (wall seconds, ok count)."""
    t0 = time.perf_counter()
    ok = 0
    for i in range(start, start + count):
        thing, prop = targets[i % len(targets)]
        if bridge.execute(Op("read", thing=thing, name=prop),
                          timeout=60.0).ok:
            ok += 1
    return time.perf_counter() - t0, ok


def bench_bridge_ops(nodes: int, count: int) -> dict:
    """Serial read round-trips through the bridge, no HTTP."""
    bridge, targets = _ready_bridge(nodes)
    try:
        wall, ok = _timed_reads(bridge, targets, 0, count)
    finally:
        bridge.close()
    return {
        "nodes": nodes,
        "ops": count,
        "ok": ok,
        "wall_s": round(wall, 3),
        "requests_per_s": round(count / wall, 1),
    }


#: Allowed wall-clock ratio for the obs decomposition layer (≤3%).
OBS_OVERHEAD_CEILING = 1.03

#: Absolute noise floor: deltas under this many seconds are not a
#: meaningful overhead signal on a shared CI machine.
OBS_OVERHEAD_EPSILON_S = 0.05

#: Reads per overhead arm.  An arm must be long enough that the
#: epsilon is a small share of it (under the ceiling's 3%), or the
#: epsilon alone would pass a real overhead.  At ~0.9 ms per read (2-CPU
#: x86 host, Python 3.11) 4,000 reads take ~3.5 s: the epsilon is ~1.4%
#: of an arm, and stays under 3% on a host twice as fast.
OBS_OVERHEAD_OPS = 4_000

#: Each arm's reads run in this many windows, alternating with the
#: other arm's, so host-speed drift over the run lands on both alike.
OBS_OVERHEAD_WINDOWS = 8


def bench_obs_overhead(nodes: int, count: int) -> dict:
    """Decomposition-layer cost: identical op stream, obs on vs off.

    Tracing stays off (the scenario does not trace), so this isolates
    the always-on observability layer — perf_counter stamps, SeriesBank
    records, ring/journal bookkeeping — which the gate holds to ≤3%.
    Twin fleets, one per arm, replay the same read stream in
    alternating windows (off/on, then on/off, ...), so a slow host
    phase is paid by both arms.  Deltas below an absolute epsilon pass
    regardless of ratio; the report carries the epsilon's share of the
    obs-off arm (under the ceiling's 3%, or the gate could not fail).
    """
    arms = {enabled: _ready_bridge(nodes, obs_enabled=enabled)
            for enabled in (False, True)}
    walls = {False: 0.0, True: 0.0}
    per_window = count // OBS_OVERHEAD_WINDOWS
    try:
        for window in range(OBS_OVERHEAD_WINDOWS):
            order = (False, True) if window % 2 == 0 else (True, False)
            for enabled in order:
                bridge, targets = arms[enabled]
                wall, _ = _timed_reads(bridge, targets,
                                       window * per_window, per_window)
                walls[enabled] += wall
    finally:
        for bridge, _ in arms.values():
            bridge.close()
    off, on = walls[False], walls[True]
    ratio = on / off if off > 0 else 1.0
    within = (ratio <= OBS_OVERHEAD_CEILING
              or (on - off) <= OBS_OVERHEAD_EPSILON_S)
    return {
        "nodes": nodes,
        "ops": per_window * OBS_OVERHEAD_WINDOWS,
        "obs_off_wall_s": round(off, 3),
        "obs_on_wall_s": round(on, 3),
        "obs_overhead_ratio": round(ratio, 4),
        "epsilon_share": round(OBS_OVERHEAD_EPSILON_S / off, 4)
        if off > 0 else None,
        "ceiling": OBS_OVERHEAD_CEILING,
        "within_ceiling": within,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="small fleet, short run (CI smoke)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    if args.fast:
        nodes, duration, reads_per_min = 100, 8.0, 4_000.0
        floor = reads_per_min
    else:
        nodes, duration, reads_per_min = 1_000, 30.0, READS_PER_MIN_FLOOR
        floor = READS_PER_MIN_FLOOR

    print(f"== gateway load: {nodes} nodes, {reads_per_min:.0f} "
          f"reads/min for {duration:.0f}s ==")
    load = bench_load(nodes, duration, reads_per_min)
    print(f"   {load['requests']} requests, "
          f"{load['requests_per_s']:.1f}/s, "
          f"reads/min {load['reads_per_min']:.0f}, "
          f"p99 {load['latency']['p99_latency_ms']:.1f} ms, "
          f"errors {load['error_rate']:.2%}, "
          f"slo {load['slo']['status']}")
    print(f"   replay: {load['replay']['ops']} ops in "
          f"{load['replay']['wall_s']}s, deterministic="
          f"{load['replay']['deterministic']}")

    print("== bridge micro (no HTTP) ==")
    micro = bench_bridge_ops(nodes=min(nodes, 200),
                             count=100 if args.fast else 400)
    print(f"   {micro['requests_per_s']:.1f} ops/s serial")

    print("== obs overhead (decomposition layer, tracing off) ==")
    overhead = bench_obs_overhead(nodes=min(nodes, 200),
                                  count=OBS_OVERHEAD_OPS)
    print(f"   off {overhead['obs_off_wall_s']}s  "
          f"on {overhead['obs_on_wall_s']}s  "
          f"ratio {overhead['obs_overhead_ratio']:.4f} "
          f"(ceiling {OBS_OVERHEAD_CEILING}, epsilon "
          f"{overhead['epsilon_share']:.1%} of an arm)")

    sustained = load["reads_per_min"] >= 0.95 * floor
    deterministic = load["replay"]["deterministic"]
    slo_ok = load["slo"]["status"] in ("ok", "recovered")
    obs_ok = overhead["within_ceiling"]
    gate_passed = sustained and deterministic and slo_ok and obs_ok

    document = {
        "fast": args.fast,
        "load": load,
        "bridge_micro": micro,
        "obs_overhead": overhead,
        "gate": {
            "reads_per_min_floor": floor,
            "sustained": sustained,
            "slo_ok": slo_ok,
            "deterministic": deterministic,
            "obs_ok": obs_ok,
            "gate_passed": gate_passed,
        },
    }
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {args.out}")
    if not gate_passed:
        print("GATE FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
