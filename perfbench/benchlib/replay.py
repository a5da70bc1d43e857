"""Workload ``gateway_replay``: a seeded op log applied to a bridge.

The ``gateway`` scenario at 1,000 Things (its default 20-Thing shards,
1 s telemetry) is hosted by a free-paced :class:`GatewayBridge` with no
thread and no sockets.  After set-up (see :mod:`benchlib.oplog`) the
seeded log is applied back to back through ``execute``: the fleet's
state after it is a pure function of the log, and each op's host time
has no queueing in it.  The log is timed in windows of
:data:`WINDOW_OPS` ops with the host speed yardstick timed between
them, and every time is reported at the reference host speed
(:mod:`benchlib.yardstick`).
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Tuple

from benchlib import oplog, spans, yardstick
from benchlib.stats import (
    Failures,
    median,
    peak_rss_mb,
    reference_figures,
    summarize_latencies,
)
from repro.fleet.metrics import Metrics
from repro.fleet.scenario import SCENARIOS
from repro.gateway.bridge import GatewayBridge

THINGS = 1000
#: Log length per second of ``--seconds`` (below this host's op rate).
OPS_PER_SECOND = 700
#: Set-ups per run; their logs must be identical, the median is reported.
SETUP_REPEATS = 3
#: Consecutive ops per measured window (about a third of a second).
WINDOW_OPS = 500


def scenario(seed: int):
    return SCENARIOS["gateway"].scaled(things=THINGS, seed=seed)


def set_up(seed: int, count: int) -> Tuple[GatewayBridge, oplog.Targets,
                                           List, float]:
    """Build the bridge, crawl and probe it, and generate the log; the
    last item is the time that took at the reference host speed."""
    before = yardstick.measure()
    started = time.perf_counter()
    bridge = GatewayBridge(scenario(seed))
    targets = oplog.discover(bridge)
    log = oplog.generate(targets, seed, count)
    elapsed = time.perf_counter() - started
    return bridge, targets, log, yardstick.at_reference(
        elapsed, [before, yardstick.measure()])


def sim_events(bridge: GatewayBridge) -> int:
    """Simulator events the hosted fleet has run so far."""
    return sum(d.metrics.counter("sim.events").value
               for d in bridge.deployments)


def layer_counts(bridge: GatewayBridge) -> Dict[str, int]:
    """Cumulative work counts of the hosted fleet's layers."""
    merged = Metrics.merge(d.metrics.snapshot() for d in bridge.deployments)
    counters = merged.get("counters", {})
    out = {"sim.events": counters.get("sim.events", 0),
           "protocol.retransmits": counters.get("reliability.retransmits", 0),
           "hw.identifications": counters.get("identifications", 0),
           "net.frames": 0, "net.bytes": 0,
           "vm.dispatched": 0, "vm.cycles": 0}
    for deployment in bridge.deployments:
        out["net.frames"] += deployment.network.stats.frames_sent
        out["net.bytes"] += deployment.network.stats.bytes_sent
        for thing in deployment.things:
            out["vm.dispatched"] += thing.router.stats.dispatched
            out["vm.cycles"] += thing.router.stats.cycles
    return out


def apply(bridge: GatewayBridge, log, recorder=None) -> dict:
    """Apply *log* through ``execute``; per-op host times, outcomes and
    the measured windows of :data:`WINDOW_OPS` ops."""
    failures = Failures()
    statuses: Dict[str, Dict[int, int]] = {}
    times_ms: Dict[str, List[float]] = {}
    sim_exec_ms: List[float] = []
    windows = []
    window_ms: List[float] = []
    malformed = 0
    before = layer_counts(bridge)
    clock = time.perf_counter
    stick = yardstick.measure()
    started = window_start = clock()
    window_events = sim_events(bridge)
    for index, op in enumerate(log, 1):
        if recorder is not None:
            recorder.set_op(op.request_id)
        t0 = clock()
        result = bridge.execute(op)
        t1 = clock()
        times_ms.setdefault(op.kind, []).append((t1 - t0) * 1e3)
        window_ms.append((t1 - t0) * 1e3)
        failures.record_status(result.status)
        kind = statuses.setdefault(op.kind, {})
        kind[result.status] = kind.get(result.status, 0) + 1
        if result.status == 200 and not _well_formed(op, result.body):
            malformed += 1
        if op.kind == "read" and result.record is not None:
            sim_exec_ms.append(result.record["sim_exec_ms"])
        if index % WINDOW_OPS == 0 or index == len(log):
            window_s = clock() - window_start
            events = sim_events(bridge)
            sticks = [stick, yardstick.measure()]
            windows.append((window_s, len(window_ms),
                            events - window_events, window_ms, sticks))
            stick, window_events, window_ms = sticks[1], events, []
            window_start = clock()
    wall = sum(window[0] for window in windows)
    after = layer_counts(bridge)
    return {"wall_s": wall, "failures": failures, "statuses": statuses,
            "times_ms": times_ms, "read_sim_exec_ms": sim_exec_ms,
            "windows": windows,
            "malformed": malformed,
            "counts": {k: after[k] - before[k] for k in after}}


def _well_formed(op, body: dict) -> bool:
    if body.get("thing") != op.thing:
        return False
    if op.kind == "read":
        return body.get("property") == op.name and "value" in body
    if op.kind == "install":
        return body.get("installed") is True and body.get("driver") == op.name
    return body.get("action") == op.name


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    count = max(WINDOW_OPS, int(OPS_PER_SECOND * seconds))
    setup = []
    logs = []
    digests = set()
    for _ in range(SETUP_REPEATS):
        bridge = targets = None
        gc.collect()
        bridge, targets, log, elapsed = set_up(seed, count)
        setup.append(elapsed)
        logs.append(log)
        digests.add(bridge.digest())
    log = logs[-1]
    logs_identical = all(other == log for other in logs)

    gc.collect()
    outcome = apply(bridge, log)
    digest = bridge.digest()
    rss = peak_rss_mb()

    all_ms = [v for values in outcome["times_ms"].values() for v in values]
    ops = summarize_latencies(all_ms)
    reads = summarize_latencies(outcome["times_ms"].get("read", []))
    failures: Failures = outcome["failures"]
    problems = []
    if not logs_identical:
        problems.append("two op-log generations from one seed differ")
    if len(digests) != 1:
        problems.append("set-up left different fleet digests")
    if outcome["malformed"]:
        problems.append(f"{outcome['malformed']} 200 answers were malformed")
    if failures.unexpected:
        problems.append(f"{failures.unexpected} unexpected statuses")

    ref = reference_figures(outcome["windows"])
    metrics = {
        "setup_s": (median(setup), "s"),
        "sim_events_per_s": (ref["sim_events_per_s"], "1/s"),
        "ops_per_s": (ref["ops_per_s"], "1/s"),
        "op_p50_ms": (ref["op_p50_ms"], "ms"),
        "op_p99_ms": (ref["op_p99_ms"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    details = {
        "scenario": {"name": "gateway", "things": THINGS,
                     "shards": len(bridge.deployments), "seed": seed},
        "log": {"ops": len(log),
                "mix": {k: len(v) for k, v in outcome["times_ms"].items()}},
        "targets": {"reads": len(targets.reads),
                    "writes": len(targets.writes),
                    "installs": len(targets.installs),
                    "probes": targets.probe_counts},
        "setup_samples_s": setup,
        "at_reference": {"window_ops": WINDOW_OPS, **ref},
        "measured": {"wall_s": outcome["wall_s"],
                     "ops_per_s": len(log) / outcome["wall_s"],
                     "sim_events_per_s": outcome["counts"]["sim.events"]
                     / outcome["wall_s"]},
        "op_samples": {"what": "measured host time per execute", **ops},
        "read_p50_ms": reads["p50_ms"], "read_p99_ms": reads["p99_ms"],
        "read_samples": reads,
        "failed_ratio": failures.failed_ratio,
        "not_found_ratio": failures.not_found_ratio,
        "failures": failures.as_dict(),
    }
    deterministic = {
        "setup_digest": next(iter(digests)),
        "digest": digest,
        "sim.events": outcome["counts"]["sim.events"],
        "statuses": {kind: {str(s): n for s, n in sorted(c.items())}
                     for kind, c in sorted(outcome["statuses"].items())},
    }
    result = {"correct": not problems, "problems": problems,
              "attempted": failures.attempted, "failed": failures.failed,
              "metrics": metrics, "details": details,
              "deterministic": deterministic}
    if trace:
        bridge = None
        gc.collect()
        result["layers"], traced_log, traced_digest = _traced(
            seed, count, outcome, out_dir)
        if traced_log != log:
            problems.append("the traced set-up generated another op log")
        if traced_digest != digest:
            problems.append("the traced replay reached another digest")
        result["correct"] = not problems
    return result


def _traced(seed: int, count: int, untraced: dict, out_dir):
    """Set up again with the span recorder installed and apply the log;
    returns the layer metrics, the log and the digest it reached."""
    recorder = spans.SpanRecorder()
    spans.install(recorder)
    bridge, _targets, log, _ = set_up(seed, count)
    gc.collect()
    recorder.reset()
    outcome = apply(bridge, log, recorder)
    totals = recorder.totals()
    spans.write_spans(out_dir / f"spans-gateway_replay-{seed}.jsonl",
                      recorder.kept_spans(),
                      meta={"workload": "gateway_replay", "seed": seed,
                            "totals": totals})
    layers = {f"{layer}.self_s": totals["self_s"].get(layer, 0.0)
              for layer in spans.LAYER_NAMES}
    layers.update(untraced["counts"])
    run_until = totals["calls"].get("Simulator.run_until", 0)
    sim_exec = summarize_latencies(untraced["read_sim_exec_ms"])
    layers.update({
        "sim.run_until_calls": run_until,
        "telemetry.samples": totals["calls"].get("ShardTelemetry.sample", 0),
        "bridge.run_until_per_op": run_until / len(log),
        # Inline execution: nothing queues in front of the bridge.
        "bridge.queue_wait_p99_ms": 0.0,
        "bridge.sim_exec_p99_ms": sim_exec["p99_ms"],
        "trace.overhead_ratio": outcome["wall_s"] / untraced["wall_s"],
    })
    return layers, log, bridge.digest()
