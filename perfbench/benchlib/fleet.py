"""Workload ``fleet_metro``: a batch fleet run through ``run_scenario``.

The ``metro`` scenario at 1,000 Things (40 shards of 25) runs on a
process pool with one worker per available CPU.  It sends no gateway
traffic: plug/identify/install/discover/read churn over 6LoWPAN/RPL
only.  Each repetition runs the whole fleet; the merged metrics must be
identical across repetitions of one seed.

Each worker times the host speed yardstick between shards, and every
time is reported at the reference host speed (:mod:`benchlib.yardstick`).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from typing import Dict, List, Tuple

from benchlib import spans, yardstick
from benchlib.stats import (
    fleet_failed_ratio,
    median,
    peak_rss_mb,
    reference_figures,
    summarize_latencies,
)
from repro.fleet import runner
from repro.fleet.deployment import ShardDeployment
from repro.fleet.metrics import Metrics
from repro.fleet.scenario import SCENARIOS
from repro.snapshot.checkpoint import digest_document

THINGS = 1000
SHARD_SIZE = 25
#: Simulated seconds per fleet run (about 1.2 s on 2 workers).
SIM_S = 15.0
#: Fewest fleet builds timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 5
#: Kept spans returned per traced shard.
SPANS_PER_SHARD = 250

#: The runner's shard entry point, taken before the benchmark patches it.
ORIGINAL_RUN_SHARD = runner.run_shard

#: A worker times the yardstick again before a shard once this much
#: time has passed since its last timing.
STICK_EVERY_S = 0.2

#: Router cycles of the shard this worker process finalized last
#: (traced runs only; read back by :func:`timed_run_shard`).
_last_cycles: Dict[str, int] = {}
#: This worker's last yardstick: ``[seconds, perf_counter when taken]``.
_last_stick = [0.0, float("-inf")]


def timed_run_shard(spec, plan=None) -> dict:
    """``run_shard`` plus the shard's busy time, this worker's latest
    yardstick (timed anew when :data:`STICK_EVERY_S` has passed) and
    the worker's RSS, and, in a traced run, the shard's layer figures
    and kept spans.  Module level, so worker processes can unpickle
    it."""
    recorder = spans.installed()
    state = recorder.fresh_state() if recorder is not None else None
    before = time.perf_counter()
    if before - _last_stick[1] >= STICK_EVERY_S:
        _last_stick[:] = [yardstick.measure(), before]
    started = time.perf_counter()
    snapshot = ORIGINAL_RUN_SHARD(spec, plan)
    bench = {"busy_s": time.perf_counter() - started,
             "yardstick_s": _last_stick[0],
             "yardstick_wall_s": started - before, "rss_mb": peak_rss_mb()}
    if state is not None:
        bench["self_ns"] = dict(state.self_ns)
        bench["calls"] = dict(state.calls)
        bench["spans"] = state.spans[:SPANS_PER_SHARD]
        bench["vm.cycles"] = _last_cycles.get("vm.cycles", 0)
    snapshot["bench"] = bench
    return snapshot


def workers() -> int:
    return len(os.sched_getaffinity(0))


def scenario(seed: int):
    return SCENARIOS["metro"].scaled(things=THINGS, shard_size=SHARD_SIZE,
                                     seed=seed, duration_s=SIM_S)


def _completed_ops(counters: Dict[str, int]) -> int:
    """Client-visible operations the fleet completed: reads answered,
    discoveries finished and drivers installed."""
    return (counters.get("reads.ok", 0)
            + counters.get("discoveries.completed", 0)
            + counters.get("driver.installs", 0))


def _one_run(sc, n_workers: int) -> dict:
    result = runner.run_scenario(sc, workers=n_workers)
    counters = result.merged.get("counters", {})
    benches = [snap["bench"] for snap in result.shard_snapshots]
    merge_t0 = time.perf_counter()
    Metrics.merge(result.shard_snapshots)
    merge_s = time.perf_counter() - merge_t0
    busy = [b["busy_s"] for b in benches]
    # The run as one measured window, without the yardstick's own time.
    window = (result.wall_s - sum(b["yardstick_wall_s"] for b in benches)
              / n_workers,
              _completed_ops(counters), counters.get("sim.events", 0),
              [b * 1e3 for b in busy], [b["yardstick_s"] for b in benches])
    return {
        "window": window,
        "wall_s": result.wall_s,
        "digest": digest_document(result.merged),
        "counters": counters,
        "used_processes": result.used_processes,
        "busy_s": busy,
        "rss_mb": max(b["rss_mb"] for b in benches),
        "merge_s": merge_s,
        "fanout_overhead_s": window[0] - sum(busy) / n_workers,
        "benches": benches,
    }


def _repeat(sc, n_workers: int, seconds: float) -> List[dict]:
    """Whole fleet runs, at least one, for about *seconds*."""
    runs = []
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        runs.append(_one_run(sc, n_workers))
    return runs


def build_fleet(sc) -> float:
    """Seconds to build and launch every shard (``live_shards``) at the
    reference host speed.  The previous build's garbage is collected
    first, so every build starts from the same collector state."""
    gc.collect()
    before = yardstick.measure()
    started = time.perf_counter()
    runner.live_shards(sc)
    elapsed = time.perf_counter() - started
    return yardstick.at_reference(elapsed, [before, yardstick.measure()])


def _measure(sc, n_workers: int, seconds: float
             ) -> Tuple[List[dict], List[float]]:
    """Whole fleet runs for about *seconds*, each followed by one timed
    fleet build, until there are at least :data:`SETUP_REPEATS` builds.

    The builds run in a forked helper process: the pool forks its
    workers from this process, and a forked worker's peak RSS starts at
    this process's resident size, which in-process builds would
    inflate.  Interleaving spreads the builds over the run, so a slow
    phase of the host reaches only some of them."""
    runs: List[dict] = []
    setup: List[float] = []
    helper = multiprocessing.get_context("fork").Pool(1)
    try:
        started = time.perf_counter()
        while (len(setup) < SETUP_REPEATS
               or time.perf_counter() - started < seconds):
            runs.append(_one_run(sc, n_workers))
            setup.append(helper.apply(build_fleet, (sc,)))
    finally:
        helper.close()
        helper.join()
    return runs, setup


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    sc = scenario(seed)
    n_workers = workers()
    # Build the yardstick's table here, once: every forked worker
    # inherits it instead of building its own.
    yardstick.measure()

    runner.run_shard = timed_run_shard
    try:
        runs, setup = _measure(sc, n_workers, seconds)
        traced = _traced_runs(sc, n_workers, seconds) if trace else []
    finally:
        runner.run_shard = ORIGINAL_RUN_SHARD

    first = runs[0]
    digests = {r["digest"] for r in runs + traced}
    counters = first["counters"]
    in_fleet_failed, in_fleet_attempted, failed_ratio = \
        fleet_failed_ratio(counters)
    shard_ms = [b * 1e3 for r in runs for b in r["busy_s"]]
    shard = summarize_latencies(shard_ms)
    problems = []
    if len(digests) != 1:
        problems.append(f"merged metrics differ across repetitions: "
                        f"{sorted(digests)}")
    if counters.get("sim.events", 0) <= 0 or counters.get("reads.ok", 0) <= 0:
        problems.append("fleet run produced no events or no answered reads")
    if n_workers > 1 and not all(r["used_processes"] for r in runs):
        problems.append("the process pool fell back to serial execution")

    ref = reference_figures([r["window"] for r in runs])
    metrics = {
        "setup_s": (median(setup), "s"),
        "sim_events_per_s": (ref["sim_events_per_s"], "1/s"),
        "ops_per_s": (ref["ops_per_s"], "1/s"),
        "op_p50_ms": (ref["op_p50_ms"], "ms"),
        "op_p99_ms": (ref["op_p99_ms"], "ms"),
        "peak_rss_mb": (median(r["rss_mb"] for r in runs), "MB"),
    }
    details = {
        "scenario": {"name": "metro", "things": THINGS,
                     "shard_size": SHARD_SIZE, "shards": sc.shard_count,
                     "sim_s": SIM_S, "seed": seed},
        "workers": n_workers,
        "repetitions": len(runs),
        "wall_s": [r["wall_s"] for r in runs],
        "at_reference": ref,
        "measured_sim_events_per_s": median(
            r["counters"]["sim.events"] / r["wall_s"] for r in runs),
        "worker_peak_rss_mb": [r["rss_mb"] for r in runs],
        "setup_samples_s": setup,
        "op_samples": {"what": "measured host time per shard run in the "
                               "pool, all repetitions", **shard},
        "failed_ratio": failed_ratio,
        "failed_ratio_basis": {
            "what": "(reads.timeout + driver.request_failures) / "
                    "(reads.sent + driver.requests), in-fleet",
            "failed": in_fleet_failed, "attempted": in_fleet_attempted},
    }
    deterministic = {
        "digest": first["digest"],
        "sim.events": counters.get("sim.events", 0),
        "counters": {k: counters[k] for k in sorted(counters)
                     if k.startswith(("reads.", "driver.", "discoveries."))},
    }
    result = {"correct": not problems, "problems": problems,
              "attempted": len(runs) + len(traced),
              "failed": 0 if not problems else len(runs) + len(traced),
              "metrics": metrics, "details": details,
              "deterministic": deterministic}
    if trace:
        result["layers"] = _layer_metrics(runs, traced, counters, out_dir,
                                          seed)
    return result


def _traced_runs(sc, n_workers: int, seconds: float) -> List[dict]:
    """Fleet runs with the span recorder installed; the forked workers
    inherit the wrapped layers and the cycle-counting ``finalize``."""
    spans.install(spans.SpanRecorder())
    finalize = ShardDeployment.finalize

    def finalize_counting_cycles(self):
        _last_cycles["vm.cycles"] = sum(
            thing.router.stats.cycles for thing in self.things)
        return finalize(self)

    ShardDeployment.finalize = finalize_counting_cycles
    try:
        return _repeat(sc, n_workers, seconds / 2.0)
    finally:
        ShardDeployment.finalize = finalize


def _layer_metrics(runs: List[dict], traced: List[dict],
                   counters: Dict[str, int], out_dir, seed: int) -> dict:
    self_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    cycles = 0
    kept: List[tuple] = []
    for index, shard in enumerate(traced[0]["benches"]):
        for layer, ns in shard["self_ns"].items():
            self_ns[layer] = self_ns.get(layer, 0) + ns
        for name, n in shard["calls"].items():
            calls[name] = calls.get(name, 0) + n
        cycles += shard["vm.cycles"]
        kept.extend((index,) + span for span in shard["spans"])
    spans.write_spans(out_dir / f"spans-fleet_metro-{seed}.jsonl", kept,
                      meta={"workload": "fleet_metro", "seed": seed,
                            "self_s": {k: v / 1e9
                                       for k, v in self_ns.items()}})
    untraced_wall = median(r["wall_s"] for r in runs)
    traced_wall = median(r["wall_s"] for r in traced)
    layers = {f"{layer}.self_s": self_ns.get(layer, 0) / 1e9
              for layer in spans.LAYER_NAMES}
    layers.update({
        "sim.events": counters.get("sim.events", 0),
        "sim.run_until_calls": calls.get("Simulator.run_until", 0),
        "net.frames": counters.get("net.frames_sent", 0),
        "net.bytes": counters.get("net.bytes_sent", 0),
        "protocol.retransmits": counters.get("reliability.retransmits", 0),
        "hw.identifications": counters.get("identifications", 0),
        "vm.dispatched": counters.get("vm.events_dispatched", 0),
        "vm.cycles": cycles,
        "telemetry.samples": calls.get("ShardTelemetry.sample", 0),
        "fleet.fanout_overhead_s": median(r["fanout_overhead_s"]
                                          for r in runs),
        "fleet.merge_s": median(r["merge_s"] for r in runs),
        "trace.overhead_ratio": traced_wall / untraced_wall,
    })
    return layers
