"""Workload ``gateway_live``: the fleet served over loopback HTTP.

The server runs in its own process (``perfbench/live_server.py``); the
load comes from this process over one keep-alive connection.  Both
processes run on one CPU: with one connection only one of them is
runnable at a time, so they never compete for it.  On separate CPUs
every request crossed between them twice, each time waking an idle
CPU, and on a shared host that wake-up cost varied from run to run: on
a 2-CPU host, five seeds run in turn both ways gave 418-598 closed-loop
requests/s (at the reference host speed) on separate CPUs against
587-648 on one.  Phase 1 is an open loop at the acceptance rate (10,000
reads/min plus 600 lookups/min), each request timed from the instant it
was due.  Phase 2 is a closed loop: a fixed number of requests back to
back, same mix, timed in windows of :data:`WINDOW_REQUESTS`.  Between
windows the loop pauses while the host speed yardstick is timed in this
process and on the server's bridge thread, and phase-2 times and the
set-up time are reported at the reference host speed
(:mod:`benchlib.yardstick`).

Every request goes over the one connection in a fixed order, and the
server admits requests in arrival order with free pacing, so the
server's request log, its fleet digest and every status are a pure
function of the seed and ``--seconds``.  Afterwards the log is replayed
into a fresh bridge; the run fails unless the digests match.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchlib import yardstick
from benchlib.replay import THINGS, layer_counts, scenario, sim_events
from benchlib.spans import LAYER_NAMES
from benchlib.stats import (
    Failures,
    Window,
    median,
    percentile,
    reference_figures,
    summarize_latencies,
)
from repro.gateway.bridge import GatewayBridge, RequestLog
from repro.gateway.loadgen import HttpPool, _mix_schedule, discover_targets
from repro.gateway.wire import WireError

HERE = Path(__file__).resolve().parent.parent
SERVER = HERE / "live_server.py"

READS_PER_MIN = 10_000.0
LOOKUPS_PER_MIN = 600.0
#: Server spawns timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 3
REQUEST_TIMEOUT_S = 10.0
#: Share of ``--seconds`` given to the open-loop phase (its p99 needs
#: the samples); the closed loop gets the rest.
OPEN_LOOP_SHARE = 0.4
#: Closed-loop requests per second of its share (about this host's rate
#: on one connection), so the request count is fixed by the arguments.
CLOSED_LOOP_RATE = 350
#: Closed-loop requests per measured window (about a third of a second).
WINDOW_REQUESTS = 150
#: The closed loop may take this many times its share before its
#: unsent requests count as unfinished.
CLOSED_LOOP_TIMEOUT = 4
#: How long in-flight requests may finish after a phase ends.
DRAIN_S = 5.0
_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class Server:
    """A ``live_server.py`` process: spawned, controlled, always reaped."""

    def __init__(self, seed: int, out: Path, trace: bool,
                 cpus: List[int]) -> None:
        self.out = out
        command = [sys.executable, str(SERVER), "--seed", str(seed),
                   "--out", str(out)] + (["--trace"] if trace else [])
        out.mkdir(parents=True, exist_ok=True)
        #: The server's stderr (shutdown noise, tracebacks) goes here.
        self.stderr = open(out / "server.err", "w")
        self.started = time.perf_counter()
        # The server, and every thread it starts, runs on *cpus* from
        # its first instruction.
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True, bufsize=1,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        self.host = "127.0.0.1"
        self.port = 0

    def wait_listening(self, timeout_s: float = 120.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            found = _LISTENING.search(line)
            if found:
                self.host, self.port = found.group(1), int(found.group(2))
                return
        raise RuntimeError("the gateway server never started listening")

    async def wait_healthy(self, timeout_s: float = 60.0) -> float:
        """Seconds from spawn until ``/healthz`` answers 200."""
        deadline = time.monotonic() + timeout_s
        pool = HttpPool(self.host, self.port, 1)
        try:
            while time.monotonic() < deadline:
                try:
                    status, _ = await pool.request("GET", "/healthz")
                    if status == 200:
                        return time.perf_counter() - self.started
                except OSError:
                    await asyncio.sleep(0.01)
        finally:
            await pool.close()
        raise RuntimeError("/healthz never answered")

    def command(self, line: str, expect: str,
                timeout_s: float = 120.0) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            reply = self.proc.stdout.readline()
            if not reply:
                break
            if reply.strip() == expect:
                return
        raise RuntimeError(f"server did not answer {line!r}")

    def yardstick(self) -> float:
        """Time the yardstick on the server's bridge thread."""
        self.proc.stdin.write("stick\n")
        self.proc.stdin.flush()
        while True:
            reply = self.proc.stdout.readline()
            if not reply:
                raise RuntimeError("server did not answer 'stick'")
            if reply.startswith("stick "):
                return float(reply.split()[1])

    def stop(self) -> dict:
        self.command("stop", "done")
        self.proc.wait(timeout=60)
        with open(self.out / "result.json") as fh:
            return json.load(fh)

    def reap(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout, self.stderr):
            stream.close()


class Load:
    """Targets, the request mix shared by both phases, and the one
    connection every request goes over, in order."""

    def __init__(self, pool: HttpPool, reads: List[Tuple[int, str]]) -> None:
        self.pool = pool
        self.reads = reads
        self.cycle = _mix_schedule(LOOKUPS_PER_MIN, READS_PER_MIN)

    def request(self, index: int) -> Tuple[str, str]:
        """``(kind, path)`` of the index-th request.  Lookups alternate
        directory listings and single Thing Descriptions."""
        kind = self.cycle[index % len(self.cycle)]
        if kind == "lookup":
            lookup = index // len(self.cycle)
            if lookup % 2 == 0:
                return kind, "/things"
            thing = self.reads[lookup % len(self.reads)][0]
            return kind, f"/things/{thing}"
        thing, name = self.reads[index % len(self.reads)]
        return kind, f"/things/{thing}/properties/{name}"


class Outcomes:
    """Per-request results of one phase."""

    def __init__(self) -> None:
        self.failures = Failures()
        self.latency_ms: Dict[str, List[float]] = {"read": [], "lookup": []}
        #: request id -> client round-trip ms (send to full response).
        self.roundtrip_ms: Dict[str, float] = {}
        #: ``(request id, sent, done)`` of each answered request, in
        #: order (perf_counter seconds).
        self.answered: List[Tuple[str, float, float]] = []
        #: kind -> status -> count.
        self.statuses: Dict[str, Dict[int, int]] = {}
        self.malformed = 0

    def record(self, kind: str, path: str, request_id: str, status: int,
               body: Optional[dict], due: float, sent: float,
               done: float) -> None:
        self.failures.record_status(status)
        counts = self.statuses.setdefault(kind, {})
        counts[status] = counts.get(status, 0) + 1
        self.latency_ms[kind].append((done - due) * 1e3)
        self.roundtrip_ms[request_id] = (done - sent) * 1e3
        self.answered.append((request_id, sent, done))
        if status == 200 and kind == "read":
            name = path.rsplit("/", 1)[1]
            if (not isinstance(body, dict) or body.get("property") != name
                    or "value" not in body):
                self.malformed += 1

    def status_counts(self) -> Dict[str, Dict[str, int]]:
        return {kind: {str(status): n for status, n in sorted(c.items())}
                for kind, c in sorted(self.statuses.items())}


async def _one(load: Load, out: Outcomes, index: int, request_id: str,
               due: float) -> None:
    kind, path = load.request(index)
    sent = time.perf_counter()
    try:
        status, body = await load.pool.request(
            "GET", path, timeout_s=REQUEST_TIMEOUT_S,
            headers={"X-Request-Id": request_id})
    except asyncio.TimeoutError:
        out.failures.record_timeout()
        return
    except (OSError, asyncio.IncompleteReadError, WireError, ValueError):
        out.failures.record_transport_error()
        return
    out.record(kind, path, request_id, status, body, due, sent,
               time.perf_counter())


async def _finish(sender: "asyncio.Future", out: Outcomes, count: int,
                  timeout_s: float) -> None:
    """Wait up to *timeout_s* for *sender*; requests it has not sent or
    finished by then count as unfinished."""
    try:
        await asyncio.wait_for(sender, timeout_s)
    except asyncio.TimeoutError:
        pass
    out.failures.record_unfinished(count - out.failures.attempted)


async def open_loop(load: Load, count: int
                    ) -> Tuple[Outcomes, List[float]]:
    """*count* requests at fixed due instants, sent one after another in
    due order; returns outcomes and the generator's lateness (ms) per
    request."""
    out = Outcomes()
    interval = 60.0 / (READS_PER_MIN + LOOKUPS_PER_MIN)
    due_queue: "asyncio.Queue" = asyncio.Queue()
    lag_ms: List[float] = []

    async def send() -> None:
        for index in range(count):
            due = await due_queue.get()
            await _one(load, out, index, f"o-{index}", due)

    sender = asyncio.ensure_future(send())
    origin = time.perf_counter()
    for index in range(count):
        due = origin + index * interval
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lag_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
        due_queue.put_nowait(due)
    await _finish(sender, out, count, DRAIN_S)
    return out, lag_ms


async def closed_loop(load: Load, server: Server, count: int,
                      timeout_s: float
                      ) -> Tuple[Outcomes, float, List[List[float]]]:
    """*count* requests back to back, each sent when the last one is
    answered.  Before the first request and after every
    :data:`WINDOW_REQUESTS` the yardstick is timed here and on the
    server.  Returns outcomes, the phase's wall seconds and the
    ``[here, server]`` yardstick pairs."""
    out = Outcomes()
    sticks = [[yardstick.measure(), server.yardstick()]]

    async def send() -> None:
        for index in range(count):
            await _one(load, out, index, f"c-{index}", time.perf_counter())
            if (index + 1) % WINDOW_REQUESTS == 0:
                sticks.append([yardstick.measure(), server.yardstick()])

    started = time.perf_counter()
    await _finish(asyncio.ensure_future(send()), out, count, timeout_s)
    return out, time.perf_counter() - started, sticks


async def _drive(server: Server, seconds: float) -> dict:
    pool = HttpPool(server.host, server.port, 1)
    try:
        # Directory + TD crawl and one probe read per property, keeping
        # the targets that answer 200.
        reads = await discover_targets(pool, THINGS, probe=True)
        if not reads:
            raise RuntimeError("no readable property answered its probe")
        load = Load(pool, reads)
        server.command("mark", "marked")
        open_count = max(1, int(seconds * OPEN_LOOP_SHARE
                                * (READS_PER_MIN + LOOKUPS_PER_MIN) / 60.0))
        closed_s = seconds * (1.0 - OPEN_LOOP_SHARE)
        closed_count = max(WINDOW_REQUESTS, int(CLOSED_LOOP_RATE * closed_s))
        phase1, lag_ms = await open_loop(load, open_count)
        phase2, phase2_wall, sticks = await closed_loop(
            load, server, closed_count,
            CLOSED_LOOP_TIMEOUT * closed_s + DRAIN_S)
    finally:
        await pool.close()
    return {"reads": reads, "phase1": phase1, "lag_ms": lag_ms,
            "phase2": phase2, "phase2_wall_s": phase2_wall,
            "yardsticks": sticks}


def _spawn_healthy(seed: int, out: Path, trace: bool,
                   cpus: List[int]) -> Tuple[Server, float]:
    server = Server(seed, out, trace, cpus)
    try:
        server.wait_listening()
        elapsed = asyncio.run(server.wait_healthy())
    except BaseException:
        server.reap()
        raise
    return server, elapsed


def _serve_once(seed: int, seconds: float, trace: bool, out_dir: Path,
                repeats: int, server_cpus: List[int]) -> dict:
    """Spawn the server *repeats* times (all but the last only for
    ``setup_s``) and drive the last one.  Each spawn's time until
    ``/healthz`` answers is scaled by the yardstick the server timed
    before and after its start-up."""
    setup = []
    for n in range(repeats - 1):
        spare, elapsed = _spawn_healthy(seed, out_dir / f"spare-{n}", False,
                                        server_cpus)
        try:
            sticks = spare.stop()["startup_yardstick_s"]
        finally:
            spare.reap()
        setup.append(yardstick.at_reference(elapsed, sticks))
    server, elapsed = _spawn_healthy(seed, out_dir / "server", trace,
                                     server_cpus)
    try:
        driven = asyncio.run(_drive(server, seconds))
        served = server.stop()
    finally:
        server.reap()
    setup.append(yardstick.at_reference(elapsed,
                                        served["startup_yardstick_s"]))
    driven.update(setup=setup, served=served,
                  served_records={r["request_id"]: r
                                  for r in served["records"]},
                  log=RequestLog.load(server.out / "log.json").ops())
    return driven


def _replay(seed: int, ops) -> dict:
    """Replay the server's log into a fresh bridge: layer counts at the
    start of each phase and at the end, and the simulator events each
    request ran."""
    bridge = GatewayBridge(scenario(seed))
    marks = {}
    events_by_request: Dict[str, int] = {}
    events = sim_events(bridge)
    for op in ops:
        prefix = op.request_id[:2]
        if prefix in ("o-", "c-") and prefix not in marks:
            marks[prefix] = layer_counts(bridge)
        bridge.execute(op)
        before, events = events, sim_events(bridge)
        events_by_request[op.request_id] = events - before
    end = layer_counts(bridge)
    return {"digest": bridge.digest(), "end": end,
            "phase1": marks.get("o-", end), "phase2": marks.get("c-", end),
            "events_by_request": events_by_request}


def closed_loop_windows(phase: Outcomes, events_by_request: Dict[str, int],
                        sticks: List[List[float]]) -> List[Window]:
    """Cut the closed loop's answered requests into windows of
    :data:`WINDOW_REQUESTS`, from the first one's send to the last
    one's answer, each with the yardstick pairs timed before and after
    it; a short tail is dropped."""
    size = WINDOW_REQUESTS
    windows = []
    answered = phase.answered
    for n, first in enumerate(range(0, len(answered) - size + 1, size)):
        chunk = answered[first:first + size]
        windows.append((
            chunk[-1][2] - chunk[0][1], len(chunk),
            sum(events_by_request.get(rid, 0) for rid, _, _ in chunk),
            [phase.roundtrip_ms[rid] for rid, _, _ in chunk],
            sticks[n] + sticks[n + 1]))
    return windows


def run(seed: int, seconds: float, trace: bool, out_dir) -> dict:
    # The load generator and the servers share the first CPU.
    server_cpus = sorted(os.sched_getaffinity(0))[:1]
    os.sched_setaffinity(0, server_cpus)
    driven = _serve_once(seed, seconds, False, out_dir, SETUP_REPEATS,
                         server_cpus)
    replayed = _replay(seed, driven["log"])
    served = driven["served"]
    phase1: Outcomes = driven["phase1"]
    phase2: Outcomes = driven["phase2"]
    reads = summarize_latencies(phase1.latency_ms["read"])
    lookups = summarize_latencies(phase1.latency_ms["lookup"])
    closed = summarize_latencies(phase2.latency_ms["read"]
                                 + phase2.latency_ms["lookup"])
    failures = Failures()
    failures.add(phase1.failures)
    failures.add(phase2.failures)
    windows = closed_loop_windows(phase2, replayed["events_by_request"],
                                  driven["yardsticks"])

    problems = []
    if replayed["digest"] != served["digest"]:
        problems.append("replaying the server's request log reached "
                        "another digest")
    malformed = phase1.malformed + phase2.malformed
    if malformed:
        problems.append(f"{malformed} 200 read answers were malformed")
    if failures.unexpected:
        problems.append(f"{failures.unexpected} unexpected statuses")
    if not windows:
        problems.append("the closed loop answered too few requests to "
                        "fill one window")
    problems.extend(_placement_problems(served))

    # An empty closed loop is a problem above; its figures read 0.
    ref = reference_figures(windows or [(1.0, 0, 0, [0.0], [1.0])])
    metrics = {
        "setup_s": (median(driven["setup"]), "s"),
        "sim_events_per_s": (ref["sim_events_per_s"], "1/s"),
        "ops_per_s": (ref["ops_per_s"], "1/s"),
        "op_p50_ms": (ref["op_p50_ms"], "ms"),
        "op_p99_ms": (ref["op_p99_ms"], "ms"),
        "peak_rss_mb": (served["peak_rss_mb"], "MB"),
    }
    phase2_done = len(phase2.answered)
    details = {
        "scenario": {"name": "gateway", "things": THINGS,
                     "seed": seed, "pacing": "free"},
        "connections": 1,
        "cpus": {"load_generator": sorted(os.sched_getaffinity(0)),
                 "server": served["cpus"]},
        "rates": {"reads_per_min": READS_PER_MIN,
                  "lookups_per_min": LOOKUPS_PER_MIN},
        "setup_samples_s": driven["setup"],
        "at_reference": {"window_requests": WINDOW_REQUESTS, **ref},
        "op_samples": {"what": "measured phase 2 (closed loop) request "
                               "latency", **closed},
        "read_p50_ms": reads["p50_ms"], "read_p99_ms": reads["p99_ms"],
        "read_samples": {"what": "phase 1 read latency from its due "
                                 "instant", **reads},
        "lookup_samples": lookups,
        "phase2": {"wall_s": driven["phase2_wall_s"],
                   "completed": phase2_done,
                   "ops_per_s": phase2_done / driven["phase2_wall_s"]},
        "failed_ratio": failures.failed_ratio,
        "not_found_ratio": failures.not_found_ratio,
        "failures": failures.as_dict(),
        "server_gc": served["gc"],
        "log_ops": len(driven["log"]),
        "replay_parity": replayed["digest"] == served["digest"],
    }
    deterministic = {
        "targets": len(driven["reads"]),
        "digest": served["digest"],
        "sim.events": replayed["end"]["sim.events"],
        "statuses": {"open_loop": phase1.status_counts(),
                     "closed_loop": phase2.status_counts()},
    }
    result = {"correct": not problems, "problems": problems,
              "attempted": failures.attempted, "failed": failures.failed,
              "metrics": metrics, "details": details,
              "deterministic": deterministic}
    if trace:
        result["layers"] = _layers(seed, seconds, out_dir, driven, replayed,
                                   server_cpus)
        if not result["layers"].pop("parity"):
            result["correct"] = False
            problems.append("traced server's log replayed to another digest")
    return result


def _placement_problems(served: dict) -> List[str]:
    """The server must run on the load generator's one CPU."""
    mine = sorted(os.sched_getaffinity(0))
    if served["cpus"] != mine:
        return [f"server CPUs {served['cpus']} are not the load "
                f"generator's {mine}"]
    return []


def _pctl(values: List[float], q: float) -> float:
    return percentile(values, q)[0] if values else 0.0


def _layers(seed: int, seconds: float, out_dir: Path, untraced: dict,
            untraced_replay: dict, server_cpus: List[int]) -> dict:
    gc.collect()
    traced = _serve_once(seed, seconds, True, out_dir / "traced", 1,
                         server_cpus)
    replayed = _replay(seed, traced["log"])
    served = traced["served"]
    totals = served["layers"]
    queue_wait, sim_exec, reply_write, unattributed = [], [], [], []
    # Server-side decomposition and unattributed time come from the
    # untraced run; the traced run gives self time and counts.
    for phase in (untraced["phase1"], untraced["phase2"]):
        for request_id, roundtrip in phase.roundtrip_ms.items():
            record = untraced["served_records"].get(request_id)
            if record is None or record.get("reply_write_ms") is None:
                continue
            queue_wait.append(record["queue_wait_ms"])
            sim_exec.append(record["sim_exec_ms"])
            reply_write.append(record["reply_write_ms"])
            unattributed.append(roundtrip - record["queue_wait_ms"]
                                - record["sim_exec_ms"]
                                - record["reply_write_ms"])
    layers = {f"{layer}.self_s": totals["self_s"].get(layer, 0.0)
              for layer in LAYER_NAMES}
    counts = {k: untraced_replay["end"][k] - untraced_replay["phase1"][k]
              for k in untraced_replay["end"]}
    layers.update(counts)
    run_until = totals["calls"].get("Simulator.run_until", 0)
    untraced_ops = len(untraced["phase2"].answered) / untraced[
        "phase2_wall_s"]
    traced_ops = len(traced["phase2"].answered) / traced["phase2_wall_s"]
    layers.update({
        "sim.run_until_calls": run_until,
        "telemetry.samples": totals["calls"].get("ShardTelemetry.sample", 0),
        "bridge.run_until_per_op": run_until / max(
            1, len(served["records"])),
        "bridge.queue_wait_p99_ms": _pctl(queue_wait, 99),
        "bridge.sim_exec_p99_ms": _pctl(sim_exec, 99),
        "wire.reply_write_p99_ms": _pctl(reply_write, 99),
        "server.unattributed_p50_ms": _pctl(unattributed, 50),
        "server.unattributed_p99_ms": _pctl(unattributed, 99),
        "server.gc_pause_max_ms": untraced["served"]["gc"]["pause_max_ms"],
        "server.gen2_collections":
            untraced["served"]["gc"]["gen2_collections"],
        "loadgen.lag_p99_ms": _pctl(untraced["lag_ms"], 99),
        "trace.overhead_ratio": untraced_ops / traced_ops,
        "parity": replayed["digest"] == served["digest"],
    })
    return layers
