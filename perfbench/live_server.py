"""The ``gateway_live`` workload's server process.

    python3 perfbench/live_server.py --seed N --out DIR [--trace]

Builds the ``gateway`` scenario at 1,000 Things behind a free-paced
:class:`GatewayBridge`, applies the 2 s warm-up ``advance`` and serves
it with ``serve_forever`` on an ephemeral loopback port (the port is in
the line ``serve_forever`` prints).  Garbage-collector pauses are
recorded through ``gc.callbacks``.  With ``--trace`` the layer span
recorder is installed before anything is built.

Control lines on stdin:

``mark``  start the measured window: a full collection runs on the
          bridge thread (so every window starts from the same collector
          state), then GC figures, per-request records and spans
          recorded so far are dropped; answers ``marked``.
``stick`` time the host speed yardstick on the bridge thread; answers
          ``stick <seconds>``.
``stop``  shut the server down, write ``DIR/log.json`` (the bridge's
          request log) and ``DIR/result.json`` (``bridge.digest()``, GC
          figures, peak RSS, the CPUs it ran on, the yardstick timed
          before and after start-up, the per-request decomposition
          records and, when traced, the layer figures), then answer
          ``done``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from benchlib import spans, yardstick  # noqa: E402
from benchlib.oplog import WARMUP_NS  # noqa: E402
from benchlib.stats import peak_rss_mb  # noqa: E402


class GcPauses:
    """Collector pauses by generation, from ``gc.callbacks``."""

    def __init__(self) -> None:
        self._start = 0
        self.pauses = []  # (generation, pause_ns)

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter_ns()
        else:
            self.pauses.append((info["generation"],
                                time.perf_counter_ns() - self._start))

    def summary(self) -> dict:
        return {"collections": len(self.pauses),
                "gen2_collections": sum(1 for g, _ in self.pauses if g == 2),
                "pause_max_ms": max((p for _, p in self.pauses),
                                    default=0) / 1e6,
                "pause_total_ms": sum(p for _, p in self.pauses) / 1e6}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    startup_sticks = [yardstick.measure()]

    pauses = GcPauses()
    gc.callbacks.append(pauses)
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        spans.install(recorder)

    from benchlib.replay import scenario
    from repro.gateway.bridge import GatewayBridge, Op
    from repro.gateway.server import serve_forever

    bridge = GatewayBridge(scenario(args.seed))
    bridge.execute(Op("advance", value=WARMUP_NS, request_id="warmup"))
    startup_sticks.append(yardstick.measure())

    records = []
    record_reply = bridge.obs.record_reply

    def keep_reply(record, reply_ns: int) -> None:
        record_reply(record, reply_ns)
        if record is not None:
            records.append(record)

    bridge.obs.record_reply = keep_reply

    async def serve() -> None:
        loop = asyncio.get_running_loop()
        server = asyncio.ensure_future(serve_forever(bridge))
        try:
            while True:
                line = await loop.run_in_executor(None, sys.stdin.readline)
                command = line.strip()
                if command == "mark":
                    await asyncio.wrap_future(bridge.submit_call(gc.collect))
                    pauses.pauses.clear()
                    records.clear()
                    if recorder is not None:
                        recorder.reset()
                    print("marked")
                elif command == "stick":
                    stick = await asyncio.wrap_future(
                        bridge.submit_call(yardstick.measure))
                    print(f"stick {stick!r}")
                elif command == "stop" or not line:
                    break
        finally:
            server.cancel()
            try:
                await server
            except asyncio.CancelledError:
                pass

    try:
        asyncio.run(serve())
    finally:
        bridge.close()
        gc.callbacks.remove(pauses)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bridge.log.save(out / "log.json")
    result = {
        "digest": bridge.digest(),
        "gc": pauses.summary(),
        "peak_rss_mb": peak_rss_mb(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "startup_yardstick_s": startup_sticks,
        "records": [{key: record.get(key) for key in (
            "request_id", "kind", "status", "queue_wait_ms",
            "sim_exec_ms", "reply_write_ms")} for record in records],
    }
    if recorder is not None:
        result["layers"] = recorder.totals()
        spans.write_spans(out / "spans.jsonl", recorder.kept_spans(),
                          meta={"workload": "gateway_live",
                                "seed": args.seed})
    with open(out / "result.json", "w") as fh:
        json.dump(result, fh)
    print("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
