"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``fleet_metro`` (batch fleet run on a process pool),
``gateway_replay`` (seeded op log through a thread-less bridge) and
``gateway_live`` (the fleet served over loopback HTTP).  Every metric is
printed by name with its unit, then the run's deterministic outputs, and
last one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  See ``perfbench/README.md``.

Run it from the root of a checkout; it builds nothing and writes only
under ``.perfbench_out/`` there.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("fleet_metro", "gateway_replay", "gateway_live")

#: End-to-end metrics every workload reports (with ``--trace 0``).
END_TO_END = ("setup_s", "sim_events_per_s", "ops_per_s", "op_p50_ms",
              "op_p99_ms", "peak_rss_mb")

#: Per-layer metrics (with ``--trace 1``) and their units.  A layer a
#: workload does not exercise reports 0.
PER_LAYER = (
    ("sim.events", "count"), ("sim.run_until_calls", "count"),
    ("sim.self_s", "s"),
    ("net.frames", "count"), ("net.bytes", "count"), ("net.self_s", "s"),
    ("protocol.retransmits", "count"), ("protocol.self_s", "s"),
    ("hw.identifications", "count"), ("hw.self_s", "s"),
    ("core.self_s", "s"),
    ("vm.dispatched", "count"), ("vm.cycles", "count"), ("vm.self_s", "s"),
    ("telemetry.samples", "count"), ("telemetry.self_s", "s"),
    ("fleet.self_s", "s"),
    ("bridge.run_until_per_op", "calls/op"), ("bridge.self_s", "s"),
    ("bridge.queue_wait_p99_ms", "ms"), ("bridge.sim_exec_p99_ms", "ms"),
    ("obs.self_s", "s"),
    ("wire.reply_write_p99_ms", "ms"),
    ("server.unattributed_p50_ms", "ms"),
    ("server.unattributed_p99_ms", "ms"),
    ("server.gc_pause_max_ms", "ms"), ("server.gen2_collections", "count"),
    ("fleet.fanout_overhead_s", "s"), ("fleet.merge_s", "s"),
    ("loadgen.lag_p99_ms", "ms"), ("trace.overhead_ratio", "ratio"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}; run from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from benchlib import fleet, live, replay
    from benchlib.stats import host_facts

    module = {"fleet_metro": fleet, "gateway_replay": replay,
              "gateway_live": live}[args.workload]
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    result = module.run(args.seed, args.seconds, bool(args.trace), out_dir)

    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("host " + json.dumps(host_facts(), sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    details = result["details"]
    for name in ("read_p50_ms", "read_p99_ms"):
        if name in details:
            print(f"metric {name} = {details[name]:.6g} ms")
    print(f"metric failed_ratio = {details['failed_ratio']:.6g} ratio")
    print("deterministic " + json.dumps(result["deterministic"],
                                        sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    for problem in result["problems"]:
        print(f"problem {problem}")

    if args.trace:
        layers = result["layers"]
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            print(f"layer {name} = {layers.get(name, 0):.6g} {unit}")
    else:
        metrics = {name: {"value": result["metrics"][name][0],
                          "unit": result["metrics"][name][1]}
                   for name in END_TO_END}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
