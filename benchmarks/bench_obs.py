"""Engineering bench: tracing overhead in disabled and enabled modes.

The tracing subsystem promises zero kernel cost when off.  The kernel
keeps its hot paths literally branch-free until a tracer attaches
(:meth:`Simulator.attach_tracer` shadows ``step`` / ``schedule_at``
with the instrumented pair on that instance only), and every other
layer guards its hooks with one ``sim.tracer`` attribute check.

This bench checks the promise and reports what tracing costs when on:

1. **Structural check (gate).**  With no tracer or profiler attached —
   on a bare simulator, on a fleet shard, and after a tracer detaches —
   ``step`` / ``schedule_at`` are not in the simulator's ``__dict__``,
   so the kernel runs the plain class methods: disabled-mode overhead
   is zero by construction, not by a timing that noise can flip.

2. **Merged metrics identical across modes (gate).**  One serial fleet
   smoke sweep, disabled vs tracing enabled: the merged metrics
   (``sim.events`` included) must be bit-identical, since
   instrumentation must never perturb simulated behaviour.

3. **Enabled-mode cost (reported).**  A tight schedule/dispatch loop
   and the fleet sweep, each timed with and without a tracer,
   alternating modes each round, min of N.

    PYTHONPATH=src python benchmarks/bench_obs.py [--fast] [--out PATH]

Writes ``BENCH_obs.json``; exits 1 if either gate fails.
"""

from __future__ import annotations

import argparse
import json
import time
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.fleet.deployment import ShardDeployment  # noqa: E402
from repro.fleet.runner import run_scenario  # noqa: E402
from repro.fleet.scenario import SCENARIOS  # noqa: E402
from repro.obs.tracer import install_tracer  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


# ------------------------------------------------------ structural check
def _plain(sim: Simulator) -> bool:
    return "step" not in sim.__dict__ and "schedule_at" not in sim.__dict__


def disabled_kernel_is_plain() -> bool:
    """Without a tracer or profiler the kernel runs its class methods."""
    bare = Simulator()
    scenario = SCENARIOS["smoke"].scaled(things=2, shard_size=2,
                                         duration_s=1.0)
    shard = ShardDeployment(scenario.shards()[0])
    detached = Simulator()
    install_tracer(detached)
    traced_bound = not _plain(detached)
    detached.detach_tracer()
    return (traced_bound and _plain(bare) and _plain(detached)
            and _plain(shard.sim) and shard.sim.tracer is None
            and shard.sim.profiler is None)


# --------------------------------------------------- kernel microbench
def _drive_kernel(events: int, *, trace: bool) -> float:
    """Wall seconds to schedule+dispatch a chain of *events* events."""
    sim = Simulator()
    if trace:
        # Default categories exclude "kernel", matching fleet --trace.
        install_tracer(sim, limit=10_000)
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < events:
            sim.schedule(10, tick)

    sim.schedule(10, tick)
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started


def kernel_bench(events: int, rounds: int) -> dict:
    best = {"disabled": None, "enabled": None}

    def note(mode: str, wall: float) -> None:
        if best[mode] is None or wall < best[mode]:
            best[mode] = wall

    _drive_kernel(events, trace=False)  # warm-up
    for _ in range(rounds):
        note("disabled", _drive_kernel(events, trace=False))
        note("enabled", _drive_kernel(events, trace=True))
    return best


# ------------------------------------------------------ fleet workload
def fleet_bench(things: int, duration_s: float, seed: int,
                rounds: int) -> dict:
    def run(trace: bool) -> dict:
        scenario = SCENARIOS["smoke"].scaled(
            things=things, duration_s=duration_s, seed=seed, trace=trace,
        )
        return run_scenario(scenario, workers=1)

    best = {"disabled": None, "enabled": None}
    merged = {}
    run(False)  # warm-up
    for _ in range(rounds):
        for mode, trace in (("disabled", False), ("enabled", True)):
            started = time.perf_counter()
            result = run(trace)
            wall = time.perf_counter() - started
            if best[mode] is None or wall < best[mode]:
                best[mode] = wall
            merged[mode] = result.merged
    best["metrics_identical"] = (
        merged["disabled"] == merged["enabled"]
        and merged["disabled"]["counters"].get("sim.events", 0) > 0)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true",
                        help="fewer rounds / smaller workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="where to write BENCH_obs.json")
    args = parser.parse_args(argv)
    kernel_events = 100_000 if args.fast else 300_000
    kernel_rounds = 5 if args.fast else 9
    fleet_rounds = 2 if args.fast else 3
    fleet_things = 10 if args.fast else 25

    structural = disabled_kernel_is_plain()
    print(f"disabled kernel runs the plain step/schedule_at: "
          f"{'yes' if structural else 'NO'}")

    kernel = kernel_bench(kernel_events, kernel_rounds)
    enabled_overhead = (
        (kernel["enabled"] - kernel["disabled"]) / kernel["disabled"])
    print(f"kernel hot path ({kernel_events:,} events, min of "
          f"{kernel_rounds} alternating rounds):")
    print(f"  disabled (no tracer):  {kernel['disabled']:7.3f} s")
    print(f"  enabled (tracer on):   {kernel['enabled']:7.3f} s  "
          f"overhead {enabled_overhead * 100:+.2f}%")

    fleet = fleet_bench(fleet_things, 10.0, args.seed, fleet_rounds)
    fleet_enabled_overhead = (
        (fleet["enabled"] - fleet["disabled"]) / fleet["disabled"])
    print(f"fleet smoke workload ({fleet_things} things):")
    print(f"  disabled: {fleet['disabled']:7.3f} s   "
          f"enabled: {fleet['enabled']:7.3f} s  "
          f"({fleet_enabled_overhead * 100:+.2f}%)")
    print(f"  merged metrics identical across modes: "
          f"{'yes' if fleet['metrics_identical'] else 'NO'}")

    passed = structural and fleet["metrics_identical"]
    document = {
        "bench": "obs",
        "seed": args.seed,
        "disabled_structural": structural,
        "kernel": {
            "events": kernel_events,
            "rounds": kernel_rounds,
            "disabled_wall_s": round(kernel["disabled"], 4),
            "enabled_wall_s": round(kernel["enabled"], 4),
        },
        "fleet": {
            "things": fleet_things,
            "rounds": fleet_rounds,
            "disabled_wall_s": round(fleet["disabled"], 4),
            "enabled_wall_s": round(fleet["enabled"], 4),
            "enabled_overhead": round(fleet_enabled_overhead, 4),
            "metrics_identical": fleet["metrics_identical"],
        },
        "enabled_overhead": round(enabled_overhead, 4),
        "passed": passed,
    }
    Path(args.out).write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not structural:
        print("FAIL: a simulator without a tracer or profiler has "
              "instance step/schedule_at bindings", file=sys.stderr)
    if not fleet["metrics_identical"]:
        print("FAIL: tracing changed the merged simulation metrics — "
              "instrumentation must never perturb behaviour",
              file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
