"""``Simulator.events_executed`` counts every executed callback exactly.

One small world — two independent certified samplers (one with a bulk
applier), an ordered certified observer and an uncertified, batchable
burst chain — runs under every kernel path that executes events.  Each
callback adds one to a shared tally; the kernel count must equal the
tally at the end, and every callback that runs in merged order (so
all but the bulk-applied independent occurrences) must see the count
already include itself and nothing later.
"""

from __future__ import annotations

import pytest

from repro.obs.tracer import Tracer
from repro.sim.kernel import NS_PER_MS, Simulator
from repro.snapshot.codec import dumps_state, loads_state

from .test_sim_kernel import EventRecorder

HORIZON_NS = 1_500 * NS_PER_MS


class World:
    def __init__(self, *, stop_at: int = 0) -> None:
        self.sim = Simulator()
        self.tally = 0
        #: ``events_executed - tally`` seen inside in-order callbacks.
        self.lags: list = []
        self.bursts = 0
        self.stop_at = stop_at
        sim = self.sim
        sim.every(7 * NS_PER_MS, self.count, name="sampler-a",
                  fast_forward=True, bulk=self.count_many)
        sim.every(13 * NS_PER_MS, self.count, name="sampler-b",
                  fast_forward=True)
        sim.every(29 * NS_PER_MS, self.observe, name="observer",
                  fast_forward=True, independent=False)
        for _ in range(3):
            sim.schedule(200 * NS_PER_MS, self.burst, name="burst")

    def count(self) -> None:
        self.tally += 1

    def count_many(self, n: int) -> None:
        self.tally += n

    def observe(self) -> None:
        self.lags.append(self.sim.events_executed - self.tally)
        self.tally += 1

    def burst(self) -> None:
        # Rounds of three same-instant bursts, 400 ms apart: each round
        # is one batch drain's run when "burst" is batched.
        self.observe()
        self.bursts += 1
        if self.stop_at and self.bursts == self.stop_at:
            self.sim.stop()
        if self.bursts % 3 == 0:
            for _ in range(3):
                self.sim.schedule(400 * NS_PER_MS, self.burst, name="burst")


def _run(world: World) -> int:
    ran = 0
    while world.sim.now_ns < HORIZON_NS:
        ran += world.sim.run_until(HORIZON_NS)
    return ran


def _reference() -> World:
    world = World()
    _run(world)
    return world


MODES = ("stepped", "fast_forward", "batch", "tracer", "profiler",
         "tracer+profiler", "stop_mid_batch", "restore_mid_window")


@pytest.mark.parametrize("mode", MODES)
def test_events_executed_counts_every_callback(mode):
    world = World(stop_at=4 if mode == "stop_mid_batch" else 0)
    sim = world.sim
    if mode in ("fast_forward", "restore_mid_window"):
        sim.enable_fast_forward()
    if mode in ("batch", "stop_mid_batch"):
        sim.register_batch("burst")
    if "tracer" in mode:
        sim.attach_tracer(Tracer(sim))
    if "profiler" in mode:
        sim.attach_profiler(EventRecorder())
    ran = 0
    if mode == "restore_mid_window":
        # Between two burst rounds, off every sampler's grid: inside
        # a fast-forwarded window.
        ran = sim.run_until(302 * NS_PER_MS + 13_000)
        assert sim.ff_events > 0
        world = loads_state(dumps_state(world))
        sim = world.sim
    ran += _run(world)

    assert sim.events_executed == world.tally
    assert ran == world.tally
    assert set(world.lags) == {1}
    reference = _reference()
    assert sim.events_executed == reference.sim.events_executed
    assert world.lags == reference.lags
    if mode in ("fast_forward", "restore_mid_window"):
        assert sim.ff_events > 0
    assert world.bursts == reference.bursts > 6


def test_plain_run_counts_like_run_until():
    sim = Simulator()
    for delay in (1, 1, 2, 5):
        sim.schedule(delay, lambda: None)
    assert sim.run(max_events=3) == 3
    assert sim.events_executed == 3
    sim.schedule(1, lambda: None).cancel()
    assert sim.run() == 1
    assert sim.events_executed == 4
