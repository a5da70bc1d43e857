"""Unit tests for :meth:`Simulator.stop` — ending a run at an event.

A completion-driven caller (the gateway bridge) raises ``stop()`` from
the callback it waits for; ``run_until`` must return right after that
event with the clock at its instant, leave every later event queued in
its original order, and leave no trace of the request behind.
"""

import hashlib

from repro.obs import Tracer
from repro.sim.kernel import NS_PER_MS, Simulator
from repro.snapshot.codec import dumps_state, loads_state


def _logging_sim(times_ms, *, stop_at=None, name=""):
    """A simulator with one logging event per entry of *times_ms*; the
    event at index *stop_at* also calls ``stop()``."""
    sim, log = Simulator(), []

    def fire(index):
        log.append((index, sim.now_ns))
        if index == stop_at:
            sim.stop()

    for index, t in enumerate(times_ms):
        sim.schedule(t * NS_PER_MS, lambda i=index: fire(i), name=name)
    return sim, log


def test_run_until_returns_right_after_the_stopping_event():
    sim, log = _logging_sim([1, 2, 3, 4], stop_at=1)
    ran = sim.run_until(10 * NS_PER_MS)
    assert ran == 2
    assert log == [(0, NS_PER_MS), (1, 2 * NS_PER_MS)]
    # The clock stays at the stopping event, not at the target.
    assert sim.now_ns == 2 * NS_PER_MS
    assert sim.pending_count() == 2


def test_later_same_instant_events_stay_queued_for_the_next_call():
    sim, log = _logging_sim([5, 5, 5, 6], stop_at=0)
    sim.run_until(5 * NS_PER_MS)
    assert [i for i, _ in log] == [0]
    assert sim.now_ns == 5 * NS_PER_MS
    # Same target again: the rest of the instant runs, in FIFO order.
    sim.run_until(5 * NS_PER_MS)
    assert [i for i, _ in log] == [0, 1, 2]
    sim.run_until(10 * NS_PER_MS)
    assert [i for i, _ in log] == [0, 1, 2, 3]
    assert sim.now_ns == 10 * NS_PER_MS


def test_stop_flag_is_cleared_on_return():
    sim, log = _logging_sim([1, 2, 3], stop_at=0)
    sim.run_until(10 * NS_PER_MS)
    assert not sim._stop_requested
    assert "_stop_requested" not in sim.__dict__
    # The next call is not stopped by the old request.
    sim.run_until(10 * NS_PER_MS)
    assert [i for i, _ in log] == [0, 1, 2]
    assert sim.now_ns == 10 * NS_PER_MS


def test_run_honours_stop_too():
    sim, log = _logging_sim([1, 2, 3], stop_at=1)
    assert sim.run() == 2
    assert "_stop_requested" not in sim.__dict__
    assert sim.run() == 1


def test_stop_inside_a_batch_drain_is_honoured():
    times = [5, 5, 5, 5, 7]
    batched, log = _logging_sim(times, stop_at=1, name="burst")
    batched.register_batch("burst")
    assert batched.run_until(10 * NS_PER_MS) == 2
    assert batched.now_ns == 5 * NS_PER_MS
    # The popped-but-unfired rest of the batch went back on the heap.
    assert batched.pending_count() == 3
    batched.run_until(10 * NS_PER_MS)

    stepped, reference = _logging_sim(times, stop_at=1, name="burst")
    stepped.run_until(10 * NS_PER_MS)
    stepped.run_until(10 * NS_PER_MS)
    assert log == reference
    assert batched._seq == stepped._seq


def test_cancel_inside_a_stopped_batch_does_not_resurrect_events():
    sim, log = Simulator(), []
    handles = []

    def first():
        log.append("first")
        handles[2].cancel()
        sim.stop()

    handles.append(sim.schedule(NS_PER_MS, first, name="burst"))
    for label in ("second", "third"):
        handles.append(sim.schedule(
            NS_PER_MS, lambda n=label: log.append(n), name="burst"))
    sim.register_batch("burst")
    sim.run_until(2 * NS_PER_MS)
    assert sim.pending_count() == 1
    sim.run_until(2 * NS_PER_MS)
    assert log == ["first", "second"]
    assert sim.pending_count() == 0


class _StubProfiler:
    """The three kernel-facing profiler hooks, counting calls."""

    def __init__(self):
        self.events = 0

    def on_schedule(self, name, delay_ns):
        pass

    def on_event(self, name, prev_ns, time_ns, wall_ns):
        self.events += 1

    def on_fast_forward(self, name, count, first_ns, last_ns):
        pass


def test_traced_and_profiled_simulators_honour_stop():
    for attach in ("tracer", "profiler", "both"):
        sim, log = _logging_sim([1, 2, 3], stop_at=0, name="tick")
        if attach in ("tracer", "both"):
            sim.attach_tracer(Tracer(sim))
        profiler = _StubProfiler()
        if attach in ("profiler", "both"):
            sim.attach_profiler(profiler)
        assert sim.run_until(10 * NS_PER_MS) == 1, attach
        assert sim.now_ns == NS_PER_MS
        assert profiler.events == (0 if attach == "tracer" else 1)
        assert "_stop_requested" not in sim.__dict__
        sim.run_until(10 * NS_PER_MS)
        assert [i for i, _ in log] == [0, 1, 2]


def _digest(sim, log) -> str:
    blob = repr((sim.now_ns, sim._seq, sim.pending_count(), log))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_checkpoint_after_a_stopped_drive_restores_and_continues():
    def build(stop=True):
        sim, log = Simulator(), []

        def tick(n):
            log.append((n, sim.now_ns))
            if n < 40:
                sim.schedule((n % 3 + 1) * NS_PER_MS, lambda: tick(n + 1),
                             name="tick")
            if stop and n == 7:
                sim.stop()

        sim.schedule(NS_PER_MS, lambda: tick(0), name="tick")
        sim.register_batch("tick")
        return sim, log

    sim, log = build()
    sim.run_until(100 * NS_PER_MS)
    stopped_at = sim.now_ns
    assert stopped_at < 100 * NS_PER_MS
    assert "_stop_requested" not in sim.snapshot_state()

    restored_sim, restored_log = loads_state(dumps_state((sim, log)))
    assert restored_sim.now_ns == stopped_at
    sim.run_until(200 * NS_PER_MS)
    restored_sim.run_until(200 * NS_PER_MS)
    assert _digest(restored_sim, restored_log) == _digest(sim, log)

    # And both match a run that was never stopped or checkpointed.
    straight, straight_log = build(stop=False)
    straight.run_until(stopped_at)
    straight.run_until(200 * NS_PER_MS)
    assert _digest(straight, straight_log) == _digest(sim, log)
