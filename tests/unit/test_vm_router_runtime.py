"""Unit tests for the event router, driver runtime and cost calibration."""

import pytest

from repro.dsl.compiler import compile_source
from repro.dsl.bytecode import Op
from repro.sim.kernel import Simulator
from repro.vm.cost import DEFAULT_COST, POP_CYCLES, PUSH_CYCLES
from repro.vm.machine import ReturnValue, VirtualMachine, VmTrap
from repro.vm.router import CallbackDelivery, EventRouter
from repro.vm.runtime import DriverRuntime


# ------------------------------------------------------------------- cost §6.2
def test_cost_calibration_matches_paper():
    assert DEFAULT_COST.average_instruction_seconds() * 1e6 == pytest.approx(
        39.7, abs=0.2
    )
    assert DEFAULT_COST.push_seconds * 1e6 == pytest.approx(11.1, abs=0.1)
    assert DEFAULT_COST.pop_seconds * 1e6 == pytest.approx(8.9, abs=0.1)
    assert DEFAULT_COST.router_dispatch_seconds * 1e6 == pytest.approx(
        77.79, abs=0.2
    )


def test_every_opcode_has_a_cost():
    for op in Op:
        assert DEFAULT_COST.cycles(op) > 0


# --------------------------------------------------------------------- router
def test_router_dispatches_fifo():
    sim = Simulator()
    router = EventRouter(sim)
    order = []
    for name in "abc":
        router.post(CallbackDelivery(lambda n=name: order.append(n), cycles=0))
    sim.run()
    assert order == ["a", "b", "c"]


def test_error_events_prioritized():
    sim = Simulator()
    router = EventRouter(sim)
    order = []
    # Post regulars then an error before the router starts draining.
    router.post(CallbackDelivery(lambda: order.append("r1"), cycles=0))
    router.post(CallbackDelivery(lambda: order.append("r2"), cycles=0))
    router.post(CallbackDelivery(lambda: order.append("err"), cycles=0), error=True)
    sim.run()
    assert order[0] == "err"
    assert order[1:] == ["r1", "r2"]


def test_router_run_to_completion_serializes():
    """An event posted during a handler runs only after it completes."""
    sim = Simulator()
    router = EventRouter(sim)
    times = []

    def first():
        router.post(CallbackDelivery(lambda: times.append(("second", sim.now_us)),
                                     cycles=0))

    router.post(CallbackDelivery(first, cycles=16000))  # 1 ms handler
    sim.run()
    assert times[0][1] >= 1000.0  # second ran after first's 1 ms


def test_router_queue_limit_drops():
    sim = Simulator()
    router = EventRouter(sim, queue_limit=2)
    accepted = [router.post(CallbackDelivery(lambda: None, cycles=0))
                for _ in range(4)]
    assert accepted == [True, True, False, False]
    assert router.dropped == 2


def test_router_busy_time_matches_dispatch_cost():
    sim = Simulator()
    router = EventRouter(sim)
    router.post(CallbackDelivery(lambda: None, cycles=0))
    sim.run()
    assert router.stats.busy_seconds == pytest.approx(
        DEFAULT_COST.router_dispatch_seconds
    )


def test_router_records_traps_and_continues():
    sim = Simulator()
    router = EventRouter(sim)

    class Exploding:
        def execute(self):
            raise VmTrap("boom")

        def describe(self):
            return "exploding"

    survived = []
    router.post(Exploding())
    router.post(CallbackDelivery(lambda: survived.append(True), cycles=0))
    sim.run()
    assert router.stats.traps == ["exploding: boom"]
    assert survived == [True]


# -------------------------------------------------------------- driver runtime
COUNTER_DRIVER = """\
int32_t count;
event init():
    count = 100;
event destroy():
    count = 0;
event read():
    count++;
    return count;
event write(int32_t value):
    count = value;
"""


def make_runtime(source=COUNTER_DRIVER):
    sim = Simulator()
    router = EventRouter(sim)
    image = compile_source(source, device_id=5)
    runtime = DriverRuntime(image, {}, router, VirtualMachine())
    return sim, router, runtime


def test_activate_fires_init():
    sim, _, runtime = make_runtime()
    runtime.activate()
    sim.run()
    assert runtime.instance.scalar(0) == 100


def test_read_request_completes_with_returned_value():
    sim, _, runtime = make_runtime()
    runtime.activate()
    results = []
    assert runtime.request_read(results.append)
    sim.run()
    assert results == [ReturnValue(scalar=101)]
    assert runtime.pending_requests == 0


def test_reads_complete_fifo():
    sim, _, runtime = make_runtime()
    runtime.activate()
    results = []
    runtime.request_read(lambda rv: results.append(("first", rv.scalar)))
    runtime.request_read(lambda rv: results.append(("second", rv.scalar)))
    sim.run()
    assert results == [("first", 101), ("second", 102)]


def test_write_request_acks_on_completion():
    sim, _, runtime = make_runtime()
    runtime.activate()
    acks = []
    runtime.request_write(42, acks.append)
    sim.run()
    assert acks == [None]  # handler returned nothing: plain ack
    assert runtime.instance.scalar(0) == 42


def test_request_against_missing_handler_fails_fast():
    source = "int32_t x;\nevent init():\n    x = 1;\nevent destroy():\n    x = 0;\n"
    sim, _, runtime = make_runtime(source)
    runtime.activate()
    sim.run()
    assert not runtime.request_read(lambda rv: None)


def test_read_ignored_at_the_fifo_head_fails_at_once():
    # A driver not ready yet ignores the read: nothing in flight could
    # ever return for it, so it completes with None instead of waiting.
    source = ("bool ready;\nevent init():\n    ready = false;\n"
              "event destroy():\n    ready = false;\n"
              "event read():\n    if ready:\n        return 1;\n")
    sim, _, runtime = make_runtime(source)
    runtime.activate()
    results = []
    assert runtime.request_read(results.append)
    sim.run()
    assert results == [None]
    assert runtime.pending_requests == 0


def test_requests_refused_when_the_router_queue_is_full():
    sim = Simulator()
    router = EventRouter(sim, queue_limit=1)
    runtime = DriverRuntime(compile_source(COUNTER_DRIVER, device_id=5),
                            {}, router, VirtualMachine())
    assert router.post(CallbackDelivery(lambda: None, cycles=0))
    assert not runtime.request_read(lambda rv: None)
    assert not runtime.request_write(1, lambda rv: None)
    assert runtime.pending_requests == 0


def test_deactivate_fires_destroy_and_flushes_pending():
    sim, _, runtime = make_runtime()
    runtime.activate()
    sim.run()
    flushed = []
    # A read that will never return (driver is being torn down first).
    runtime._pending.append(flushed.append)
    runtime.deactivate()
    sim.run()
    assert flushed == [None]
    assert runtime.instance.scalar(0) == 0  # destroy ran


def test_unsolicited_return_counted():
    source = COUNTER_DRIVER + "event tick():\n    return count;\n"
    sim, _, runtime = make_runtime(source)
    runtime.activate()
    runtime.post_event("tick")
    sim.run()
    assert runtime.unsolicited_returns == 1


def test_unknown_event_name_raises():
    _, _, runtime = make_runtime()
    with pytest.raises(KeyError):
        runtime.post_event("nonexistentEvent")


def test_handler_execution_advances_simulated_time():
    sim, router, runtime = make_runtime()
    runtime.activate()
    sim.run()
    # init dispatch: router cost + a few instructions, at 16 MHz.
    assert sim.now_us > 77.0
    assert router.stats.dispatched == 1
