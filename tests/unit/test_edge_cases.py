"""Edge-case tests across modules (limits, misuse, rare paths)."""

import pytest

from repro.dsl.checker import MAX_ARRAY_LENGTH
from repro.dsl.compiler import compile_source
from repro.dsl.errors import SemanticError
from repro.sim.kernel import Simulator


BASE = "event init():\n    x = 1;\nevent destroy():\n    x = 0;\n"


# ------------------------------------------------------------------ DSL limits
def test_array_length_limit_enforced():
    with pytest.raises(SemanticError, match="array too long"):
        compile_source(f"int32_t x;\nuint8_t big[{MAX_ARRAY_LENGTH + 1}];\n"
                       + BASE)


def test_array_at_limit_compiles():
    image = compile_source(
        f"int32_t x;\nuint8_t big[{MAX_ARRAY_LENGTH}];\n"
        "event init():\n    big[0] = 1;\n"
        "event destroy():\n    x = 0;\n"
    )
    assert image.ram_bytes >= MAX_ARRAY_LENGTH


def test_many_globals_compile():
    decls = "\n".join(f"int32_t v{i};" for i in range(50))
    body = "".join(f"    v{i} = {i};\n" for i in range(50))
    source = (f"{decls}\n"
              f"event init():\n{body}"
              "event destroy():\n    v0 = 0;\n")
    image = compile_source(source)
    assert len(image.slots) == 50


def test_deeply_nested_blocks_compile_and_run():
    from repro.dsl.bytecode import HANDLER_KIND_EVENT
    from repro.vm.machine import DriverInstance, VirtualMachine

    depth = 12
    lines = ["int32_t x;", "event init():"]
    for level in range(depth):
        lines.append("    " * (level + 1) + f"if x < {level + 1}:")
        lines.append("    " * (level + 2) + "x++;")
    lines.append("event destroy():")
    lines.append("    x = 0;")
    image = compile_source("\n".join(lines) + "\n")
    instance = DriverInstance(image)
    VirtualMachine().execute(instance, image.find_handler(HANDLER_KIND_EVENT, 0),
                             (), signal_sink=lambda *a: None)
    assert instance.scalar(0) == depth


# ------------------------------------------------------------------- sim edge
def test_simulator_interleaved_cancel_and_fire():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(10 + i, lambda i=i: fired.append(i))
               for i in range(10)]
    for handle in handles[::2]:
        handle.cancel()
    sim.run()
    assert fired == [1, 3, 5, 7, 9]


def test_simulator_event_scheduling_from_trace_hook_is_safe():
    from .test_sim_kernel import EventRecorder

    sim = Simulator()
    recorder = EventRecorder()
    sim.attach_profiler(recorder)
    sim.schedule(1, lambda: None, name="only")
    sim.run()
    assert [name for _, name in recorder.log] == ["only"]


# --------------------------------------------------------------- stack misuse
def test_stack_unbind_then_no_socket():
    from repro.net.network import Network
    from repro.net.stack import NetworkStack

    sim = Simulator()
    net = Network(sim)
    a = NetworkStack(net, 0)
    b = NetworkStack(net, 1)
    net.connect(0, 1)
    b.bind(6030, lambda d: None)
    b.unbind(6030)
    a.sendto(b.address, 6030, b"x", src_port=6030)
    sim.run()
    assert b.stats.no_socket == 1


# -------------------------------------------------------------- thing channels
def test_plug_into_occupied_channel_raises():
    from repro.drivers.catalog import make_peripheral_board
    from repro.hw.control_board import ChannelError
    from tests.integration.conftest import build_world

    world = build_world(seed=3)
    world.thing.plug(make_peripheral_board("tmp36",
                                           rng=world.rng.stream("a")),
                     channel=0)
    with pytest.raises(ChannelError):
        world.thing.plug(make_peripheral_board("bmp180",
                                               rng=world.rng.stream("b")),
                         channel=0)


def test_unplug_empty_channel_raises():
    from repro.hw.control_board import ChannelError
    from tests.integration.conftest import build_world

    world = build_world(seed=4)
    with pytest.raises(ChannelError):
        world.thing.unplug(2)


# --------------------------------------------------------------- manager edges
def test_manager_ignores_unmatched_replies():
    from repro.protocol.messages import DriverRemovalAck
    from repro.net.packets import UPNP_PORT
    from tests.integration.conftest import build_world

    from repro.hw.device_id import DeviceId

    world = build_world(seed=5)
    stray = DriverRemovalAck(999, DeviceId(1), 0)
    world.client.stack.sendto(world.manager.address, UPNP_PORT,
                              stray.encode(), src_port=UPNP_PORT)
    world.run(1.0)  # no exception, nothing pending: silently ignored
