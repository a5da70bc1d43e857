"""Regression: a read that reaches a driver still in ``init`` must complete.

Re-uploading a driver hot-swaps the active runtime: the old one is
destroyed and, after the activation delay, the new one runs ``init``.
The BMP180's ``init`` is an I2C chain (calibration EEPROM read) that
takes a few milliseconds, and its ``read`` handler ignores a request
until that chain is done.  A remote read arriving in that window used
to be queued in the runtime's return FIFO and never answered: the
Thing's reply cache held the request in flight forever, so every
client retransmission was dropped as a duplicate and the read timed
out (seen on ``gateway_replay`` seed 5 as a 504).  A declined read now
completes at once with an error reply.
"""

from repro.drivers.catalog import CATALOG, make_peripheral_board
from repro.peripherals import Environment
from repro.sim.kernel import NS_PER_MS, ns_from_s

BMP180 = CATALOG["bmp180"].device_id
#: Read sent this long after the re-upload is installed: it reaches
#: the new runtime a few ms after activation, inside its ``init``.
MID_INIT_DELAY_NS = 28 * NS_PER_MS


def _bmp180_world(world):
    board = make_peripheral_board("bmp180", Environment(),
                                  rng=world.rng.stream("mfg"))
    world.thing.plug(board)
    world.run(3.0)
    assert world.thing.drivers.runtime_for(BMP180) is not None
    return world


def test_read_landing_in_init_after_reupload_gets_a_reply(world):
    _bmp180_world(world)
    replies, sent = [], []

    def on_event(event):
        if event.kind == "driver-installed":
            def send():
                sent.append(world.sim.now_ns)
                world.client.read(
                    world.thing.address, BMP180,
                    lambda value: replies.append((world.sim.now_ns, value)),
                    timeout_s=1.0)
            world.sim.schedule(MID_INIT_DELAY_NS, send)

    world.thing.add_listener(on_event)
    assert world.manager.push_driver(world.thing.address, BMP180)
    world.run(3.0)

    activated = ns_from_s(world.thing.events_of("driver-activated")[-1].time_s)
    assert len(sent) == 1 and len(replies) == 1
    replied_at, value = replies[0]
    # Sent before the new runtime came up and answered after it, well
    # inside the 1 s timeout: an error reply (not ready), not a timeout.
    assert sent[0] < activated < replied_at < sent[0] + 100 * NS_PER_MS
    assert value is not None and not value.ok
    assert world.thing.events_of("dup-request-suppressed") == []
    runtime = world.thing.drivers.runtime_for(BMP180)
    assert runtime.pending_requests == 0

    # The driver is healthy afterwards: the next read returns a value.
    later = []
    world.client.read(world.thing.address, BMP180, later.append,
                      timeout_s=1.0)
    world.run(1.0)
    assert later and later[0] is not None and later[0].ok


def test_ignored_read_behind_an_outstanding_one_keeps_its_place(world):
    # Only a read ignored at the head of the return FIFO is failed: one
    # queued behind a read in flight waits for the next return, as a
    # busy RFID reader's waiters are answered card by card.
    _bmp180_world(world)
    first, second = [], []
    assert world.thing.read_local(BMP180, first.append)
    assert world.thing.read_local(BMP180, second.append)
    world.run(1.0)
    assert len(first) == 1 and first[0] is not None
    assert second == []
    assert world.thing.drivers.runtime_for(BMP180).pending_requests == 1
