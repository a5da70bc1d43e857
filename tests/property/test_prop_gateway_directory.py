"""Property test: the cached ``GET /things`` directory is never stale.

Random sequences of fleet advances, driver installs and churn the
service never sees (plugs, unplugs, crashes, reboots) interleave with
listings; after every step the listing's pre-encoded bytes must equal
the canonical encoding of the rows rebuilt from scratch, and decode to
the returned body.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.drivers.catalog import CATALOG, make_peripheral_board
from repro.fleet.scenario import SCENARIOS
from repro.gateway.bridge import GatewayBridge, Op
from repro.gateway.thing_description import directory_entry
from repro.gateway.wire import response_bytes

SCENARIO = SCENARIOS["gateway"].scaled(things=4, shard_size=2, seed=9)
KEYS = sorted(CATALOG)

_thing_ids = st.integers(min_value=0, max_value=3)
STEPS = st.one_of(
    st.tuples(st.just("advance"),
              st.integers(min_value=1_000_000, max_value=4_000_000_000)),
    st.tuples(st.just("install"), _thing_ids, st.sampled_from(KEYS)),
    st.tuples(st.just("plug"), _thing_ids, st.sampled_from(KEYS)),
    st.tuples(st.just("unplug"), _thing_ids),
    st.tuples(st.just("crash"), _thing_ids),
    st.tuples(st.just("reboot"), _thing_ids),
)


def _thing(bridge, gid):
    deployment, local = bridge._things[gid]
    return deployment.things[local]


def _apply(bridge, step) -> None:
    kind = step[0]
    if kind == "advance":
        bridge.execute(Op("advance", value=step[1]))
    elif kind == "install":
        bridge.execute(Op("install", thing=step[1], name=step[2]))
    else:
        thing = _thing(bridge, step[1])
        if kind == "plug":
            channel = thing.board.free_channel()
            if channel is not None:
                thing.plug(make_peripheral_board(step[2]), channel)
        elif kind == "unplug":
            occupied = thing.board.occupied_channels()
            if occupied:
                thing.unplug(occupied[0])
        elif kind == "crash":
            thing.crash()
        else:
            thing.reboot()


@given(st.lists(STEPS, min_size=1, max_size=12))
@settings(max_examples=25, deadline=None)
def test_cached_directory_equals_a_fresh_rebuild(steps):
    bridge = GatewayBridge(SCENARIO)
    try:
        for step in [("advance", 1_500_000_000)] + steps:
            _apply(bridge, step)
            result = bridge.execute(Op("list"))
            fresh = [directory_entry(gid, len(_thing(bridge, gid)
                                              .connected_peripherals()))
                     for gid in sorted(bridge._things)]
            assert (response_bytes(200, result.encoded)
                    == response_bytes(200, {"things": fresh}))
            assert json.loads(result.encoded) == result.body
    finally:
        bridge.close()
