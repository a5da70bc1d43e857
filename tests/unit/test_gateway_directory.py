"""Unit tests: the bridge's change-driven ``GET /things`` directory.

The directory keeps one pre-encoded row per Thing and re-encodes a row
only when its Thing's identified peripheral map was replaced.  Every
test here checks the listing against the rows rebuilt from scratch, so
a row that fails to go stale shows up as a byte difference.
"""

import dataclasses
import json

from repro.drivers.catalog import make_peripheral_board
from repro.fleet.scenario import SCENARIOS
from repro.gateway import bridge as bridge_module
from repro.gateway.bridge import GatewayBridge, Op
from repro.gateway.thing_description import directory_entry
from repro.gateway.wire import response_bytes
from repro.snapshot.checkpoint import load_shard, save_shard
from repro.snapshot.codec import dumps_state

SCENARIO = SCENARIOS["gateway"].scaled(things=4, shard_size=2, seed=5)
#: The same fleet without churn after the first plugs, so only the
#: tests' own plugs, unplugs and crashes change a Thing's peripherals.
CALM = dataclasses.replace(
    SCENARIO, churn=dataclasses.replace(SCENARIO.churn,
                                        churn_interval_s=1e9))
WARMUP_NS = 2_000_000_000


def _thing(bridge, gid):
    deployment, local = bridge._things[gid]
    return deployment, deployment.things[local]


def fresh_payload(bridge) -> bytes:
    """``GET /things`` as rebuilt from scratch from every Thing."""
    rows = [directory_entry(gid, len(_thing(bridge, gid)[1]
                                     .connected_peripherals()))
            for gid in sorted(bridge._things)]
    return response_bytes(200, {"things": rows})


def listing(bridge):
    result = bridge.execute(Op("list"))
    assert result.status == 200
    assert response_bytes(200, result.encoded) == fresh_payload(bridge)
    assert json.loads(result.encoded) == result.body
    return result


def counts(result):
    return [row["peripherals"] for row in result.body["things"]]


def run_shard(bridge, gid, ns=1_000_000_000):
    deployment, _ = _thing(bridge, gid)
    deployment.sim.run_until(deployment.sim.now_ns + ns)


def test_listing_before_and_after_identification():
    bridge = GatewayBridge(SCENARIO)
    before = listing(bridge)
    assert counts(before) == [0, 0, 0, 0]
    assert before.encoded.startswith(b'{"things":[{"href":"/things/0",')
    bridge.execute(Op("advance", value=WARMUP_NS))
    after = listing(bridge)
    assert sum(counts(after)) > 0
    bridge.close()


def test_plug_unplug_and_reidentification_invalidate_only_their_row():
    bridge = GatewayBridge(CALM)
    bridge.execute(Op("advance", value=WARMUP_NS))
    base = listing(bridge)
    rows = list(bridge._directory)
    fragments = [row.fragment for row in rows]
    _, thing = _thing(bridge, 0)
    channel = thing.plug(make_peripheral_board("relay"),
                         thing.board.free_channel())

    # Plugged but not yet identified: the directory shows the
    # identified map, so nothing has changed yet.
    assert listing(bridge).encoded is base.encoded

    run_shard(bridge, 0)
    plugged = listing(bridge)
    assert counts(plugged)[0] == counts(base)[0] + 1
    assert counts(plugged)[1:] == counts(base)[1:]
    assert rows[0].fragment is not fragments[0]
    assert all(a is b for a, b in zip([r.fragment for r in rows[1:]],
                                      fragments[1:]))

    # Re-identification that finds the same boards replaces the map
    # (the stamp moves) but re-encodes nothing.
    stamp = thing.controller.known_map
    fragment = rows[0].fragment
    thing.controller.trigger()
    run_shard(bridge, 0)
    assert thing.controller.known_map is not stamp
    again = listing(bridge)
    assert again.encoded is plugged.encoded
    assert rows[0].fragment is fragment

    thing.unplug(channel)
    run_shard(bridge, 0)
    assert counts(listing(bridge)) == counts(base)
    bridge.close()


def test_crash_reset_and_reboot_invalidate_the_row():
    bridge = GatewayBridge(CALM)
    bridge.execute(Op("advance", value=WARMUP_NS))
    base = listing(bridge)
    gid = next(i for i, n in enumerate(counts(base)) if n > 0)
    _, thing = _thing(bridge, gid)
    thing.crash()  # controller.reset(): power loss forgets the boards
    crashed = listing(bridge)
    assert counts(crashed)[gid] == 0
    thing.reboot()
    run_shard(bridge, gid)
    assert counts(listing(bridge)) == counts(base)
    bridge.close()


def test_returned_body_is_the_callers_own():
    bridge = GatewayBridge(SCENARIO)
    bridge.execute(Op("advance", value=WARMUP_NS))
    first = listing(bridge)
    expected = json.loads(first.encoded)
    first.body["things"][0]["peripherals"] = 99
    first.body["things"][1].clear()
    first.body["things"].append({"id": "intruder"})
    second = listing(bridge)
    assert second.body == expected
    assert json.loads(second.encoded) == expected
    bridge.close()


def test_directory_is_never_checkpointed_and_survives_restore(
        tmp_path, monkeypatch):
    listed = GatewayBridge(SCENARIO)
    quiet = GatewayBridge(SCENARIO)
    for bridge in (listed, quiet):
        bridge.execute(Op("advance", value=WARMUP_NS))
        if bridge is listed:
            listing(bridge)
        bridge.execute(Op("advance", value=500_000_000))
        if bridge is listed:
            warm = listing(bridge)
        bridge.close()  # detaches the bridge's listeners from the shards
    # Listing leaves no trace in the shard state a checkpoint saves.
    assert ([dumps_state(d) for d in listed.deployments]
            == [dumps_state(d) for d in quiet.deployments])

    restored = [load_shard(save_shard(d, tmp_path / f"shard-{i}"))
                .deployment for i, d in enumerate(listed.deployments)]
    monkeypatch.setattr(bridge_module, "live_shards",
                        lambda scenario: restored)
    revived = GatewayBridge(SCENARIO)
    assert listing(revived).encoded == warm.encoded
    # The restored Things carry new map objects: a stale stamp can
    # never match them.
    assert all(row.known is not _thing(revived, row.gid)[1]
               .controller.known_map for row in listed._directory)
    # Both fleets churn on identically from the checkpoint instant.
    for bridge in (listed, revived):
        bridge.execute(Op("advance", value=60_000_000_000))
    later = listing(revived)
    assert later.encoded != warm.encoded
    assert later.encoded == listing(listed).encoded
    revived.close()
