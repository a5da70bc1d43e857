"""Differential parity of the bridge's completion-driven drive.

The bridge ends each op's drive at the event that completes it, then
runs on to the end of the ``max(quantum, 2 ms)`` chunk that instant
fell in.  That must be indistinguishable from stepping the shard chunk
by chunk and checking for completion after each chunk — the original
drive, kept here only as a test-local subclass.  The same seeded log
(reads, writes, installs, plus one read forced to time out by taking
the target's radio down) goes through both bridges; every op's
outcome and the final digest must match, and the new drive must enter
the kernel at most three times per op.
"""

import random

import pytest

from repro.fleet.scenario import SCENARIOS
from repro.gateway.bridge import GatewayBridge, Op
from repro.gateway.thing_description import INSTALL_ACTION
from repro.sim.kernel import NS_PER_MS, Simulator

WARMUP_NS = 2_000_000_000
LOG_OPS = 160


class ChunkedBridge(GatewayBridge):
    """The polling drive: ``run_until`` one chunk at a time until done."""

    def _drive(self, deployment, start_ns, done):
        sim = deployment.sim
        deadline = start_ns + self.op_timeout_ns
        chunk = max(self.quantum_ns, 2 * NS_PER_MS)
        while not done.fired:
            if sim.now_ns >= deadline:
                return
            sim.run_until(min(deadline, sim.now_ns + chunk))


def _scenario():
    return SCENARIOS["gateway"].scaled(things=12, shard_size=4, seed=5)


def _seeded_log(seed: int):
    """Warm-up, then a seeded read/write/install mix over the TDs'
    affordances.  The targets come from a throwaway bridge."""
    scout = GatewayBridge(_scenario())
    scout.execute(Op("advance", value=WARMUP_NS))
    reads, writes = [], []
    for entry in scout.execute(Op("list")).body["things"]:
        thing = int(entry["id"].rsplit(":", 1)[1])
        td = scout.execute(Op("td", thing=thing)).body
        reads += [(thing, name) for name in sorted(td["properties"])]
        writes += [(thing, name) for name in sorted(td["actions"])
                   if name != INSTALL_ACTION]
    scout.close()
    assert reads and writes
    rng = random.Random(seed)
    ops = [Op("advance", value=WARMUP_NS)]
    for _ in range(LOG_OPS):
        draw = rng.random()
        if draw < 0.6:
            thing, name = rng.choice(reads)
            ops.append(Op("read", thing=thing, name=name))
        elif draw < 0.8:
            thing, name = rng.choice(writes)
            ops.append(Op("write", thing=thing, name=name,
                          value=rng.randrange(2)))
        else:
            thing, name = rng.choice(reads)
            ops.append(Op("install", thing=thing, name=name))
    # The op whose target goes off the air: a read in mid-log.
    silenced = next(i for i, op in enumerate(ops)
                    if op.kind == "read" and i > LOG_OPS // 2)
    return ops, silenced


def _apply(bridge, ops, silenced, counter=None):
    """Apply *ops*; the target of op *silenced* has its radio down for
    exactly that op.  Returns per-op outcomes (and kernel entries)."""
    outcomes, entries = [], []
    for index, op in enumerate(ops):
        stack = None
        if index == silenced:
            deployment, local = bridge._things[op.thing]
            stack = deployment.things[local].stack
            stack.set_down(True)
        before = counter["calls"] if counter is not None else 0
        result = bridge.execute(op)
        if counter is not None:
            entries.append(counter["calls"] - before)
        if stack is not None:
            stack.set_down(False)
        outcomes.append((result.status, result.admitted_ns,
                         result.sim_latency_ns))
    return outcomes, entries


@pytest.fixture(scope="module")
def replays():
    ops, silenced = _seeded_log(seed=3)
    chunked = ChunkedBridge(_scenario())
    reference, _ = _apply(chunked, ops, silenced)

    counter = {"calls": 0}
    run_until = Simulator.run_until

    def counting(self, *args, **kwargs):
        counter["calls"] += 1
        return run_until(self, *args, **kwargs)

    driven = GatewayBridge(_scenario())
    mp = pytest.MonkeyPatch()
    mp.setattr(Simulator, "run_until", counting)
    try:
        outcomes, entries = _apply(driven, ops, silenced, counter)
    finally:
        mp.undo()
    yield ops, silenced, chunked, reference, driven, outcomes, entries
    chunked.close()
    driven.close()


def test_every_op_matches_the_chunked_drive(replays):
    ops, silenced, _, reference, _, outcomes, _ = replays
    assert len(outcomes) == len(reference) == len(ops)
    for index, (got, want) in enumerate(zip(outcomes, reference)):
        assert got == want, (index, ops[index])
    # The log really exercised every path, the forced timeout included.
    kinds = {(op.kind, status)
             for op, (status, _, _) in zip(ops, outcomes)}
    assert {("read", 200), ("write", 200), ("install", 200)} <= kinds
    assert outcomes[silenced][0] == 504


def test_final_digest_and_clocks_match(replays):
    _, _, chunked, _, driven, _, _ = replays
    assert driven.digest() == chunked.digest()
    assert ([d.sim.now_ns for d in driven.deployments]
            == [d.sim.now_ns for d in chunked.deployments])


def test_kernel_entries_per_op_are_bounded(replays):
    ops, _, _, _, _, _, entries = replays
    per_op = [n for op, n in zip(ops, entries)
              if op.kind in ("read", "write", "install")]
    assert per_op and max(per_op) <= 3
