"""The peripheral controller (§4.2): identification software routine.

Interfaces with the µPnP control board.  A connect/disconnect interrupt
powers the board and starts an identification round; when the round's
electrical duration has elapsed on the simulator, the decoded channel
map is diffed against the previous state and the outcome (peripherals
added/removed) is reported to the Thing.  Interrupts arriving while a
round is in flight coalesce into one follow-up round — exactly the
debouncing a real implementation needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.hw.control_board import ControlBoard, IdentificationReport
from repro.hw.device_id import DeviceId
from repro.hw.power import EnergyMeter
from repro.mcu.spec import ATMEGA128RFA1, McuSpec
from repro.sim.kernel import Simulator, ns_from_s


@dataclass(frozen=True)
class IdentificationOutcome:
    """Result of one identification round, as seen by the Thing."""

    report: IdentificationReport
    connected: Dict[int, DeviceId]           # current channel -> id map
    added: Dict[int, DeviceId]               # newly appeared
    removed: Dict[int, DeviceId]             # newly gone
    completed_at_s: float


ChangeListener = Callable[[IdentificationOutcome], None]


class PeripheralController:
    """Runs the hardware identification algorithm on plug interrupts."""

    def __init__(
        self,
        sim: Simulator,
        board: ControlBoard,
        *,
        mcu: McuSpec = ATMEGA128RFA1,
        meter: Optional[EnergyMeter] = None,
    ) -> None:
        self._sim = sim
        self._board = board
        self._mcu = mcu
        self._meter = meter
        self._known: Dict[int, DeviceId] = {}
        self._listeners: List[ChangeListener] = []
        self._identifying = False
        self._rerun_needed = False
        self._epoch = 0
        self.rounds_run = 0
        board.on_interrupt(self._on_interrupt)

    @property
    def board(self) -> ControlBoard:
        return self._board

    def known_peripherals(self) -> Dict[int, DeviceId]:
        """Last identified channel -> device id map."""
        return dict(self._known)

    @property
    def known_map(self) -> Mapping[int, DeviceId]:
        """The last identified map itself, uncopied: read it, never
        mutate it.  Every identification round and every reset
        *replaces* the map instead of editing it, so its identity is a
        change stamp — a caller holding the previous map knows, by
        ``is``, whether anything was identified since."""
        return self._known

    def on_change(self, listener: ChangeListener) -> None:
        """Register for identification outcomes (the Thing subscribes)."""
        self._listeners.append(listener)

    # -------------------------------------------------------------- interrupt
    def _on_interrupt(self, channel: int, connected: bool) -> None:
        del channel, connected  # the round re-scans every channel anyway
        if self._identifying:
            self._rerun_needed = True
            return
        self._start_round()

    def trigger(self) -> None:
        """Force an identification round (e.g. at boot)."""
        if self._identifying:
            self._rerun_needed = True
        else:
            self._start_round()

    def reset(self) -> None:
        """Forget every identified peripheral (power loss wipes RAM).

        No removal callbacks fire — the node is dead, nobody is
        listening.  The next round (boot :meth:`trigger`) reports every
        still-attached board as newly added, replaying the full plug
        pipeline from scratch.
        """
        self._known = {}
        self._rerun_needed = False
        self._identifying = False
        # Invalidate any round already in flight: its completion event
        # belongs to the pre-crash epoch and must report nothing.
        self._epoch += 1

    def _start_round(self) -> None:
        self._identifying = True
        epoch = self._epoch
        report = self._board.run_identification()
        self.rounds_run += 1
        if self._meter is not None:
            # The MCU busy-waits on the identification GPIOs for the round.
            self._meter.add_draw("mcu", self._mcu.active_draw, report.total_seconds)
        self._sim.schedule(
            ns_from_s(report.total_seconds),
            lambda: self._finish_round(report, epoch),
            name="identification-done",
        )

    def _finish_round(self, report: IdentificationReport, epoch: int) -> None:
        if epoch != self._epoch:
            return  # round predates a reset (power loss); results are void
        current = report.identified()
        added = {
            ch: dev for ch, dev in current.items()
            if self._known.get(ch) != dev
        }
        removed = {
            ch: dev for ch, dev in self._known.items()
            if current.get(ch) != dev
        }
        self._known = current
        outcome = IdentificationOutcome(
            report=report,
            connected=dict(current),
            added=added,
            removed=removed,
            completed_at_s=self._sim.now_s,
        )
        for listener in list(self._listeners):
            listener(outcome)
        self._identifying = False
        if self._rerun_needed:
            self._rerun_needed = False
            self._start_round()


__all__ = ["PeripheralController", "IdentificationOutcome", "ChangeListener"]
