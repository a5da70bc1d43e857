"""Per-driver runtime context: instance state, bindings, pending requests.

A :class:`DriverRuntime` is the living form of an installed driver on a
channel: the VM-visible global state, the native library bindings wired
to that channel's bus, and the queue of outstanding remote requests
whose replies arrive via the driver's ``return`` statement (§4.1).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.dsl.bytecode import (
    DriverImage,
    HANDLER_KIND_ERROR,
    HANDLER_KIND_EVENT,
)
from repro.dsl.symbols import name_for_id, well_known_id
from repro.vm.machine import DriverInstance, ReturnValue, VirtualMachine
from repro.vm.router import EventRouter

#: Callback invoked when a request completes: (value or None on ack-only).
RequestCallback = Callable[[Optional[ReturnValue]], None]


@dataclass
class DriverEventDelivery:
    """Router delivery that invokes one driver handler via the VM."""

    runtime: "DriverRuntime"
    kind: int
    name_id: int
    args: Tuple[int, ...] = ()
    after: Optional[Callable[[], None]] = None

    def execute(self) -> int:
        return self._run(self.runtime.on_signal, self.runtime.on_return)

    def _run(self, signal_sink, return_sink) -> int:
        handler = self.runtime.instance.image.find_handler(self.kind, self.name_id)
        cycles = 0
        try:
            if handler is not None:
                result = self.runtime.vm.execute(
                    self.runtime.instance,
                    handler,
                    self.args,
                    signal_sink=signal_sink,
                    return_sink=return_sink,
                )
                cycles = result.cycles
            else:
                self.runtime.unhandled_events += 1
        finally:
            if self.after is not None:
                self.after()
        return cycles

    def describe(self) -> str:
        kind = "error" if self.kind == HANDLER_KIND_ERROR else "event"
        name = name_for_id(self.name_id, self.runtime.instance.image.local_names)
        return f"{self.runtime.label}.{kind}:{name}"


@dataclass
class ReadRequestDelivery(DriverEventDelivery):
    """The ``read`` event of one remote read request.

    Returns pair with requests in FIFO order.  A driver ignores a read
    it cannot serve — still running its ``init`` chain after a
    (re)activation, say — by running the handler without signalling or
    returning.  If no earlier request is outstanding, nothing is then
    in flight that could answer this one: left at the head of the FIFO
    it would wait forever, or take the return of the next read and
    leave that one waiting instead.  So it completes at once with None
    (an error reply).  Behind an earlier outstanding request it stays
    queued for the next return, as before: a driver busy with a read
    (an RFID reader waiting for a card) answers the waiters in turn.
    """

    request: Optional[RequestCallback] = None

    def execute(self) -> int:
        runtime = self.runtime
        acted = False

        def on_signal(target: int, symbol: int, args: Tuple[int, ...]) -> None:
            nonlocal acted
            acted = True
            runtime.on_signal(target, symbol, args)

        def on_return(value: ReturnValue) -> None:
            nonlocal acted
            acted = True
            runtime.on_return(value)

        try:
            return self._run(on_signal, on_return)
        finally:
            pending = runtime._pending
            if not acted and pending and pending[0] is self.request:
                pending.popleft()
                self.request(None)


@dataclass
class NativeCommandDelivery:
    """Router delivery that invokes a native library command."""

    runtime: "DriverRuntime"
    lib_id: int
    command_index: int
    args: Tuple[int, ...] = ()

    def execute(self) -> int:
        binding = self.runtime.bindings.get(self.lib_id)
        if binding is None:
            self.runtime.unhandled_events += 1
            return 0
        return binding.invoke(self.command_index, self.args)

    def describe(self) -> str:
        return f"{self.runtime.label}.lib{self.lib_id}:cmd{self.command_index}"


class DriverRuntime:
    """One activated driver: state + bindings + request bookkeeping."""

    def __init__(
        self,
        image: DriverImage,
        bindings: Dict[int, "object"],
        router: EventRouter,
        vm: VirtualMachine,
        label: str = "",
    ) -> None:
        self.instance = DriverInstance(image)
        self.bindings = dict(bindings)
        self.router = router
        self.vm = vm
        self.label = label or f"driver-{image.device_id:08x}"
        self.active = False
        self.unhandled_events = 0
        self.unsolicited_returns = 0
        self._pending: Deque[RequestCallback] = deque()
        for binding in self.bindings.values():
            binding.claim(self)

    # -------------------------------------------------------------- lifecycle
    def activate(self) -> None:
        """Fire the driver's ``init`` event (§4.1 control flow)."""
        self.instance.reset()
        self.active = True
        self.post_event("init")

    def deactivate(self, after: Optional[Callable[[], None]] = None) -> None:
        """Fire ``destroy`` and release bindings once it has run."""
        self.active = False

        def _release() -> None:
            for binding in self.bindings.values():
                binding.release()
            while self._pending:
                self._pending.popleft()(None)
            if after is not None:
                after()

        self.post_event("destroy", after=_release)

    # ---------------------------------------------------------------- events
    def post_event(
        self,
        name: str,
        args: Tuple[int, ...] = (),
        *,
        error: bool = False,
        after: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Post a named event (or error) to this driver via the router;
        False when the router's queue was full and dropped it."""
        name_id = self._resolve_name(name)
        kind = HANDLER_KIND_ERROR if error else HANDLER_KIND_EVENT
        return self.router.post(
            DriverEventDelivery(self, kind, name_id, tuple(args), after),
            error=error,
        )

    def _resolve_name(self, name: str) -> int:
        known = well_known_id(name)
        if known is not None:
            return known
        try:
            local_index = self.instance.image.local_names.index(name)
        except ValueError:
            raise KeyError(f"driver {self.label} has no event name {name!r}") from None
        from repro.dsl.symbols import LOCAL_NAME_BASE

        return LOCAL_NAME_BASE + local_index

    # --------------------------------------------------------------- requests
    def has_handler(self, name: str) -> bool:
        known = well_known_id(name)
        if known is None:
            return False
        return self.instance.image.find_handler(HANDLER_KIND_EVENT, known) is not None

    def request_read(self, callback: RequestCallback) -> bool:
        """Post a ``read`` event; *callback* fires on the driver's return
        (or with None, see :class:`ReadRequestDelivery`).  False, with
        nothing queued, when the driver cannot read or the router's
        queue is full."""
        if not self.has_handler("read"):
            return False
        self._pending.append(callback)
        delivery = ReadRequestDelivery(
            self, HANDLER_KIND_EVENT, self._resolve_name("read"),
            request=callback)
        if not self.router.post(delivery):
            self._pending.pop()
            return False
        return True

    def request_write(self, value: int, callback: RequestCallback) -> bool:
        """Post a ``write`` event; acked when the handler completes
        (or earlier, with a value, if the driver returns one)."""
        if not self.has_handler("write"):
            return False
        state = {"done": False}

        def once(result: Optional[ReturnValue]) -> None:
            if not state["done"]:
                state["done"] = True
                callback(result)

        self._pending.append(once)

        def on_complete() -> None:
            if not state["done"]:
                try:
                    self._pending.remove(once)
                except ValueError:  # pragma: no cover - already completed
                    pass
                once(None)

        if not self.post_event("write", (value,), after=on_complete):
            self._pending.pop()
            return False
        return True

    # ------------------------------------------------------------------ sinks
    def on_signal(self, target: int, symbol: int, args: Tuple[int, ...]) -> None:
        """VM SIG sink: route to self or to a native library."""
        if target == 0:
            self.router.post(
                DriverEventDelivery(self, HANDLER_KIND_EVENT, symbol, args)
            )
            return
        self.router.post(NativeCommandDelivery(self, target, symbol, args))

    def on_return(self, value: ReturnValue) -> None:
        """VM return sink: complete the oldest pending request (FIFO)."""
        if self._pending:
            self._pending.popleft()(value)
        else:
            self.unsolicited_returns += 1

    @property
    def pending_requests(self) -> int:
        return len(self._pending)


__all__ = [
    "DriverRuntime",
    "DriverEventDelivery",
    "NativeCommandDelivery",
    "ReadRequestDelivery",
    "RequestCallback",
]
