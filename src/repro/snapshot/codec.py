"""The checkpoint object-graph codec: pickle, extended to closures.

The kernel's event heap holds arbitrary Python callbacks — bound
methods, module functions, and (pervasively) *closures*: churn ticks
capture their Thing and RNG streams, protocol timers capture pending
request state, stream expiries capture their handles.  Stdlib pickle
refuses closures, lambdas and local functions, so a checkpoint codec
must carry them itself.

:class:`SnapshotPickler` extends :class:`pickle.Pickler` (protocol 5)
with reducers for exactly the object kinds a shard graph contains that
pickle cannot serialize by reference:

* **functions that are not importable by qualified name** (closures,
  lambdas, local defs) — serialized by value: the code object via
  :mod:`marshal`, the defaults/kwdefaults/function dict by pickling,
  and the closure cells *via the two-phase skeleton trick*: an empty
  function shell is built first (so self-referential closures and
  cycles through cells memoize correctly), then the cells are filled
  from the pickled state;
* **cells** encountered outside a function (rare, but legal);
* **modules** captured in cells — reduced to an import by name.

Function ``__globals__`` are never serialized by value: a function is
re-bound to its defining module's live namespace on load, so the code
a checkpoint resumes against is the code of the checked-out tree —
which is what makes schema migrations meaningful (state is versioned;
behaviour is not frozen into the checkpoint).

Bound methods travel as ``getattr(owner, name)``, so a checkpoint can
name a method this tree has since deleted.  Loading gives it an inert
stand-in (:class:`RetiredMethod`) for the layer migration that retired
the method to drop; one that survives raises when called.

Because :mod:`marshal`'s bytecode format is interpreter-specific,
checkpoints record the Python version and refuse to load under a
different ``major.minor`` (see :mod:`repro.snapshot.checkpoint`).

Shared-object identity is preserved by pickle's memo: two references
to the same RNG stream, Thing or metrics object come back as two
references to the same restored object — without this, a restored
shard's closures would draw from different streams than its registry
and the run would silently diverge.

Like pickle, ``loads_state`` executes constructors referenced by the
stream: only load checkpoints you (or your CI) wrote.
"""

from __future__ import annotations

import importlib
import io
import marshal
import pickle
import sys
import types
import zlib
from typing import Any

#: Bump when the *codec envelope* changes incompatibly (the layer
#: schemas carried inside are versioned separately).
CODEC_VERSION = 1

#: Envelope magic: identifies a repro snapshot payload and its codec
#: major version before any unpickling happens.
_MAGIC = b"RSNAP\x01"


class _EmptyCell:
    """Sentinel (pickled by class reference) for an unset closure cell."""


def _module_globals(name: str) -> dict:
    return importlib.import_module(name).__dict__


def _make_skeleton(code_bytes: bytes, module: str) -> types.FunctionType:
    """Phase one of function-by-value: an empty shell, memo-safe.

    The shell carries the real code object and fresh empty cells, so a
    cycle through ``__closure__`` (e.g. a periodic tick that reschedules
    itself) resolves against the memoized shell while the cell contents
    are still being unpickled.
    """
    code = marshal.loads(code_bytes)
    closure = (tuple(types.CellType() for _ in code.co_freevars)
               or None)
    try:
        globs = _module_globals(module)
    except ImportError:
        # A checkpoint from a tree where the defining module has since
        # vanished: the function keeps working as long as it only uses
        # builtins; anything else raises NameError at call time, which
        # is the honest failure mode.
        globs = {"__builtins__": __builtins__}
    return types.FunctionType(code, globs, code.co_name, None, closure)


def _fill_function(fn: types.FunctionType, state: dict) -> types.FunctionType:
    """Phase two: populate the shell with defaults, cells and dict."""
    fn.__qualname__ = state["qualname"]
    fn.__defaults__ = state["defaults"]
    fn.__kwdefaults__ = state["kwdefaults"]
    for cell, value in zip(fn.__closure__ or (), state["cells"]):
        if value is not _EmptyCell:
            cell.cell_contents = value
    if state["dict"]:
        fn.__dict__.update(state["dict"])
    return fn


def _make_cell(value: Any) -> types.CellType:
    return types.CellType(value)


def _make_empty_cell() -> types.CellType:
    return types.CellType()


def _importable(obj: Any) -> bool:
    """True when stdlib pickle's save-by-reference would round-trip."""
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if module is None or qualname is None:
        return False
    mod = sys.modules.get(module)
    if mod is None:
        return False
    target: Any = mod
    for part in qualname.split("."):
        if part == "<locals>":
            return False
        target = getattr(target, part, None)
        if target is None:
            return False
    return target is obj


class SnapshotPickler(pickle.Pickler):
    """Pickler that additionally serializes closures, cells, modules."""

    def reducer_override(self, obj):  # noqa: C901 - a dispatch table
        if isinstance(obj, types.FunctionType):
            if _importable(obj):
                return NotImplemented  # by reference, as stdlib would
            cells = []
            for cell in obj.__closure__ or ():
                try:
                    cells.append(cell.cell_contents)
                except ValueError:  # not yet populated
                    cells.append(_EmptyCell)
            state = {
                "qualname": obj.__qualname__,
                "defaults": obj.__defaults__,
                "kwdefaults": obj.__kwdefaults__,
                "cells": cells,
                "dict": obj.__dict__ or None,
            }
            return (
                _make_skeleton,
                (marshal.dumps(obj.__code__), obj.__module__),
                state,
                None,
                None,
                _fill_function,
            )
        if isinstance(obj, types.CellType):
            try:
                return (_make_cell, (obj.cell_contents,))
            except ValueError:
                return (_make_empty_cell, ())
        if isinstance(obj, types.ModuleType):
            return (importlib.import_module, (obj.__name__,))
        return NotImplemented


class RetiredMethod:
    """A bound method a checkpoint names but this tree no longer defines."""

    __slots__ = ("owner", "name")

    def __init__(self, owner: Any, name: str) -> None:
        self.owner = owner
        self.name = name

    def __call__(self, *args: Any, **kwargs: Any) -> None:
        raise AttributeError(
            f"{type(self.owner).__qualname__}.{self.name} was retired; the "
            f"checkpoint still calls it and no migration dropped the call")


def _method_or_retired(owner: Any, name: str, *default: Any) -> Any:
    """``getattr`` as pickle's bound-method reduction calls it, with a
    :class:`RetiredMethod` for a name the owner's class lost."""
    try:
        return getattr(owner, name, *default)
    except AttributeError:
        return RetiredMethod(owner, name)


class _SnapshotUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if module == "builtins" and name == "getattr":
            return _method_or_retired
        return super().find_class(module, name)


def dumps_state(obj: Any) -> bytes:
    """Serialize *obj* (a full shard graph or any sub-graph) to bytes.

    The payload is zlib-compressed behind a magic/version envelope;
    checkpoints of idle duty-cycled fleets are dominated by repetitive
    structure and compress several-fold.
    """
    buffer = io.BytesIO()
    SnapshotPickler(buffer, protocol=5).dump(obj)
    return _MAGIC + zlib.compress(buffer.getvalue(), 6)


def loads_state(blob: bytes) -> Any:
    """Inverse of :func:`dumps_state`."""
    if not blob.startswith(_MAGIC[:-1]):
        raise ValueError("not a repro snapshot payload (bad magic)")
    if blob[: len(_MAGIC)] != _MAGIC:
        raise ValueError(
            f"snapshot codec version {blob[len(_MAGIC) - 1]} not supported "
            f"(this tree speaks {CODEC_VERSION})"
        )
    return _SnapshotUnpickler(
        io.BytesIO(zlib.decompress(blob[len(_MAGIC):]))).load()


__all__ = [
    "CODEC_VERSION",
    "RetiredMethod",
    "SnapshotPickler",
    "dumps_state",
    "loads_state",
]
