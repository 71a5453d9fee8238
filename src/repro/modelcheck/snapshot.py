"""In-process copies of a live ``(system, executor)`` pair.

The explorer carries one live state down its DFS and gives every child
but the last a copy of the parent's state. A :class:`Snapshot` pickles
the pair once; each :meth:`Snapshot.restore` unpickles an independent
copy. Three kinds of object need more than the default pickle:

* **Frozen dataclasses** (protocol events, memory ops, configs) never
  change, so they are shared with the source instead of copied — the
  event log gains events with every action, and each copy would
  otherwise pickle all of them again.
* **Bound methods** are rebuilt as ``MethodType(function, copy)``, so
  they bind the copy of their object without an attribute lookup that
  could see a half-restored instance.
* **Closures stored on an instance** — instrumentation that wraps
  ``system.load`` — do not pickle. They are rebuilt for the copy: a
  bound method, function or partial they captured is copied like any
  other state (so a wrapper of ``system.load`` wraps the copy's
  ``load``), and every other captured value is the wrapper's own state,
  shared with the original.

Mutations (:mod:`repro.modelcheck.mutations`) bind their instance with
``functools.partial``, which pickles as plain data, so a copy of a
mutated system is mutated and its patch acts on the copy.
"""

from __future__ import annotations

import io
import pickle
from functools import cache, partial
from types import CellType, FunctionType, MethodType
from typing import List, Tuple


def _shared(index: int) -> object:
    """Stands in a snapshot pickle for "the index-th object the source
    shares"; :class:`_Unpickler` resolves the name to its table."""
    raise RuntimeError("only a snapshot unpickler resolves shared objects")


class _ByReference:
    """Marks a captured value the copy shares with the source."""

    __slots__ = ("obj",)

    def __init__(self, obj) -> None:
        self.obj = obj


@cache
def _immutable(kind: type) -> bool:
    params = getattr(kind, "__dataclass_params__", None)
    return params is not None and params.frozen


def _captured(value):
    if isinstance(value, (FunctionType, MethodType, partial)):
        return value
    return _ByReference(value)


def _rebuild_closure(function: FunctionType, captured: Tuple) -> FunctionType:
    copy = FunctionType(
        function.__code__,
        function.__globals__,
        function.__name__,
        function.__defaults__,
        tuple(CellType(value) for value in captured),
    )
    copy.__kwdefaults__ = function.__kwdefaults__
    copy.__qualname__ = function.__qualname__
    return copy


def _bind(function: FunctionType, obj) -> MethodType:
    return MethodType(function, obj)


class _Pickler(pickle.Pickler):
    def __init__(self, file, shared: List[object]) -> None:
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.shared = shared

    def reducer_override(self, obj):
        kind = type(obj)
        if kind is FunctionType and obj.__closure__:
            return _rebuild_closure, (
                _ByReference(obj),
                tuple(_captured(cell.cell_contents) for cell in obj.__closure__),
            )
        if kind is MethodType:
            return _bind, (obj.__func__, obj.__self__)
        if kind is _ByReference or _immutable(kind):
            self.shared.append(obj.obj if kind is _ByReference else obj)
            return _shared, (len(self.shared) - 1,)
        return NotImplemented


class _Unpickler(pickle.Unpickler):
    def __init__(self, file, shared: List[object]) -> None:
        super().__init__(file)
        self.shared = shared

    def find_class(self, module: str, name: str):
        if module == __name__ and name == "_shared":
            return self.shared.__getitem__
        return super().find_class(module, name)


class Snapshot:
    """A frozen ``(system, executor)`` pair. Each :meth:`restore` returns
    a new, independent copy: applying actions to it leaves the source
    and every other copy unchanged."""

    __slots__ = ("_data", "_shared")

    def __init__(self, system, executor) -> None:
        self._shared: List[object] = []
        buffer = io.BytesIO()
        _Pickler(buffer, self._shared).dump((system, executor))
        self._data = buffer.getvalue()

    def restore(self) -> Tuple:
        return _Unpickler(io.BytesIO(self._data), self._shared).load()
