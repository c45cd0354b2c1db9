"""Per-layer timing hooks for the traced repetitions.

The benchmark measures the program from outside: a traced repetition
wraps public callables of the program -- class-level methods such as
``SiteSelector.select`` or public instance attributes such as a
producer's ``collect`` -- and counts calls, wall time inside them and,
where asked, the items they handle.  Nothing inside the program is
edited, and the wrappers add no events and draw no random numbers, so a
traced run produces byte-identical output (the benchmark checks that).

Rules the hooks follow:

* A hook whose target no longer exists is skipped with a note; its
  layer then reports zero calls instead of crashing the benchmark.
* A generator function is only counted: its call returns before the
  work is done, so the time spent inside the call means nothing.
* ``Engine.step`` is never patched on an instance: ``Engine.run``
  detects that and falls back to its slow path.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Callable, Dict, List, Optional


class Layer:
    """Counters for one hooked call site."""

    __slots__ = ("calls", "busy_s", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.items = 0


class LayerTracer:
    """Installs and removes the hooks of one traced repetition."""

    def __init__(self) -> None:
        self.layers: Dict[str, Layer] = {}
        self.notes: List[str] = []
        #: Wall time spent in outermost hooked calls on the main thread
        #: (a hooked call inside another is not counted twice).
        self.top_s = 0.0
        self._undo: List[tuple] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def layer(self, name: str) -> Layer:
        """The counters of ``name`` (created empty on first use)."""
        found = self.layers.get(name)
        if found is None:
            found = self.layers[name] = Layer()
        return found

    def reset(self) -> None:
        """Zero every counter; the hooks stay installed."""
        with self._lock:
            for layer in self.layers.values():
                layer.calls = layer.items = 0
                layer.busy_s = 0.0
            self.top_s = 0.0

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    # -- wrapping ------------------------------------------------------------
    def _wrapper(self, name: str, fn: Callable, count_arg: Optional[int],
                 count_result: bool) -> Callable:
        layer = self.layer(name)
        lock = self._lock
        if inspect.isgeneratorfunction(fn):
            self.note(f"{name}: generator function, calls counted only")

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                with lock:
                    layer.calls += 1
                return fn(*args, **kwargs)
            return counted

        local = self._local
        main = threading.main_thread()
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            items = 0
            if count_arg is not None and len(args) > count_arg:
                batch = args[count_arg]
                if not isinstance(batch, (list, tuple)):
                    # The callee iterates the batch once either way.
                    batch = list(batch)
                    args = args[:count_arg] + (batch,) + args[count_arg + 1:]
                items = len(batch)
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count_result:
                    result = list(result)
                    items = len(result)
            finally:
                elapsed = clock() - start
                local.depth = depth
                with lock:
                    layer.calls += 1
                    layer.busy_s += elapsed
                    layer.items += items
                    if not depth and threading.current_thread() is main:
                        tracer.top_s += elapsed
            return result
        return timed

    def wrap(self, name: str, owner: object, attr: str,
             count_arg: Optional[int] = None,
             count_result: bool = False) -> bool:
        """Wrap ``owner.attr`` (a class or an instance) under layer
        ``name``.

        ``count_arg`` counts the items of that positional argument;
        ``count_result`` counts the items of the (materialised) result.
        Returns False, with a note, when the target does not exist.
        """
        self.layer(name)
        if owner is None:
            self.note(f"{name}: no object holds {attr!r}, not measured")
            return False
        if isinstance(owner, type):
            try:
                fn = inspect.getattr_static(owner, attr)
            except AttributeError:
                fn = None
            if not inspect.isfunction(fn):
                self.note(f"{name}: {owner.__name__}.{attr} is gone, "
                          "not measured")
                return False
        else:
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.note(f"{name}: {type(owner).__name__}.{attr} is gone, "
                          "not measured")
                return False
        own = getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, self._wrapper(name, fn, count_arg, count_result))
        return True

    def wrap_public(self, name: str, module: str, qualname: str,
                    **kwargs) -> bool:
        """Wrap ``Class.method`` as exported by public module ``module``."""
        owner_name, _, attr = qualname.rpartition(".")
        try:
            owner: object = importlib.import_module(module)
        except ImportError:
            owner = None
        for part in owner_name.split(".") if owner_name else ():
            owner = getattr(owner, part, None)
        if owner is None:
            self.layer(name)
            self.note(f"{name}: {module}.{qualname} is gone, not measured")
            return False
        return self.wrap(name, owner, attr, **kwargs)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- reading -------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.layer(name).calls

    def busy(self, name: str) -> float:
        return self.layer(name).busy_s

    def items(self, name: str) -> int:
        return self.layer(name).items
