"""Outside-in layer tracing for the benchmark's traced runs.

Nothing here edits the program.  :class:`Tracer` keeps an in-memory span
stack; :class:`Patcher` wraps the public functions and methods of each
layer with timed spans and puts the originals back afterwards.  A
function imported by name into other modules (``from repro.x import f``)
is replaced in every loaded ``repro`` module that holds it, so calls
through any import path are seen.

A span's *self* time is its duration minus the part covered by child
spans; self times of every span plus the time outside all spans add up to
the wall clock of the traced operations.  Names that are missing in the
program under test are skipped, so a refactor that removes a layer makes
its metric read 0 rather than breaking the benchmark.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable

_clock = time.perf_counter


class Tracer:
    """Span stack plus per-name self time, inclusive time and call counts.

    ``inclusive[name]`` counts only outermost occurrences of a name, so a
    layer that re-enters itself is not double counted.  Spans with no
    traced parent are the operations the workload calls: ``top_s`` is
    their time and ``top_self_s`` the part of it no layer span covers.
    """

    def __init__(self) -> None:
        self.stack: list[list[Any]] = [[None, 0.0]]
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self.top_s = 0.0
        self.top_self_s = 0.0

    def _close(self, frame: list[Any], elapsed: float) -> None:
        name = frame[0]
        stack = self.stack
        stack.pop()
        own = elapsed - frame[1]
        self.self_s[name] += own
        stack[-1][1] += elapsed
        self.calls[name] += 1
        self.active[name] -= 1
        if not self.active[name]:
            self.inclusive[name] += elapsed
        if len(stack) == 1:
            self.top_s += elapsed
            self.top_self_s += own

    def call(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span named ``name``."""
        stack = self.stack
        active = self.active
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            started = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, _clock() - started)

        return traced

    def generator(self, name: str, fn: Callable) -> Callable:
        """Generator function ``fn`` with each ``next()`` timed as a span.

        ``calls[name]`` then counts the items produced.
        """
        stack = self.stack
        active = self.active
        close = self._close

        def spans(iterator):
            try:
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    active[name] += 1
                    started = _clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        close(frame, _clock() - started)
                        self.calls[name] -= 1  # the end is not an item
                        return
                    except BaseException:
                        close(frame, _clock() - started)
                        raise
                    close(frame, _clock() - started)
                    yield item
            finally:
                close_inner = getattr(iterator, "close", None)
                if close_inner is not None:
                    close_inner()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return spans(iter(fn(*args, **kwargs)))

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` untimed, counting its calls in ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


class Patcher:
    """Install wrappers on module functions and class attributes; undo them."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, module_name: str, attr: str, wrap: Callable[[Callable], Callable]) -> bool:
        """Replace ``module.attr`` wherever a loaded ``repro`` module binds it."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None or not callable(original):
            return False
        wrapped = wrap(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapped)
        return True

    def method(self, owner: Any, attr: str, wrap: Callable[[Callable], Callable]) -> bool:
        """Replace a plain function attribute defined on ``owner`` itself."""
        original = vars(owner).get(attr) if owner is not None else None
        if original is None or not callable(original):
            return False
        self._set(owner, attr, wrap(original))
        return True

    def frozen_field(self, instance: Any, attr: str, wrap: Callable[[Callable], Callable]) -> bool:
        """Replace a callable field of a frozen dataclass instance."""
        original = getattr(instance, attr, None)
        if original is None or not callable(original):
            return False
        self._undo.append((instance, attr, original))
        object.__setattr__(instance, attr, wrap(original))
        return True

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            try:
                setattr(owner, attr, original)
            except AttributeError:  # frozen dataclass
                object.__setattr__(owner, attr, original)
        self._undo.clear()
