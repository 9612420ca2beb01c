"""Span recording from outside the program: wrap public callables, time them.

A :class:`Recorder` keeps spans in memory, one nesting stack per thread.
A span's *self time* is its duration minus the time of the spans opened
inside it on the same thread, so self times along one call path add up
to the outermost span.  Generator-returning callables (streams) are
timed only while the generator body runs, one stack frame per resume,
so the consumer's time between events is charged to the consumer.

Nothing here edits the program: :func:`wrap` replaces an attribute on a
class or module, in the benchmark's own process, with a timing shim.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time

perf = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child", "attrs")

    def __init__(self, name: str, attrs: dict | None):
        self.name = name
        self.start = perf()
        self.child = 0.0
        self.attrs = attrs


class Recorder:
    """In-memory span store; ``enabled`` switches recording on and off."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Finished spans: ``[name, duration_s, self_s, ancestors, attrs]``,
        #: ``ancestors`` being the enclosing span names joined by ``/``.
        self.spans: list[list] = []

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> _Frame:
        frame = _Frame(name, attrs)
        self._stack().append(frame)
        return frame

    def close(self, frame: _Frame, record: bool = True) -> tuple[float, float]:
        """Pop ``frame``; charge its duration to the enclosing frame."""
        duration = perf() - frame.start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += duration
        if record:
            self.add(frame.name, duration, duration - frame.child, self.ancestors(), frame.attrs)
        return duration, frame.child

    def add(self, name, duration, self_time, ancestors, attrs=None) -> None:
        with self._lock:
            self.spans.append([name, duration, self_time, ancestors, attrs])

    def ancestors(self) -> str:
        return "/".join(frame.name for frame in self._stack())

    def dump(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)


class _TracedGenerator:
    """Times a generator's body across resumes; records one span at the end.

    ``first_event_s`` is wall time from the call to the first item whose
    event name is ``token`` (SSE-shaped ``(event, data)`` items) or, for
    other items, to the first item at all.
    """

    def __init__(self, recorder: Recorder, name: str, attrs, call):
        self._recorder = recorder
        self._name = name
        self._attrs = dict(attrs or {})
        self._called_at = perf()
        self._active = 0.0
        self._child = 0.0
        self._ancestors = recorder.ancestors()
        self._done = False
        self._first = None
        self._inner = self._resume(call)

    def _resume(self, step):
        frame = self._recorder.open(self._name, self._attrs)
        try:
            return step()
        finally:
            duration, child = self._recorder.close(frame, record=False)
            self._active += duration
            self._child += child

    def __iter__(self):
        return self

    def __next__(self):
        try:
            item = self._resume(lambda: next(self._inner))
        except BaseException:
            self._finish()
            raise
        if self._first is None:
            event = item[0] if isinstance(item, tuple) and item else None
            if event in (None, "token"):
                self._first = perf() - self._called_at
        return item

    def close(self) -> None:
        try:
            close = getattr(self._inner, "close", None)
            if close is not None:
                self._resume(close)
        finally:
            self._finish()

    def _finish(self) -> None:
        if self._done:
            return
        self._done = True
        if self._first is not None:
            self._attrs["first_event_s"] = self._first
        self._recorder.add(
            self._name, self._active, self._active - self._child, self._ancestors, self._attrs
        )


def trace_id_of(args, kwargs) -> dict | None:
    """``{"trace": id}`` from a ``trace_context`` keyword, when present."""
    context = kwargs.get("trace_context")
    trace_id = getattr(context, "trace_id", None)
    return {"trace": trace_id} if trace_id else None


def wrap(recorder: Recorder, owner, attr: str, name: str | None = None,
         attrs=None, generator: bool = False, after=None):
    """Replace ``owner.attr`` with a timing shim.

    ``attrs(args, kwargs)`` may return a dict stored with the span, and
    ``after(result)`` a dict merged into it once the call returns.  With
    ``generator=True`` the callable's result is iterated under a
    :class:`_TracedGenerator` so only the body's own time is charged.
    """
    original = getattr(owner, attr)
    label = name or f"{getattr(owner, '__name__', owner)}.{attr}"

    if generator:
        @functools.wraps(original)
        def shim(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            extra = attrs(args, kwargs) if attrs is not None else None
            return _TracedGenerator(recorder, label, extra, lambda: original(*args, **kwargs))
    else:
        @functools.wraps(original)
        def shim(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            frame = recorder.open(label, attrs(args, kwargs) if attrs is not None else None)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    frame.attrs = {**(frame.attrs or {}), **after(result)}
                return result
            finally:
                recorder.close(frame)

    setattr(owner, attr, shim)


class TimedLock:
    """A lock proxy that records each acquire's wait as a ``name`` span."""

    def __init__(self, lock, recorder: Recorder, name: str):
        self._lock = lock
        self._recorder = recorder
        self._name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if not self._recorder.enabled:
            return self._lock.acquire(blocking, timeout)
        frame = self._recorder.open(self._name)
        try:
            return self._lock.acquire(blocking, timeout)
        finally:
            self._recorder.close(frame)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


# -- summaries ----------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def by_name(spans: list[list]) -> dict[str, list[list]]:
    grouped: dict[str, list[list]] = {}
    for span in spans:
        grouped.setdefault(span[0], []).append(span)
    return grouped
