"""In-memory spans around the benchmark's calls into ``primegaps`` modules.

A span is (id, name, start, end, parent id, attributes); times are
``perf_counter_ns`` values. Spans are kept in a list and written out once,
when the run ends. :meth:`Tracer.patched` wraps public functions where one
module calls another (``cli`` -> ``verify`` -> ``conjectures`` -> ``sieve``),
so a traced CLI call records the layer boundaries the library already has,
without any change to the package.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

_ns = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._last_id = 0

    def _open(self) -> tuple[int, int | None]:
        self._last_id += 1
        return self._last_id, (self._stack[-1] if self._stack else None)

    def _record(self, sid, name, start, end, parent, attrs) -> None:
        self.spans.append(
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "attrs": attrs}
        )

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span; yields its attribute dict for counts set inside."""
        sid, parent = self._open()
        self._stack.append(sid)
        start = _ns()
        try:
            yield attrs
        finally:
            end = _ns()
            self._stack.remove(sid)
            attrs["id"] = sid
            self._record(sid, name, start, end, parent, attrs)

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span; return (result, seconds)."""
        with self.span(name) as attrs:
            t0 = _ns()
            result = fn(*args, **kwargs)
            seconds = (_ns() - t0) / 1e9
        return result, seconds

    def drain(self, name: str, iterator, on_item=None) -> dict:
        """Exhaust ``iterator`` in a span and return the span's attributes.

        ``next_ns`` is the time spent inside next(); ``on_item`` runs on each
        item outside it. ``items`` and ``bytes`` count the items and the
        bytes of the numpy arrays delivered.
        """
        with self.span(name) as attrs:
            waited = items = nbytes = 0
            while True:
                t0 = _ns()
                try:
                    item = next(iterator)
                except StopIteration:
                    waited += _ns() - t0
                    break
                waited += _ns() - t0
                items += 1
                nbytes += sum(a.nbytes for a in (item if isinstance(item, tuple) else (item,)))
                if on_item is not None:
                    on_item(item)
            attrs.update(next_ns=waited, items=items, bytes=nbytes)
        return attrs

    def _wrap(self, name: str, fn):
        if not inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return wrapper

        # A generator is on the span stack only while inside next(), so work
        # its consumer does between items is not charged to it; ``busy_ns``
        # is the time it covers.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            sid, parent = self._open()
            start, busy, items = _ns(), 0, 0
            it = fn(*args, **kwargs)
            try:
                while True:
                    self._stack.append(sid)
                    t0 = _ns()
                    try:
                        item = next(it)
                    except StopIteration:
                        break
                    finally:
                        busy += _ns() - t0
                        self._stack.remove(sid)
                    items += 1
                    yield item
            finally:
                self._record(sid, name, start, _ns(), parent,
                             {"busy_ns": busy, "items": items})
        return gen_wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap ``(module, attribute, span name)`` targets; restore on exit."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def children(self, span_id: int, name: str) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id and s["name"] == name]

    @staticmethod
    def _covers(span: dict) -> int:
        return span["attrs"].get("busy_ns", span["end"] - span["start"])

    def self_ns(self) -> dict[int, int]:
        """Self time of every span: its time minus what its children cover."""
        own = {s["id"]: self._covers(s) for s in self.spans}
        for s in self.spans:
            if s["parent"] in own:
                own[s["parent"]] -= self._covers(s)
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total milliseconds and self milliseconds."""
        own = self.self_ns()
        out: dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += self._covers(s) / 1e6
            row["self_ms"] += own[s["id"]] / 1e6
        return out
