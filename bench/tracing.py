"""In-memory span tracer that instruments a program from outside.

A Tracer replaces attributes of modules and classes with wrappers that
record a span (name, start, end, parent) per call, or only count calls, and
puts every original back on ``restore``.  Nothing in the traced package is
edited.  Spans live in flat arrays until the caller analyses or saves them.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

_MISSING = object()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        self._stack = [-1]
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans and counts; installed wrappers stay."""
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack[:] = [-1]
        for key in self.counts:
            self.counts[key] = 0

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # --- instrumentation ---------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until ``restore``."""
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} defines no attribute {attr!r}")
        self._installed.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` recording one span per call.

        ``before(args)`` runs ahead of the call and its value reaches
        ``after(token, args, result)``, which runs once the call returned.
        Both run inside the span and are meant for cheap counters.
        """
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            starts, ends = self.start, self.end
            idx = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                if before is None and after is None:
                    return fn(*args, **kwargs)
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(token, args, result)
                return result
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return wrapper

    def span(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Record a span around every call of ``owner.attr``."""
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name, before, after))

    def counter(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        fn = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every replaced attribute, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # --- analysis ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        # copies: a live view would stop the recording arrays from growing
        return {"name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy()}

    def durations(self, name: str) -> np.ndarray:
        """Durations of the spans of one name, in the order they started."""
        spans = self.arrays()
        mine = spans["name_id"] == self._name_ids.get(name, -1)
        return (spans["end"] - spans["start"])[mine]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        return summarise(self.names, **self.arrays())

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread of nested calls, so children of one parent do
    not overlap and their durations add up to the time they cover.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


def summarise(names: list[str], name_id: np.ndarray, start: np.ndarray,
              end: np.ndarray, parent: np.ndarray) -> dict[str, dict[str, float]]:
    own = self_times(start, end, parent)
    duration = end - start
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=duration, minlength=k)
    self_s = np.bincount(name_id, weights=own, minlength=k)
    return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(self_s[i])}
            for i, name in enumerate(names)}
