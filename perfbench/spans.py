"""In-memory span recorder wrapped around the program's layer entry points.

Each span records the entry point's name, start, end, the span that was
open on the same thread when it started (its parent) and an id — the
fleet tick on tick threads, the request sequence on the HTTP thread.
Spans stay in per-thread columnar buffers (no lock on the hot path) and
are written out once, when the run ends.

A layer's self time is its spans' duration minus the part covered by
their child spans.  Because spans on one thread nest, the self times of
all spans add up to the duration of the root spans, which is how each
workload shows that its layers account for the traced wall time.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: (owner class, attribute, span name, size fn evaluated at entry or None)
EntryPoint = Tuple[type, str, str, Optional[Callable[..., float]]]


class _ThreadSpans:
    """One thread's spans, appended in start order."""

    __slots__ = ("thread", "name", "start", "end", "parent", "ident",
                 "size", "stack", "current")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.ident = array("q")
        self.size = array("d")
        self.stack: List[int] = []
        #: id stamped on spans opened from now on (tick or request)
        self.current = 0


class SpanRecorder:
    """Span store plus the class-level wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._lock = threading.Lock()
        self._restore: List[Callable[[], None]] = []
        #: wrappers record only while True; a traced run flips it to
        #: time identical untraced work under the same wrappers
        self.active = True

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def buffer(self) -> _ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadSpans(threading.current_thread().name)
            self._local.buf = buf
            with self._lock:
                self._threads.append(buf)
        return buf

    def set_ident(self, ident: int) -> None:
        """Stamp spans opened on this thread from now on with ``ident``."""
        self.buffer().current = ident

    def open(self, name_id: int, size: float = 1.0) -> Tuple[_ThreadSpans, int]:
        buf = self.buffer()
        index = len(buf.start)
        buf.name.append(name_id)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.ident.append(buf.current)
        buf.size.append(size)
        buf.end.append(0.0)
        buf.stack.append(index)
        buf.start.append(self.clock())
        return buf, index

    def close(self, buf: _ThreadSpans, index: int) -> None:
        buf.end[index] = self.clock()
        buf.stack.pop()

    def span(self, name: str, size: float = 1.0) -> "_SpanContext":
        """Context manager for a span around benchmark-side code."""
        return _SpanContext(self, self.name_id(name), size)

    # ------------------------------------------------------------------
    # wrapping entry points
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: type,
        attr: str,
        name: str,
        size: Optional[Callable[..., float]] = None,
        *,
        new_ident: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Class-level, so bound methods captured *after* this call (timer
        callbacks, ``on_record`` hooks) record too.  ``size`` receives
        the call's arguments and gives the span's work count (rows,
        windows); ``new_ident`` gives each call its own id (requests).
        """
        original = owner.__dict__[attr]
        static = isinstance(original, staticmethod)
        func = original.__func__ if static else original
        name_id = self.name_id(name)
        recorder = self

        def traced(*args, **kwargs):
            if not recorder.active:
                return func(*args, **kwargs)
            buf = recorder.buffer()
            if new_ident:
                buf.current += 1
            weight = 1.0 if size is None else float(size(*args, **kwargs))
            span, index = recorder.open(name_id, weight)
            try:
                return func(*args, **kwargs)
            finally:
                recorder.close(span, index)

        traced.__wrapped__ = func  # type: ignore[attr-defined]
        setattr(owner, attr, staticmethod(traced) if static else traced)
        self._restore.append(lambda: setattr(owner, attr, original))

    def wrap_all(self, entry_points: Sequence[EntryPoint]) -> None:
        for owner, attr, name, size in entry_points:
            self.wrap(owner, attr, name, size)

    def unwrap(self) -> None:
        """Put every wrapped entry point back, newest first."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def threads(self) -> List[_ThreadSpans]:
        with self._lock:
            return list(self._threads)

    def table(self, thread: Optional[str] = None) -> Dict[str, np.ndarray]:
        """All closed spans (one thread's, or every thread's) as columns."""
        parts: Dict[str, List[np.ndarray]] = {k: [] for k in _COLUMNS}
        parts["self"] = []
        for buf in self.threads():
            if thread is not None and buf.thread != thread:
                continue
            cols = _columns(buf)
            cols["self"] = self_times(
                cols["start"], cols["end"], cols["parent"]
            )
            # a span still open when the run ended has no end yet
            closed = cols["end"] > 0.0
            for key, values in cols.items():
                parts[key].append(values[closed])
        return {
            k: (np.concatenate(v) if v else np.zeros(0, _COLUMNS.get(k, np.float64)))
            for k, v in parts.items()
        }

    def layer_totals(
        self, thread: Optional[str] = None
    ) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, summed size, total and self seconds."""
        tab = self.table(thread)
        out: Dict[str, Dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            mask = tab["name"] == name_id
            out[name] = {
                "calls": float(mask.sum()),
                "size": float(tab["size"][mask].sum()),
                "total_s": float((tab["end"][mask] - tab["start"][mask]).sum()),
                "self_s": float(tab["self"][mask].sum()),
            }
        return out

    def root_seconds(self, thread: Optional[str] = None) -> float:
        """Summed duration of root spans (= summed self time of all)."""
        tab = self.table(thread)
        roots = tab["parent"] < 0
        return float((tab["end"][roots] - tab["start"][roots]).sum())

    def save(self, path: Path) -> None:
        """Write every span, once, at the end of the run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        parts = {}
        for i, buf in enumerate(self.threads()):
            for key, values in _columns(buf).items():
                parts[f"t{i}_{key}"] = values
        parts["meta"] = np.frombuffer(
            json.dumps(
                {"names": self.names,
                 "threads": [b.thread for b in self.threads()]}
            ).encode("utf-8"),
            dtype=np.uint8,
        )
        tmp = path.with_suffix(".tmp.npz")
        np.savez(tmp, **parts)
        tmp.replace(path)


#: span columns and their dtypes (array typecodes match, 64-bit Linux)
_COLUMNS = {
    "name": np.int32,
    "start": np.float64,
    "end": np.float64,
    "parent": np.int64,
    "ident": np.int64,
    "size": np.float64,
}


def _columns(buf: _ThreadSpans) -> Dict[str, np.ndarray]:
    """Copies of a buffer's spans (slicing copies the array, so no
    buffer export pins the live one against further appends)."""
    n = len(buf.start)
    return {
        key: np.frombuffer(getattr(buf, key)[:n], dtype=dtype)
        for key, dtype in _COLUMNS.items()
    }


class _SpanContext:
    __slots__ = ("recorder", "name_id", "size", "token")

    def __init__(self, recorder: SpanRecorder, name_id: int, size: float):
        self.recorder = recorder
        self.name_id = name_id
        self.size = size

    def __enter__(self) -> None:
        self.token = self.recorder.open(self.name_id, self.size)

    def __exit__(self, *exc) -> None:
        self.recorder.close(*self.token)


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Duration of each span minus the summed duration of its children.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other: subtracting their durations removes
    exactly the part of the parent's interval they cover.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call costs over a bare call (calibration)."""

    class _Probe:
        def hit(self) -> None:
            return None

    probe = _Probe()
    bare = _Probe.hit
    t0 = time.perf_counter()
    for _ in range(calls):
        bare(probe)
    t_bare = time.perf_counter() - t0
    recorder = SpanRecorder()
    recorder.wrap(_Probe, "hit", "probe")
    try:
        t0 = time.perf_counter()
        for _ in range(calls):
            probe.hit()
        t_traced = time.perf_counter() - t0
    finally:
        recorder.unwrap()
    return max(0.0, (t_traced - t_bare) / calls)
