"""Spans and I/O counters measured from outside the program.

Bytes come from /proc/self/io (`rchar`/`wchar`, every thread of this
process); nothing reads the program's own counters. Spans are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class IOProbe:
    """Bytes this process read and wrote, less the probe's own reads."""

    def __init__(self):
        self._own_reads = 0
        self._lock = threading.Lock()

    def read(self) -> tuple[int, int]:
        with self._lock:
            fd = os.open("/proc/self/io", os.O_RDONLY)
            try:
                data = os.read(fd, 4096)
            finally:
                os.close(fd)
            fields = dict(line.split(b": ") for line in data.splitlines())
            # the figures exclude this read itself; later ones will not
            rchar = int(fields[b"rchar"]) - self._own_reads
            self._own_reads += len(data)
            return rchar, int(fields[b"wchar"])


@dataclass
class Span:
    op: int
    id: int
    parent: int
    layer: str
    name: str
    start_ns: int
    end_ns: int
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records spans around calls into the program's layers.

    The benchmark opens a span around each public call it makes; while
    `wrapped()` is active, the module-level names through which one layer
    calls another are replaced by timing wrappers as well. Spans opened by
    other threads (the fetch pool) are parented to the span the main thread
    has open.
    """

    def __init__(self, probe: IOProbe):
        self.probe = probe
        self.spans: list[Span] = []
        self.op = 0
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else 0

    def begin_op(self) -> None:
        self.op += 1

    @contextmanager
    def span(self, layer: str, name: str):
        """Time a call and record the bytes read and written during it; the
        caller may add counts to the yielded span's `info`."""
        stack = self._stack()
        s = Span(self.op, next(self._ids), self._parent(stack), layer, name, 0, 0)
        stack.append(s.id)
        r0, w0 = self.probe.read()
        s.start_ns = time.perf_counter_ns()
        try:
            yield s
        finally:
            s.end_ns = time.perf_counter_ns()
            r1, w1 = self.probe.read()
            stack.pop()
            s.info["read_bytes"] = r1 - r0
            s.info["write_bytes"] = w1 - w0
            self.spans.append(s)

    def _wrap(self, fn, layer: str, name: str, count_io: bool, note):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid, parent = next(tracer._ids), tracer._parent(stack)
            stack.append(sid)
            if count_io:
                r0 = tracer.probe.read()[0]
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
            info = note(result) if note else {}
            if count_io:
                info["read_bytes"] = tracer.probe.read()[0] - r0
            tracer.spans.append(Span(tracer.op, sid, parent, layer, name, t0, t1, info))
            return result

        return wrapper

    @contextmanager
    def wrapped(self, targets):
        """Install timing wrappers for `targets` and restore the originals on
        exit. A target that no longer exists is skipped and listed in
        `missing`."""
        installed = []
        missing = []
        for owner_path, attr, layer, name, count_io, note in targets:
            module_name, _, class_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, layer, name, count_io, note))
            installed.append((owner, attr, original))
        self.missing = missing
        try:
            yield
        finally:
            for owner, attr, original in reversed(installed):
                setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("op,span,parent,layer,name,start_ns,end_ns,info\n")
            for s in self.spans:
                info = ";".join(f"{k}={v}" for k, v in sorted(s.info.items()))
                f.write(f"{s.op},{s.id},{s.parent},{s.layer},{s.name},"
                        f"{s.start_ns},{s.end_ns},{info}\n")


# Names through which one layer calls another, as (owner, attribute, layer,
# span name, count bytes read, note on the result).
WRAP_TARGETS = [
    ("smokecurate.archive", "parse_granule", "granule", "parse", True,
     lambda g: {"frames": len(g.tflag)}),
    ("smokecurate.archive", "identity_or_resample", "regrid", "resample", False,
     lambda frame: {"resampled": int(frame.resampled)}),
    ("smokecurate.archive", "box_downsample", "archive", "pyramid", False, None),
    ("smokecurate.archive:CuratedArchive", "read_frame", "archive", "read_frame",
     False, None),
    ("smokecurate.indexer", "read_header", "granule", "header", False, None),
    ("smokecurate.granule", "julian_to_calendar", "timecal", "decode", False, None),
    ("smokecurate.indexer", "julian_to_calendar", "timecal", "decode", False, None),
    ("smokecurate.archive", "julian_to_calendar", "timecal", "decode", False, None),
]


def _covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return {s.id: (s.end_ns - s.start_ns
                   - _covered_ns(children.get(s.id, []), s.start_ns, s.end_ns)) / 1e9
            for s in spans}
