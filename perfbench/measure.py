"""Statistics, span recording and host facts shared by every workload.

Spans are recorded in memory by the benchmark's own code, around calls
into the program's public entry points, and written out once as Chrome
trace JSON at the end of a traced run.  Nothing here imports ``repro``
at module load, so ``run.py`` can time the program's import as part of
set-up.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: A timing's tail is the highest percentile with at least this many
#: samples beyond it ...
TAIL_BEYOND = 10
#: ... but never below this percentile, so that a small sample (a dozen
#: ladders) still reports a tail above its median.
TAIL_MIN_PERCENTILE = 75.0
#: Samples per group in :func:`group_tail`.
TAIL_GROUP = 100


# -- statistics ---------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def tail(values: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the sample's tail.

    The tail is the highest percentile that still has
    :data:`TAIL_BEYOND` samples above it, or the
    :data:`TAIL_MIN_PERCENTILE` percentile if that is higher (a sample
    under 40); the count beyond then says how thin the tail is.
    Percentiles are nearest-rank.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, math.ceil(TAIL_MIN_PERCENTILE * n / 100), 1)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def group_tail(values: List[float]) -> Tuple[float, float, int, int]:
    """``(value, percentile, samples beyond, groups)`` of a long sample.

    Each run of :data:`TAIL_GROUP` consecutive samples gives its
    :func:`tail` (p90, 10 beyond), and the value is the median of those,
    so that a burst of contention from the host's other tenants moves
    one group, not the figure.  A sample shorter than one group is taken
    whole.
    """
    groups = [values[i:i + TAIL_GROUP]
              for i in range(0, len(values) - TAIL_GROUP + 1, TAIL_GROUP)]
    tails = [tail(g) for g in groups or [values]]
    return (median(t[0] for t in tails), median(t[1] for t in tails),
            min(t[2] for t in tails), len(tails))


# -- host speed ---------------------------------------------------------------

#: Iterations of :func:`reference_loop` per timing.
REF_ITERS = 60_000
#: Host seconds the reference loop takes on the reference host (this
#: repository's 2-vCPU benchmark host in its usual state).  Host-timed
#: end-to-end figures are scaled to that host: ``ref_s`` are host
#: seconds times :func:`host_scale`.
REF_LOOP_S = 0.010


def reference_loop(n: int = REF_ITERS) -> int:
    """Fixed interpreter work (list indexing, integer and bit operations,
    the mix the ISS and the field code run), owned by the benchmark so
    that no change to the program can move it."""
    acc = 0
    mem = [0] * 256
    for i in range(n):
        b = (mem[i & 255] + i) & 0xFF
        mem[(i * 7) & 255] = b
        acc ^= b << (i & 7)
    return acc


def host_scale(reps: int = 3) -> float:
    """Reference seconds per host second at this moment.

    The host shares its cores with other tenants, and its speed drifts by
    up to 2x over minutes; the fastest of *reps* reference loops tracks
    that drift, so a figure scaled by it tracks the program.
    """
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return REF_LOOP_S / best


# -- spans --------------------------------------------------------------------


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "parent", "req")

    def __init__(self, sid: int, name: str, t0: int, parent: Optional[int],
                 req: Optional[int]):
        self.sid = sid
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.parent = parent
        self.req = req

    @property
    def dur_ns(self) -> int:
        return self.t1 - self.t0


class SpanRecorder:
    """In-memory span store: name, start, end, parent and request id.

    Synchronous code nests spans through :meth:`span` (a stack gives the
    parent).  Asynchronous client requests, which overlap one another,
    are recorded whole with :meth:`add` and carry no parent.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.request: Optional[int] = None

    def add(self, name: str, t0_ns: int, t1_ns: int,
            req: Optional[int] = None) -> Span:
        span = Span(len(self.spans), name, t0_ns, None, req)
        span.t1 = t1_ns
        self.spans.append(span)
        return span

    def start(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter_ns(), parent,
                    self.request)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.t1 = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def span(self, name: str):
        return _SpanContext(self, name)

    def durations(self, name: str) -> List[int]:
        return [s.dur_ns for s in self.spans if s.name == name]

    def self_times(self) -> Dict[int, int]:
        """Per-span self time: duration minus the part its children cover."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        return {s.sid: s.dur_ns - covered(s, children.get(s.sid, ()))
                for s in self.spans}

    def self_time_by_name(self) -> Dict[str, List[int]]:
        own = self.self_times()
        out: Dict[str, List[int]] = {}
        for s in self.spans:
            out.setdefault(s.name, []).append(own[s.sid])
        return out

    def to_chrome(self) -> Dict[str, Any]:
        base = min((s.t0 for s in self.spans), default=0)
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "perfbench"}}]
        for s in self.spans:
            events.append({
                "ph": "X", "name": s.name, "cat": s.name.split(".")[0],
                "pid": 1, "tid": 0 if s.req is None else 1 + s.req % 64,
                "ts": (s.t0 - base) / 1000, "dur": s.dur_ns / 1000,
                "args": {"id": s.sid, "parent": s.parent, "req": s.req}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> Span:
        self.span = self.recorder.start(self.name)
        return self.span

    def __exit__(self, *exc: Any) -> None:
        self.recorder.end(self.span)


def covered(parent: Span, children: Iterable[Span]) -> int:
    """Nanoseconds of *parent* covered by the union of *children*."""
    total = 0
    cursor = parent.t0
    for c in sorted(children, key=lambda s: s.t0):
        lo = max(c.t0, cursor)
        hi = min(c.t1, parent.t1)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class Wrappers:
    """Span wrappers installed around public entry points, then removed.

    ``wrap(owner, attr, name)`` replaces ``owner.attr`` with a wrapper
    that records a span named *name*.  For a module-level function every
    loaded ``repro`` module that imported the same object by name is
    patched too, so calls through those imports are seen.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.start(name)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.end(span)

        targets = [owner]
        if not isinstance(owner, type):
            targets += [m for key, m in list(sys.modules.items())
                        if key.startswith("repro") and m is not owner
                        and getattr(m, attr, None) is original]
        for target in targets:
            self._undo.append((target, attr, original))
            setattr(target, attr, wrapper)

    def remove(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Wrappers":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.remove()


# -- host facts ---------------------------------------------------------------


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _children(pid: int) -> List[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(x) for x in fh.read().split()]
    except OSError:
        return []


def process_tree(pid: int) -> List[int]:
    """*pid* and all its descendants."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(_children(p))
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident sets (VmHWM) over *pid*'s process tree."""
    total_kb = 0
    for p in process_tree(pid):
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024


def source_digest(src_dir: str) -> str:
    """SHA-256 over the program's source files (the checkout has no .git)."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def fingerprint(root: str, seed: int) -> Dict[str, Any]:
    """Host class and code identity; results compare only within a class."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "REPRO_AVR_ENGINE": os.environ.get("REPRO_AVR_ENGINE"),
        "seed": seed,
        "commit": commit,
        "src_sha256": source_digest(os.path.join(root, "src")),
    }


def dump_json(path: str, obj: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
