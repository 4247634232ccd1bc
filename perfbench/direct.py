"""The ``direct_fixedbase`` workload: the served fixed-base mix, in process.

The requests ``serve_fixedbase`` sends (the repo's ``DEFAULT_MIX``:
keygen 6 / ecdsa_sign 2 / schnorr_sign 1 / scalarmult-on-G 1, all on
secp160r1, inline keys) run one at a time through
``repro.serve.worker.execute_request`` on the process's ``WorkerState``:
the served compute path without the server's parsing, queueing, IPC and
replies.  Every reply is checked against the same request executed with
fixed-base tables switched off (``WorkerState(fixed_base=False)``, NAF
double-and-add), so the comb path is checked against a variable-base
reference.

One process on one core: unlike the served workloads, its host time
follows the host's speed, which :func:`measure.host_scale` tracks, so
its figures are steady in reference-host time.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import SpanRecorder, group_tail, host_scale, median

#: Distinct requests the stream draws from (the reference answer of each
#: is computed once).
POOL = 100
#: Requests between two :func:`host_scale` readings.
CHUNK = 100
#: Chunks between two calls of :meth:`DirectFixedbase.measure`'s *idle*.
IDLE_EVERY = 4
#: Latency limit for ``slo_ratio``: about 10x the direct-path time of
#: one request.
LIMIT_MS = 150.0


class DirectFixedbase:
    """Set-up (imports, suite, comb table, one request per op) and the
    timed request stream."""

    def __init__(self, seed: int):
        from repro.serve.loadgen import DEFAULT_MIX, build_requests

        self.pool = build_requests(POOL, DEFAULT_MIX, seed=seed)
        self.rng = random.Random(f"direct_fixedbase:{seed}")
        self.state = None
        self._reference = None
        self._want: Dict[int, Dict[str, Any]] = {}
        #: (host seconds, host scale, correct) per timed request, and
        #: (requests, reference seconds) per chunk.
        self.rows: List[Tuple[float, float, bool]] = []
        self.chunks: List[Tuple[int, float]] = []
        self.attempted = 0
        self.failed = 0

    def setup(self) -> None:
        from repro.serve.worker import worker_state

        self.state = worker_state()
        # The pool's head holds every op of the mix (the generator
        # interleaves the mix's pattern).
        for i in range(10):
            self.run(i)

    def run(self, idx: int) -> Tuple[float, bool]:
        """Execute pool request *idx*; ``(host seconds, correct)``."""
        from repro.serve.worker import execute_request

        t0 = time.perf_counter()
        reply = execute_request(self.pool[idx], self.state)
        wall = time.perf_counter() - t0
        want = self.expected(idx)
        good = bool(reply.get("ok") and want.get("ok")
                    and reply["result"] == want["result"])
        self.attempted += 1
        self.failed += not good
        return wall, good

    def expected(self, idx: int) -> Dict[str, Any]:
        from repro.serve.worker import WorkerState, execute_request

        want = self._want.get(idx)
        if want is None:
            if self._reference is None:
                self._reference = WorkerState(fixed_base=False)
            want = self._want[idx] = execute_request(self.pool[idx],
                                                     self._reference)
        return want

    def measure(self, seconds: float,
                recorder: Optional[SpanRecorder] = None,
                idle: Optional[Callable[[], None]] = None
                ) -> Dict[str, Any]:
        """Whole chunks of :data:`CHUNK` seeded requests until *seconds*
        would pass; *idle* runs after every :data:`IDLE_EVERY` chunks.
        Rows accumulate across calls; the summary covers this call's."""
        rows: List[Tuple[float, float, bool]] = []
        chunks: List[Tuple[int, float]] = []
        t0 = time.perf_counter()
        last_chunk = 0.0
        scale = host_scale()
        while not chunks or time.perf_counter() - t0 + last_chunk <= seconds:
            chunk_t0 = time.perf_counter()
            done = []
            for _ in range(CHUNK):
                idx = self.rng.randrange(POOL)
                if recorder is not None:
                    with recorder.span("direct.execute"):
                        done.append(self.run(idx))
                else:
                    done.append(self.run(idx))
            before, scale = scale, host_scale()
            chunk_scale = (before + scale) / 2
            rows += [(wall, chunk_scale, good) for wall, good in done]
            chunks.append((CHUNK, chunk_scale * sum(w for w, _ in done)))
            last_chunk = time.perf_counter() - chunk_t0
            if idle is not None and len(chunks) % IDLE_EVERY == 0:
                idle()
                scale = host_scale()
        self.rows += rows
        self.chunks += chunks
        return summarize(rows, chunks)


def summarize(rows: List[Tuple[float, float, bool]],
              chunks: List[Tuple[int, float]]) -> Dict[str, Any]:
    """Figures in reference-host time; ``slo_ratio`` holds host time to
    the limit, since that is what a caller waits."""
    lat_ms = [1e3 * wall * scale for wall, scale, _ in rows]
    tail_ms, tail_pct, beyond, groups = group_tail(lat_ms)
    return {
        "ops_per_s": median(n / ref_s for n, ref_s in chunks),
        "latency_p50_ms": median(lat_ms),
        "latency_tail_ms": tail_ms,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "tail_groups": groups,
        "slo_ratio": sum(1 for wall, _, good in rows
                         if good and 1e3 * wall <= LIMIT_MS) / len(rows),
        "requests": len(rows),
        "host_scale": median(scale for _, scale, _ in rows),
    }
