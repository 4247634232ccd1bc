"""The sans-IO admission core: every decision between a request line and
the batch queue, with no sockets and no event loop.

The asyncio front-end (:class:`~repro.serve.server.EccServer`) and the
pool-free direct path (:func:`~repro.serve.worker.execute_request`) run
this same code: decode (``BadRequest`` with the salvaged id), answer
``stats``, authorize and throttle tenants (``Unauthorized`` /
``QuotaExceeded``), answer the ``key_*`` ops, and admit the rest.  An
admitted request is a **copy** — the caller's dict is never mutated —
and a named-key use has the key's current generation pinned into
``params.key_generation`` and its ``token`` stripped, so a rotation
cannot retire the key under an in-flight batch and credentials never
enter a batch payload.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs.metrics import METRICS, render_prometheus
from ..obs.trace import new_trace_id
from . import protocol

__all__ = ["MAX_LINE", "Admission", "salvage_id"]

#: Longest request line accepted, in bytes without the newline:
#: asyncio's default ``StreamReader`` limit.  A longer line is answered
#: ``BadRequest`` and skipped up to its newline.
MAX_LINE = 64 * 1024

_REQUESTS = METRICS.counter(
    "serve_requests_total", "requests accepted off the wire")
_BAD = METRICS.counter(
    "serve_bad_requests_total", "lines rejected before queueing")

#: The first ``"id": N`` member: the id the head of an overlong line
#: still offers (canonical requests sort ``id`` before ``params``).
_HEAD_ID = re.compile(rb'[{,]\s*"id"\s*:\s*(\d+)\s*[,}]')

#: ``(reply, None)`` for a request answered at admission, ``(None,
#: admitted copy)`` for one that goes on to compute.
Decision = Tuple[Optional[Dict[str, Any]], Optional[Dict[str, Any]]]


def salvage_id(line: bytes) -> int:
    """Best-effort id recovery so even a BadRequest reply correlates."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        match = _HEAD_ID.search(line)
        return int(match.group(1)) if match else 0
    req_id = obj.get("id") if isinstance(obj, dict) else None
    if isinstance(req_id, int) and not isinstance(req_id, bool) \
            and req_id >= 0:
        return req_id
    return 0


class Admission:
    """Admission control over one writable key registry (*keys*).

    The other arguments describe the front-end that ``stats`` reports
    on; the defaults describe the direct path (no shard, no queue, no
    flight recorder, no stats board).  With *tracing*, an admitted
    request without a ``trace`` id gets a fresh one.
    """

    def __init__(self, keys, shard: Optional[int] = None,
                 queue_depth: Callable[[], int] = lambda: 0,
                 queue_capacity: int = 0, recorder=None, board=None,
                 tracing: bool = False):
        self.keys = keys
        self.shard = shard
        self.queue_depth = queue_depth
        self.queue_capacity = queue_capacity
        self.recorder = recorder
        self.board = board
        self.tracing = tracing

    def admit_line(self, line: bytes, overlong: bool = False) -> Decision:
        """Decode one wire line, then :meth:`admit` it.  *overlong* marks
        the head of a line over :data:`MAX_LINE` bytes."""
        try:
            if overlong:
                raise protocol.ProtocolError(
                    f"request line exceeds {MAX_LINE} bytes")
            request = protocol.decode_request(line)
        except protocol.ProtocolError as exc:
            _BAD.inc()
            return protocol.error_reply(
                salvage_id(line), "BadRequest", str(exc)), None
        _REQUESTS.inc()
        return self.admit(request)

    def admit(self, request: Dict[str, Any]) -> Decision:
        """Admit one validated request (inline replies echo its trace)."""
        op = request["op"]
        meta = {"trace": request["trace"]} if "trace" in request else None
        result = admitted = None
        try:
            if op == "stats":
                result = self.stats(request.get("params") or {})
            elif "tenant" not in request:
                admitted = dict(request)
            else:
                tenant = self.keys.authorize(request["tenant"],
                                             request.get("token"))
                METRICS.counter(
                    f"serve_tenant_{tenant.name}_requests_total").inc()
                self.keys.throttle(tenant)
                if op in protocol.KEY_OPS:
                    result = self._key_op(tenant.name, request)
                else:
                    admitted = self._pin(tenant.name, request)
        except protocol.ProtocolError as exc:
            return protocol.error_reply(request["id"], exc.error_type,
                                        str(exc), meta), None
        except Exception as exc:  # e.g. a failed journal write
            return protocol.error_reply(
                request["id"], "Internal", f"{type(exc).__name__}: {exc}",
                meta), None
        if admitted is None:
            return protocol.ok_reply(request["id"], result, meta), None
        if self.tracing and "trace" not in admitted:
            admitted["trace"] = new_trace_id()
        return None, admitted

    def _key_op(self, tenant: str, request: Dict[str, Any]) -> Dict[str, Any]:
        op, params = request["op"], request["params"]
        if op == "key_create":
            return self.keys.create(tenant, params["name"], request["curve"],
                                    params.get("seed"))
        if op == "key_rotate":
            return self.keys.rotate(tenant, params["name"],
                                    params.get("seed"))
        if op == "key_delete":
            return self.keys.delete(tenant, params["name"])
        return self.keys.info(tenant, params["name"])

    def _pin(self, tenant: str, request: Dict[str, Any]) -> Dict[str, Any]:
        """A named-key use without its token, generation pinned unless
        the client pinned one."""
        admitted = {k: v for k, v in request.items() if k != "token"}
        params = request["params"]
        if params.get("key_generation") is None:
            ref = self.keys.resolve(tenant, params["key"])
            admitted["params"] = dict(params, key_generation=ref.generation)
        return admitted

    # -- the stats op --------------------------------------------------------

    def stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The ``stats`` op's result (schema in :mod:`repro.serve.protocol`):
        shard-scope JSON, the Prometheus text of the whole registry
        (shard scope only), or the cluster-scope JSON aggregate."""
        fmt = params.get("format", "json")
        scope = params.get("scope", "shard")
        if scope not in ("shard", "cluster"):
            raise protocol.ProtocolError(
                f"stats scope must be 'shard' or 'cluster', got {scope!r}")
        if fmt == "prometheus":
            if scope == "cluster":
                raise protocol.ProtocolError(
                    "cluster scope is JSON-only; scrape each shard for "
                    "labelled expositions")
            METRICS.gauge("serve_queue_depth", "requests queued right now",
                          ).set(self.queue_depth())
            METRICS.gauge("serve_slowlog_size",
                          "traced requests held by the recorder",
                          ).set(len(self.recorder or ()))
            return {"format": "prometheus",
                    "text": render_prometheus(METRICS)}
        if fmt != "json":
            raise protocol.ProtocolError(
                f"stats format must be 'json' or 'prometheus', got {fmt!r}")
        if scope == "cluster":
            return self.cluster_payload()
        return self.shard_payload()

    def shard_payload(self) -> Dict[str, Any]:
        """This process's shard-scope JSON stats (also what the shard
        runtime publishes to the stats board)."""
        counters = {name: value
                    for name, value in METRICS.counters_snapshot().items()
                    if name.startswith(("serve_", "fixed_base_"))}
        batches = counters.get("serve_batches_total", 0)
        executed = counters.get("serve_worker_requests_total", 0)
        rec = self.recorder
        return {
            "format": "json",
            "scope": "shard",
            "shard": self.shard,
            "pid": os.getpid(),
            "queue_depth": self.queue_depth(),
            "queue_capacity": self.queue_capacity,
            "batch_occupancy": round(executed / batches, 3) if batches
            else 0.0,
            "counters": counters,
            "histograms": METRICS.histogram_summaries(prefix="serve_"),
            "slowlog": {"capacity": rec.capacity, "size": len(rec),
                        "recorded": rec.recorded} if rec is not None
            else {"capacity": 0, "size": 0, "recorded": 0},
            "tenants": self.keys.tenants_snapshot(),
        }

    def cluster_payload(self) -> Dict[str, Any]:
        """Cluster-scope aggregation over the shard stats board.

        Publishes this shard's own fresh payload first (so the answer
        is never staler than the asking request), then sums counters
        and queue state across every readable slot.  Without a board
        the answer is a one-shard cluster.  Histogram summaries are
        per-shard only — percentile summaries do not merge — so they
        stay inside each ``shards[i]`` payload.
        """
        own = self.shard_payload()
        if self.board is None:
            shards = [own]
        else:
            self.board.publish(self.shard or 0, own)
            shards = self.board.read_all()
        counters: Dict[str, float] = {}
        for payload in shards:
            for name, value in payload.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + value
        return {
            "format": "json",
            "scope": "cluster",
            "shard_count": len(shards),
            "queue_depth": sum(p.get("queue_depth", 0) for p in shards),
            "queue_capacity": sum(p.get("queue_capacity", 0)
                                  for p in shards),
            "counters": dict(sorted(counters.items())),
            "shards": shards,
        }
