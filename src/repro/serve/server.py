"""The asyncio front-end: batching, backpressure, and the worker pool.

Request lifecycle (the "per-stage" pipeline DESIGN.md §8 documents, each
stage metered).  One of these pipelines is a *shard*; ``--shards N``
runs N of them behind one listening port (SO_REUSEPORT, or the
port-per-shard redirector of :mod:`repro.serve.shard`), all of whose
workers attach one shared comb-table store::

    listen port (SO_REUSEPORT / redirector)
        |-- shard 0 ---------------------------------------------------.
        |   accept -> decode -> [bounded queue] -> batcher -> pool -> reply
        |                |            |               |          |
        |            BadRequest   Overloaded     (curve, op)  workers attach
        |            replies      load-shed      batching     the table store
        |-- shard 1 ... (same pipeline, own event loop + pool)

* **Backpressure** is an explicit bounded :class:`asyncio.Queue`
  (``queue_depth``).  A full queue does not slow the reader down — it
  sheds: the client gets a typed ``Overloaded`` reply immediately and
  the ``serve_shed_total`` counter ticks.  Per-request deadlines are
  honoured at dispatch time: a request whose budget elapsed while
  queued is answered ``DeadlineExceeded`` without touching a worker.
* **Batching**: the batcher drains whatever is queued, groups it by
  ``(op, curve)`` — compatible requests share worker-side state such as
  fixed-base tables and protocol objects — and dispatches chunks of at
  most ``batch_max`` to the :class:`~concurrent.futures
  .ProcessPoolExecutor`.  Batches from different groups run
  concurrently across workers.
* **Observability**: latency histograms (``serve_queue_us``,
  ``serve_worker_us``, ``serve_latency_us``, and one
  ``serve_op_latency_us_<op>_<curve>`` per op/curve pair) and
  throughput/shed counters live in the process-wide registry;
  worker-side counters merge in per batch reply (fork-safe by
  construction — see :mod:`repro.obs.metrics`).  When a tracer is
  installed each batch runs under a ``serve_batch`` span with
  queue/worker timing attrs.
* **Distributed tracing** (``--tracing``, or a client-set ``trace``
  field): traced requests carry their id through the queue, the batch
  and the worker, whose per-request span shard ships back with the
  batch reply; the server joins shard + stage timestamps into a
  :class:`~repro.obs.assemble.RequestTrace` and feeds the
  :class:`~repro.obs.assemble.FlightRecorder` tail-sampling ring
  (``--slowlog`` capacity, ``--slowlog-out`` Chrome-trace dump).
* **Admission** (:mod:`repro.serve.admission`): each line goes
  through the sans-IO admission core the direct path shares, which
  answers ``stats`` and the ``key_*`` ops inline, authorizes and
  throttles tenants, and hands back an admitted copy for the queue —
  so telemetry stays reachable even when the bounded queue is
  shedding.  A line over :data:`~repro.serve.admission.MAX_LINE`
  bytes is answered ``BadRequest`` and skipped to its newline; the
  connection keeps serving.
* **Self-healing pool**: when a worker dies the pool breaks; the next
  dispatch rebuilds it once (``serve_pool_restarts_total``), failing
  only the batch that was in flight with ``Internal``.

``python -m repro serve`` is this module's CLI; the in-process
:class:`EccServer` API is what the load generator, the benchmark
harness and the tests drive.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import signal
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs import trace as _trace
from ..obs.assemble import FlightRecorder, RequestTrace
from ..obs.metrics import METRICS
from ..scalarmult.fixed_base import DEFAULT_WIDTH
from . import protocol
from .admission import MAX_LINE, Admission
from .worker import execute_batch, init_worker

__all__ = ["ServeConfig", "EccServer", "main"]

_SHED = METRICS.counter(
    "serve_shed_total", "requests shed with an Overloaded reply")
_DEADLINE = METRICS.counter(
    "serve_deadline_total", "requests expired while queued")
_BATCHES = METRICS.counter(
    "serve_batches_total", "batches dispatched to the pool")
_REPLIES = METRICS.counter(
    "serve_replies_total", "replies written back to clients")
_POOL_RESTARTS = METRICS.counter(
    "serve_pool_restarts_total", "worker pools rebuilt after breaking")
_QUEUE_US = METRICS.histogram(
    "serve_queue_us", "time from enqueue to dispatch, microseconds")
_WORKER_US = METRICS.histogram(
    "serve_worker_us", "pool round-trip per batch, microseconds")
_LATENCY_US = METRICS.histogram(
    "serve_latency_us", "enqueue-to-reply per request, microseconds")


@dataclass
class ServeConfig:
    """Tunables of one server instance (all exposed as CLI flags)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral (the bound port lands in EccServer.port)
    workers: int = 2
    batch_max: int = 16
    queue_depth: int = 128
    #: Server-wide default deadline; None = requests wait indefinitely.
    deadline_ms: Optional[float] = None
    hardened: bool = False
    fixed_base: bool = True
    fb_width: int = DEFAULT_WIDTH
    #: Curve suites whose fixed-base tables each worker pre-builds.
    warm_curves: Tuple[str, ...] = ("secp160r1",)
    #: Attach pool workers to this shared comb-table store segment
    #: (:mod:`repro.scalarmult.table_store`); None = each worker builds
    #: its own tables (pre-shard behaviour).
    store_name: Optional[str] = None
    #: This server's index under the shard supervisor (labels metrics
    #: and the ``stats`` reply); None = unsharded.
    shard: Optional[int] = None
    #: Bind the listener with SO_REUSEPORT so sibling shard processes
    #: can share one (host, port) accept queue.
    reuse_port: bool = False
    #: Stamp a trace id on every accepted request (clients may also set
    #: their own ``trace`` field regardless of this switch).
    tracing: bool = False
    #: Flight-recorder capacity: the N slowest traced requests kept.
    slowlog: int = 64
    #: Dump the flight recorder as Chrome trace JSON here on stop().
    slowlog_out: Optional[str] = None
    #: Path of the named-key journal (:mod:`repro.serve.keys`).  None =
    #: the server materializes a private temp journal on start() and
    #: removes it on stop(); the shard supervisor sets one shared path
    #: so every shard (and every pool worker) sees the same keys.
    keys_journal: Optional[str] = None
    #: Strict-mode tenant config (``{name: {token, max_keys, rate,
    #: burst}}``, the parsed ``--tenants-file``); None = open tenancy
    #: (any well-formed tenant self-registers with its derived token).
    tenants: Optional[Dict[str, Dict[str, Any]]] = None


@dataclass
class _Pending:
    request: Dict[str, Any]
    future: "asyncio.Future[Dict[str, Any]]"
    t_enqueue: float
    deadline_s: Optional[float]  # absolute perf_counter() instant
    # Distributed-tracing fields (None/0 on the untraced hot path).
    trace_id: Optional[str] = None
    t_accept_ns: int = 0
    t_dispatch_ns: Optional[int] = None
    worker_pid: Optional[int] = None
    worker_spans: Optional[List[Dict[str, Any]]] = None
    batch_size: int = 0


class EccServer:
    """One TCP service instance bound to one worker pool."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.port: Optional[int] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._batcher: Optional[asyncio.Task] = None
        self._dispatches: set = set()
        self._connections: set = set()
        #: Last reported cumulative counters per worker pid (merge base).
        self._worker_baselines: Dict[int, Dict[str, float]] = {}
        #: Tail-sampling ring of the slowest traced requests (--slowlog).
        self.recorder = FlightRecorder(self.config.slowlog)
        #: Cross-shard stats board (:class:`~repro.serve.shard
        #: .StatsBoard`), installed by the shard runtime before start();
        #: None on an unsharded server.
        self.board = None
        #: Writable named-key registry (:mod:`repro.serve.keys`); built
        #: in start() over ``config.keys_journal``.
        self.keys = None
        #: The admission core over :attr:`keys`; built in start().
        self.admission: Optional[Admission] = None
        self._journal_owned = False  # temp journal to unlink on stop()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "EccServer":
        from .keys import KeyRegistry

        cfg = self.config
        if cfg.workers < 1:
            raise ValueError("need at least one worker")
        if cfg.keys_journal is None:
            # Standalone server: a private journal so keys still reach
            # the pool workers (they attach it read-only).  The shard
            # supervisor hands every shard one shared path instead.
            fd, cfg.keys_journal = tempfile.mkstemp(
                prefix="repro-keys-", suffix=".ndjson")
            os.close(fd)
            self._journal_owned = True
        self.keys = KeyRegistry(journal_path=cfg.keys_journal,
                                tenants=cfg.tenants)
        self._pool = self._new_pool()
        self._queue = asyncio.Queue(maxsize=cfg.queue_depth)
        self.admission = Admission(
            self.keys, shard=cfg.shard, queue_depth=self._queue.qsize,
            queue_capacity=cfg.queue_depth, recorder=self.recorder,
            board=self.board, tracing=cfg.tracing)
        self._batcher = asyncio.create_task(self._batch_loop())
        self._server = await asyncio.start_server(
            self._on_connection, cfg.host, cfg.port, limit=MAX_LINE,
            reuse_port=cfg.reuse_port or None)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def _new_pool(self) -> ProcessPoolExecutor:
        cfg = self.config
        return ProcessPoolExecutor(
            max_workers=cfg.workers,
            initializer=init_worker,
            initargs=(cfg.hardened, cfg.fb_width, cfg.fixed_base,
                      tuple(cfg.warm_curves), cfg.store_name,
                      cfg.keys_journal),
        )

    def _rebuild_pool(self, broken: ProcessPoolExecutor
                      ) -> ProcessPoolExecutor:
        """Replace the *broken* pool, once however many dispatches saw
        it break (no await between the check and the swap)."""
        if self._pool is broken:
            broken.shutdown(wait=False, cancel_futures=True)
            self._pool = self._new_pool()
            _POOL_RESTARTS.inc()
        return self._pool

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Unblock connection handlers parked in readline() so their
        # tasks finish before the loop tears them down.
        for writer in list(self._connections):
            writer.close()
        await asyncio.sleep(0)
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
        for task in list(self._dispatches):
            task.cancel()
        if self._dispatches:
            await asyncio.gather(*self._dispatches, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self.config.slowlog_out and len(self.recorder):
            written = self.recorder.dump(self.config.slowlog_out)
            print(f"slowlog: {written} slowest request trees -> "
                  f"{self.config.slowlog_out}", file=sys.stderr)
        if self._journal_owned and self.config.keys_journal:
            with contextlib.suppress(OSError):
                os.unlink(self.config.keys_journal)
            self._journal_owned = False

    async def __aenter__(self) -> "EccServer":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        reply_tasks: set = set()

        async def write_reply(reply: Dict[str, Any]) -> None:
            async with write_lock:
                writer.write(protocol.encode_reply(reply))
                await writer.drain()
            _REPLIES.inc()

        async def await_and_reply(pending: _Pending) -> None:
            reply = await pending.future
            lat_us = (time.perf_counter() - pending.t_enqueue) * 1e6
            _LATENCY_US.observe(lat_us)
            req = pending.request
            METRICS.histogram(
                f"serve_op_latency_us_{req['op']}_{req.get('curve') or 'all'}",
                "enqueue-to-reply per (op, curve), microseconds",
            ).observe(lat_us)
            if pending.trace_id is not None:
                reply.setdefault("meta", {})["trace"] = pending.trace_id
                self._record_trace(pending, reply)
            await write_reply(reply)

        try:
            while True:
                line, overlong = await _read_line(reader)
                if not line:
                    break
                if line.isspace():
                    continue
                reply, request = self.admission.admit_line(line, overlong)
                if reply is not None:
                    await write_reply(reply)
                    continue
                pending = self._make_pending(request)
                try:
                    self._queue.put_nowait(pending)
                except asyncio.QueueFull:
                    _SHED.inc()
                    await write_reply(protocol.error_reply(
                        request["id"], "Overloaded",
                        f"queue depth {self.config.queue_depth} exceeded; "
                        "retry with backoff"))
                    continue
                task = asyncio.create_task(await_and_reply(pending))
                reply_tasks.add(task)
                task.add_done_callback(reply_tasks.discard)
            if reply_tasks:
                await asyncio.gather(*reply_tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # server teardown: end the handler cleanly
        finally:
            self._connections.discard(writer)
            for task in reply_tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _make_pending(self, request: Dict[str, Any]) -> _Pending:
        now = time.perf_counter()
        deadline_ms = request.get("deadline_ms", self.config.deadline_ms)
        deadline_s = None if deadline_ms is None else now + deadline_ms / 1e3
        trace_id = request.get("trace")
        return _Pending(request=request,
                        future=asyncio.get_running_loop().create_future(),
                        t_enqueue=now, deadline_s=deadline_s,
                        trace_id=trace_id,
                        t_accept_ns=(time.perf_counter_ns()
                                     if trace_id is not None else 0))

    def _record_trace(self, pending: _Pending,
                      reply: Dict[str, Any]) -> None:
        """Close the book on one traced request: join-ready record in."""
        self.recorder.record(RequestTrace(
            trace_id=pending.trace_id,
            req_id=pending.request["id"],
            op=pending.request["op"],
            curve=pending.request.get("curve"),
            server_pid=os.getpid(),
            t_accept_ns=pending.t_accept_ns,
            t_dispatch_ns=pending.t_dispatch_ns,
            t_reply_ns=time.perf_counter_ns(),
            worker_pid=pending.worker_pid,
            worker_spans=pending.worker_spans or [],
            batch_size=pending.batch_size,
            status="ok" if reply.get("ok") else
                   reply.get("error", {}).get("type", "Internal"),
        ))

    # -- batching + dispatch -------------------------------------------------

    async def _batch_loop(self) -> None:
        """Drain the queue, group by (op, curve), dispatch chunks."""
        while True:
            items = [await self._queue.get()]
            while True:
                try:
                    items.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            groups: Dict[Tuple[str, Optional[str]], List[_Pending]] = {}
            for item in items:
                key = (item.request["op"], item.request.get("curve"))
                groups.setdefault(key, []).append(item)
            for group in groups.values():
                for i in range(0, len(group), self.config.batch_max):
                    chunk = group[i:i + self.config.batch_max]
                    task = asyncio.create_task(self._dispatch(chunk))
                    self._dispatches.add(task)
                    task.add_done_callback(self._dispatches.discard)

    async def _dispatch(self, chunk: List[_Pending]) -> None:
        now = time.perf_counter()
        now_ns = time.perf_counter_ns()
        live: List[_Pending] = []
        for item in chunk:
            _QUEUE_US.observe((now - item.t_enqueue) * 1e6)
            if item.deadline_s is not None and now > item.deadline_s:
                _DEADLINE.inc()
                item.future.set_result(protocol.error_reply(
                    item.request["id"], "DeadlineExceeded",
                    "deadline elapsed while queued"))
            else:
                if item.trace_id is not None:
                    item.t_dispatch_ns = now_ns
                live.append(item)
        if not live:
            return
        for item in live:
            item.batch_size = len(live)
        _BATCHES.inc()
        payload = [item.request for item in live]
        op, curve = live[0].request["op"], live[0].request.get("curve")
        tracer = _trace.CURRENT
        span = tracer.start("serve_batch", kind="serve", op=op,
                            curve=curve, batch=len(live)) if tracer else None
        t0 = time.perf_counter()
        loop = asyncio.get_running_loop()
        pool = self._pool
        try:
            try:
                future = loop.run_in_executor(pool, execute_batch, payload)
            except BrokenProcessPool:
                # The pool broke while idle: this batch never reached it.
                pool = self._rebuild_pool(pool)
                future = loop.run_in_executor(pool, execute_batch, payload)
            result = await future
        except Exception as exc:
            if isinstance(exc, BrokenProcessPool):
                self._rebuild_pool(pool)  # only this batch was in flight
            for item in live:
                if not item.future.done():
                    item.future.set_result(protocol.error_reply(
                        item.request["id"], "Internal",
                        f"worker pool failure: {type(exc).__name__}: {exc}"))
            return
        finally:
            if tracer is not None and span is not None:
                tracer.end(span)
        _WORKER_US.observe((time.perf_counter() - t0) * 1e6)
        self._merge_worker_metrics(result["pid"], result["metrics"])
        shards = result.get("spans") or [None] * len(live)
        for item, reply, shard in zip(live, result["replies"], shards):
            if item.trace_id is not None:
                item.worker_pid = result["pid"]
                item.worker_spans = shard
            if not item.future.done():
                item.future.set_result(reply)

    def _merge_worker_metrics(self, pid: int,
                              counters: Dict[str, float]) -> None:
        """Fold a worker's cumulative counters in as deltas vs the last
        report from that pid (worker restarts re-baseline cleanly)."""
        baseline = self._worker_baselines.get(pid, {})
        deltas = {}
        for name, value in counters.items():
            delta = value - baseline.get(name, 0)
            if delta < 0:  # restarted worker reusing a pid: re-baseline
                delta = value
            deltas[name] = delta
        METRICS.merge_counters(deltas)
        self._worker_baselines[pid] = counters

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Flat snapshot of the serve metrics (counters + histograms)."""
        snap = METRICS.snapshot()
        return {name: value for name, value in snap.items()
                if name.startswith(("serve_", "fixed_base_"))}

async def _read_line(reader: asyncio.StreamReader) -> Tuple[bytes, bool]:
    """The next request line and whether it overran :data:`MAX_LINE`.

    An overlong line comes back as its first chunk, with the rest
    discarded up to and including its newline (or EOF), so the
    connection resyncs on the next line.  ``b""`` means EOF.
    """
    try:
        return await reader.readuntil(b"\n"), False
    except asyncio.IncompleteReadError as exc:
        return exc.partial, False  # EOF: a last unterminated line, or b""
    except asyncio.LimitOverrunError as exc:
        head = await reader.readexactly(exc.consumed)
    while True:
        try:
            await reader.readuntil(b"\n")
            return head, True
        except asyncio.IncompleteReadError:
            return head, True
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)


async def _serve_forever(config: ServeConfig) -> int:
    server = EccServer(config)
    await server.start()
    print(f"repro.serve listening on {config.host}:{server.port} "
          f"({config.workers} workers, batch<={config.batch_max}, "
          f"queue_depth={config.queue_depth})", flush=True)
    loop = asyncio.get_running_loop()
    forever = asyncio.ensure_future(server._server.serve_forever())
    # SIGTERM must drain through stop() too, else the pool workers are
    # orphaned holding inherited fds (SIGINT already unwinds via
    # KeyboardInterrupt -> asyncio.run cancellation).
    with contextlib.suppress(NotImplementedError):
        loop.add_signal_handler(signal.SIGTERM, forever.cancel)
    try:
        await forever
    except asyncio.CancelledError:
        pass
    finally:
        with contextlib.suppress(NotImplementedError):
            loop.remove_signal_handler(signal.SIGTERM)
        await server.stop()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Batched multi-worker ECC service over "
                    "newline-delimited JSON / TCP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9477,
                        help="TCP port (default 9477; 0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes in the pool (per shard "
                             "when --shards > 1)")
    parser.add_argument("--shards", type=int, default=1,
                        help="accept-loop server processes sharing the "
                             "listening port (1 = single process; N > 1 "
                             "starts the shard supervisor with a shared "
                             "comb-table store)")
    parser.add_argument("--no-reuseport", action="store_true",
                        help="with --shards: force the port-per-shard "
                             "supervisor + round-robin redirector even "
                             "where SO_REUSEPORT is available")
    parser.add_argument("--no-store", action="store_true",
                        help="with --shards: skip the shared comb-table "
                             "store (each worker builds its own tables)")
    parser.add_argument("--batch-max", type=int, default=16,
                        help="max requests per dispatched batch")
    parser.add_argument("--queue-depth", type=int, default=128,
                        help="bounded queue size; beyond it requests are "
                             "shed with a typed Overloaded reply")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="server-wide default per-request deadline")
    parser.add_argument("--hardened", action="store_true",
                        help="run the fault-hardened protocol paths "
                             "(slower: redundancy + verify-after-sign)")
    parser.add_argument("--no-fixed-base", action="store_true",
                        help="disable fixed-base comb tables (baseline)")
    parser.add_argument("--fb-width", type=int, default=DEFAULT_WIDTH,
                        help="comb window width in bits")
    parser.add_argument("--warm", default="secp160r1",
                        help="comma-separated curves whose tables each "
                             "worker pre-builds ('' = none)")
    parser.add_argument("--tracing", action="store_true",
                        help="stamp a trace id on every request, collect "
                             "worker span shards and keep the slowest "
                             "request trees in the flight recorder")
    parser.add_argument("--slowlog", type=int, default=64,
                        help="flight-recorder capacity: N slowest traced "
                             "requests retained (default 64)")
    parser.add_argument("--slowlog-out", default=None, metavar="PATH",
                        help="dump the flight recorder as Chrome trace "
                             "JSON on shutdown")
    parser.add_argument("--keys-journal", default=None, metavar="PATH",
                        help="named-key journal path (append-only "
                             "NDJSON; survives restarts). Default: a "
                             "private temp file removed on shutdown")
    parser.add_argument("--tenants-file", default=None, metavar="PATH",
                        help="strict-tenancy config: JSON object of "
                             "{tenant: {token, max_keys, rate, burst}}. "
                             "Default: open tenancy with derived tokens")
    args = parser.parse_args(argv)
    warm = tuple(c for c in args.warm.split(",") if c)
    for curve in warm:
        if curve not in protocol.CURVES:
            parser.error(f"unknown curve {curve!r} in --warm")
    if args.slowlog < 1:
        parser.error("--slowlog must be >= 1")
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    tenants = None
    if args.tenants_file is not None:
        import json

        try:
            with open(args.tenants_file, encoding="utf-8") as fh:
                tenants = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"--tenants-file unreadable: {exc}")
        if not isinstance(tenants, dict) or not all(
                isinstance(name, str)
                and protocol.TENANT_NAME.fullmatch(name)
                and isinstance(spec, dict)
                for name, spec in tenants.items()):
            parser.error("--tenants-file must map tenant names "
                         "([a-z][a-z0-9_], max 24 chars) to config "
                         "objects")
    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        batch_max=args.batch_max, queue_depth=args.queue_depth,
        deadline_ms=args.deadline_ms, hardened=args.hardened,
        fixed_base=not args.no_fixed_base, fb_width=args.fb_width,
        warm_curves=warm, tracing=args.tracing, slowlog=args.slowlog,
        slowlog_out=args.slowlog_out, keys_journal=args.keys_journal,
        tenants=tenants,
    )
    if args.shards > 1:
        from .shard import run_cluster

        return run_cluster(config, shards=args.shards,
                           reuseport=False if args.no_reuseport else None,
                           store=not args.no_store)
    try:
        return asyncio.run(_serve_forever(config))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
