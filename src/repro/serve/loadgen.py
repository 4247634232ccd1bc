"""Deterministic load generator: request streams and the three drivers.

``python -m repro loadgen`` builds a reproducible request stream from a
seed and a mix spec, drives it at a server (external ``--target``, an
in-process server with ``--workers N``, or the pool-free direct path
with ``--workers 0``), and writes a **byte-stable** JSONL summary:
every request's reply keyed by id, canonical JSON, no timestamps — two
runs with the same seed against a correct server produce identical
bytes.  That property is the serve determinism gate (``--check`` runs
the stream twice against fresh servers and compares).

The three drivers — :func:`run_direct` (one request at a time, in
process, no server), :func:`run_served` (an external ``--target`` or a
fresh in-process server) and :func:`run_sharded` (a fresh N-shard
cluster of :mod:`repro.serve.shard`) — are also the legs of the serve
benchmark suite, ``python -m repro bench serve``
(:mod:`repro.analysis.bench`), which times them and enforces its
floors.

``--tenants N`` switches the run to named-key mode: the
secret-bearing ops in the mix reference per-tenant server-resident
keys (created by a deterministic setup phase before the clock starts)
instead of carrying inline scalars, spread round-robin over N tenants.

``--trace`` turns on request tracing for the run: every reply's trace
id is joined into a cross-process span tree by
:mod:`repro.obs.assemble`, the merged Chrome export is schema-checked,
and ``--slowlog PATH`` dumps the slowest trees.  ``--scrape`` pulls the
Prometheus text exposition through the wire after the run.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..curves.params import CurveSuite, make_suite
from ..obs.assemble import FlightRecorder, RequestTrace, assemble, \
    records_to_chrome
from ..obs.export import validate_chrome
from ..scalarmult import adapter_for, montgomery_ladder_x, scalar_mult_naf
from . import protocol, worker
from .client import AsyncServeClient
from .keys import tenant_token
from .protocol import to_hex
from .server import EccServer, ServeConfig
from .worker import WorkerState, derive_scalar, execute_request

__all__ = [
    "DEFAULT_MIX",
    "build_key_setup",
    "build_requests",
    "main",
    "parse_mix",
    "percentile",
    "run_direct",
    "run_served",
    "run_sharded",
    "summarize",
]

#: Ops the generator can synthesise parameters for without a prior
#: server round-trip (the verify ops need a signature to verify and are
#: exercised by the test suite instead).
LOADGEN_OPS = frozenset(
    {"keygen", "ecdh", "scalarmult", "ecdsa_sign", "schnorr_sign"})

DEFAULT_MIX = ("keygen:secp160r1=6,ecdsa_sign:secp160r1=2,"
               "schnorr_sign:secp160r1=1,scalarmult:secp160r1=1")


# -- request synthesis -------------------------------------------------------


def parse_mix(spec: str) -> List[Tuple[Tuple[str, str], int]]:
    """``op:curve=weight,...`` -> [((op, curve), weight)] (order kept)."""
    entries: List[Tuple[Tuple[str, str], int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            opcurve, weight_s = part.split("=")
            op, curve = opcurve.split(":")
            weight = int(weight_s)
        except ValueError:
            raise ValueError(
                f"mix entry {part!r} is not op:curve=weight") from None
        if op not in LOADGEN_OPS:
            raise ValueError(
                f"op {op!r} not generatable; pick from {sorted(LOADGEN_OPS)}")
        spec_op = protocol.OPS[op]
        if curve not in spec_op.curves:
            raise ValueError(
                f"op {op!r} does not run on curve {curve!r} "
                f"(supported: {sorted(spec_op.curves)})")
        if weight < 1:
            raise ValueError(f"weight must be >= 1 in {part!r}")
        entries.append(((op, curve), weight))
    if not entries:
        raise ValueError("mix selects no operations")
    return entries


class _SuiteCache:
    def __init__(self):
        self._suites: Dict[str, CurveSuite] = {}

    def __call__(self, key: str) -> CurveSuite:
        suite = self._suites.get(key)
        if suite is None:
            suite = self._suites[key] = make_suite(key)
        return suite


def _peer_param(suites: _SuiteCache, curve: str, seed: str) -> Any:
    """A deterministic valid peer public key for ecdh requests."""
    suite = suites(curve)
    tag = f"{seed}:peer:{curve}"
    if curve == "montgomery":
        private = derive_scalar(tag, bits=suite.scalar_bits)
        xz = montgomery_ladder_x(suite.curve, private, suite.base,
                                 bits=suite.scalar_bits)
        return to_hex(suite.curve.x_affine(xz).to_int())
    private = derive_scalar(tag, order=suite.order)
    public = scalar_mult_naf(adapter_for(suite.curve, suite.base), private)
    return {"x": to_hex(public.x.to_int()), "y": to_hex(public.y.to_int())}


def _key_name(curve: str) -> str:
    """The loadgen's per-curve named-key name (one key per tenant per
    curve keeps the setup phase small)."""
    return f"lg-{curve}"


def build_key_setup(tenants: int, mix: str = DEFAULT_MIX,
                    seed: int = 0) -> List[Dict[str, Any]]:
    """The deterministic ``key_create`` phase for a named-key stream.

    One key per (tenant, curve-with-a-secret-op-in-the-mix) pair, ids
    from 1000001 so they never collide with stream ids.  Driven before
    the clock starts; :func:`build_requests` with the same *tenants*
    emits the matching ``params.key`` references.
    """
    weights = parse_mix(mix)
    curves = sorted({curve for (op, curve), _ in weights
                     if protocol.OPS[op].secret is not None})
    requests: List[Dict[str, Any]] = []
    rid = 1000000
    for t in range(tenants):
        tenant = f"t{t}"
        for curve in curves:
            rid += 1
            requests.append({
                "id": rid, "op": "key_create", "curve": curve,
                "params": {"name": _key_name(curve),
                           "seed": f"lg:{seed}"},
                "tenant": tenant, "token": tenant_token(tenant)})
    return requests


def build_requests(n: int, mix: str = DEFAULT_MIX, seed: int = 0,
                   tenants: int = 0) -> List[Dict[str, Any]]:
    """The deterministic request stream: same (n, mix, seed) -> same list.

    With ``tenants > 0`` the secret-bearing ops (sign, ECDH) reference
    the per-tenant server-resident keys of :func:`build_key_setup`
    (``params.key``) instead of carrying inline scalars, round-robin
    over ``t0 .. t<tenants-1>`` — still fully deterministic, since the
    named keys derive from the same seed machinery.
    """
    weights = parse_mix(mix)
    pattern: List[Tuple[str, str]] = []
    for opcurve, weight in weights:
        pattern.extend([opcurve] * weight)
    suites = _SuiteCache()
    peers: Dict[str, Any] = {}
    requests: List[Dict[str, Any]] = []
    for i in range(n):
        op, curve = pattern[i % len(pattern)]
        tag = hashlib.sha256(
            f"repro-loadgen:{seed}:{i}".encode()).hexdigest()
        named = tenants > 0 and protocol.OPS[op].secret is not None
        if op == "keygen":
            params: Dict[str, Any] = {"seed": tag}
        elif op == "scalarmult":
            params = {"k": to_hex(derive_scalar(tag))}
        elif op == "ecdh":
            if curve not in peers:
                peers[curve] = _peer_param(suites, curve, str(seed))
            if named:
                params = {"key": _key_name(curve), "peer": peers[curve]}
            else:
                suite = suites(curve)
                if curve == "montgomery":
                    private = derive_scalar(tag, bits=suite.scalar_bits)
                elif suite.order is not None:
                    private = derive_scalar(tag, order=suite.order)
                else:
                    private = derive_scalar(tag)
                params = {"private": to_hex(private),
                          "peer": peers[curve]}
        else:  # ecdsa_sign / schnorr_sign: order curves only (parse_mix)
            if named:
                params = {"key": _key_name(curve), "msg": tag}
            else:
                suite = suites(curve)
                params = {"private": to_hex(derive_scalar(
                    tag, order=suite.order)), "msg": tag}
        request = {"id": i + 1, "op": op, "curve": curve,
                   "params": params}
        if named:
            tenant = f"t{i % tenants}"
            request["tenant"] = tenant
            request["token"] = tenant_token(tenant)
        requests.append(request)
    return requests


def summarize(requests: Sequence[Dict[str, Any]],
              replies: Sequence[Dict[str, Any]]) -> bytes:
    """The byte-stable JSONL: one canonical line per request, id order.

    Deliberately carries no timestamps or latencies — only fields that
    are deterministic under a fixed seed, so the bytes double as the
    determinism gate's comparison key.
    """
    lines = []
    for req, reply in zip(requests, replies):
        row: Dict[str, Any] = {"id": req["id"], "op": req["op"],
                               "curve": req.get("curve"),
                               "ok": reply["ok"]}
        row["result" if reply["ok"] else "error"] = (
            reply["result"] if reply["ok"] else reply["error"])
        lines.append(json.dumps(row, sort_keys=True, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode()


# -- execution paths ---------------------------------------------------------


def run_direct(requests: Sequence[Dict[str, Any]],
               fixed_base: bool = True,
               warm: Sequence[str] = ("secp160r1",),
               setup: Sequence[Dict[str, Any]] = ()
               ) -> Tuple[List[Dict[str, Any]], float]:
    """One request at a time, in-process, no server: the baseline path.

    With ``fixed_base=False`` this is exactly the repository's pre-serve
    capability — variable-base NAF per request.  Table builds happen
    before the clock starts so the wall time measures steady state.
    A named-key *setup* phase (``build_key_setup``) runs against a
    fresh in-process key registry, also before the clock.
    """
    state = WorkerState(fixed_base=fixed_base)
    state.warm(warm)
    if setup:
        # Fresh registry per run so --check's second pass can re-create
        # the same keys (the direct path's registry is process-global).
        worker._KEYS = None
        for req in setup:
            reply = execute_request(req, state)
            if not reply["ok"]:
                raise RuntimeError(
                    f"direct key setup failed: {reply['error']}")
    t0 = time.perf_counter()
    replies = [execute_request(req, state) for req in requests]
    return replies, time.perf_counter() - t0


async def _drive(targets: Sequence[Tuple[str, int]],
                 requests: Sequence[Dict[str, Any]],
                 rate: float = 0.0,
                 client_times: Optional[Dict[str, Tuple[int, int]]] = None,
                 connections: int = 1
                 ) -> Tuple[List[Dict[str, Any]], List[float], float]:
    """Pipeline the stream at *targets*; per-request latencies in ms.

    Opens ``connections`` client connections, connection *j* to
    ``targets[j % len(targets)]`` (deterministic round-robin — this is
    how the shard benchmark spreads load without depending on the
    kernel's SO_REUSEPORT hashing), and sends request *i* down
    connection ``i % connections``.  The single-server single-connection
    case is ``targets=[(host, port)], connections=1``.

    With *client_times*, each traced reply's send/receive
    ``perf_counter_ns`` stamps are stored under its trace id — the
    client half of the joined span tree.
    """
    if not targets:
        raise ValueError("need at least one (host, port) target")
    connections = max(1, min(connections, max(1, len(requests))))
    clients = []
    try:
        for j in range(connections):
            host, port = targets[j % len(targets)]
            clients.append(await AsyncServeClient.connect(host, port))
        latencies: List[float] = [0.0] * len(requests)
        loop = asyncio.get_running_loop()
        t_start = loop.time()

        async def one(i: int, req: Dict[str, Any]) -> Dict[str, Any]:
            if rate > 0:
                delay = t_start + i / rate - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
            t0_ns = time.perf_counter_ns()
            reply = await clients[i % connections].call_raw_one(req)
            t1_ns = time.perf_counter_ns()
            latencies[i] = (t1_ns - t0_ns) / 1e6
            if client_times is not None:
                trace_id = (reply.get("meta") or {}).get("trace")
                if trace_id:
                    client_times[trace_id] = (t0_ns, t1_ns)
            return reply

        t0 = time.perf_counter()
        replies = list(await asyncio.gather(
            *(one(i, req) for i, req in enumerate(requests))))
        wall = time.perf_counter() - t0
    finally:
        for client in clients:
            await client.close()
    return replies, latencies, wall


async def _scrape(host: str, port: int) -> str:
    """One wire round-trip of the Prometheus stats exposition."""
    async with await AsyncServeClient.connect(host, port) as client:
        return await client.stats(format="prometheus")


async def _run_setup(targets: Sequence[Tuple[str, int]],
                     setup: Sequence[Dict[str, Any]]) -> None:
    """Drive a ``key_create`` setup phase (untimed) and insist it took."""
    if not setup:
        return
    replies, _lat, _wall = await _drive(targets, setup)
    bad = [r for r in replies if not r["ok"]]
    if bad:
        raise RuntimeError(f"key setup failed: {bad[0]['error']}")


async def run_served(requests: Sequence[Dict[str, Any]],
                     workers: int = 1, rate: float = 0.0,
                     target: Optional[Tuple[str, int]] = None,
                     batch_max: int = 16,
                     queue_depth: Optional[int] = None,
                     fixed_base: bool = True,
                     warm: Sequence[str] = ("secp160r1",),
                     tracing: bool = False,
                     trace_sink: Optional[List[RequestTrace]] = None,
                     scrape_sink: Optional[List[str]] = None,
                     client_times: Optional[Dict[str, Tuple[int, int]]] = None,
                     connections: int = 1,
                     setup: Sequence[Dict[str, Any]] = (),
                     tenants_config: Optional[Dict[str, Any]] = None
                     ) -> Tuple[List[Dict[str, Any]], List[float], float]:
    """Drive the stream at ``target`` or a fresh in-process server.

    ``connections`` client connections share the stream round-robin
    (the high-concurrency mode; default one pipelined connection).
    A named-key *setup* phase (``build_key_setup``) is driven before
    the timed stream; ``tenants_config`` applies a strict-tenancy /
    quota config to the in-process server (:class:`~repro.serve.server
    .ServeConfig` ``tenants``).  In-process extras: ``tracing`` turns
    on server-side trace stamping, ``trace_sink`` receives the server's
    :class:`RequestTrace` records after the run, ``scrape_sink``
    receives one Prometheus exposition scraped through the wire while
    the server is still up, and ``client_times`` collects client-side
    stamps (see :func:`_drive`).
    """
    if target is not None:
        await _run_setup([target], setup)
        result = await _drive([target], requests, rate, client_times,
                              connections)
        if scrape_sink is not None:
            scrape_sink.append(await _scrape(target[0], target[1]))
        return result
    if queue_depth is None:
        # Open-loop pipelining enqueues the whole stream at once; size
        # the queue so the loadgen itself never triggers load-shedding.
        queue_depth = max(2 * len(requests), 128)
    # When the caller wants every record, the flight recorder must not
    # evict: size it past the stream length.
    slowlog = max(64, 2 * len(requests)) if trace_sink is not None else 64
    config = ServeConfig(port=0, workers=workers, batch_max=batch_max,
                         queue_depth=queue_depth, fixed_base=fixed_base,
                         warm_curves=tuple(warm), tracing=tracing,
                         slowlog=slowlog, tenants=tenants_config)
    server = EccServer(config)
    await server.start()
    try:
        await _run_setup([(config.host, server.port)], setup)
        result = await _drive([(config.host, server.port)], requests,
                              rate, client_times, connections)
        if scrape_sink is not None:
            scrape_sink.append(await _scrape(config.host, server.port))
        if trace_sink is not None:
            trace_sink.extend(server.recorder.slowest())
        return result
    finally:
        await server.stop()


async def run_sharded(requests: Sequence[Dict[str, Any]],
                      shards: int, workers: int = 1,
                      connections: Optional[int] = None,
                      rate: float = 0.0, batch_max: int = 16,
                      fixed_base: bool = True,
                      warm: Sequence[str] = ("secp160r1",),
                      reuseport: bool = False,
                      setup: Sequence[Dict[str, Any]] = (),
                      tenants_config: Optional[Dict[str, Any]] = None
                      ) -> Tuple[List[Dict[str, Any]], List[float], float]:
    """Drive the stream at a fresh N-shard cluster of
    :mod:`repro.serve.shard`.

    Defaults to port-per-shard mode with the client round-robining its
    connections across the shards' direct ports — deterministic load
    placement, which is what the benchmark legs need (the kernel's
    SO_REUSEPORT hashing assigns whole connections arbitrarily).  With
    ``reuseport=True`` every connection goes to the one shared public
    port instead.  ``connections`` defaults to ``4 * shards`` so each
    shard sees concurrent load.  A named-key *setup* phase is driven
    through shard 0 only — the cross-shard journal is what makes the
    keys visible to every other shard, so this doubles as a live
    exercise of that property.
    """
    from .shard import ShardCluster  # deferred: keeps import cycles out

    if connections is None:
        connections = 4 * shards
    queue_depth = max(2 * len(requests), 128)
    config = ServeConfig(port=0, workers=workers, batch_max=batch_max,
                         queue_depth=queue_depth, fixed_base=fixed_base,
                         warm_curves=tuple(warm), tenants=tenants_config)
    cluster = ShardCluster(shards, config, reuseport=reuseport)
    await cluster.start()
    try:
        if reuseport:
            targets = [(config.host, cluster.port)]
        else:
            targets = [(config.host, port)
                       for port in cluster.shard_ports if port is not None]
        await _run_setup(targets[:1], setup)
        return await _drive(targets, requests, rate,
                            connections=connections)
    finally:
        await cluster.stop()


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile of an ascending list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1,
              max(0, round(q / 100.0 * (len(sorted_values) - 1))))
    return sorted_values[idx]


def _latency_report(latencies: Sequence[float], wall: float,
                    n_err: int) -> str:
    ordered = sorted(latencies)
    n = len(ordered)
    ops = n / wall if wall > 0 else 0.0
    return (f"{n} requests in {wall:.2f} s ({ops:.1f} ops/s), "
            f"{n_err} errors; latency ms "
            f"p50={percentile(ordered, 50):.1f} "
            f"p95={percentile(ordered, 95):.1f} "
            f"p99={percentile(ordered, 99):.1f}")


# -- trace reporting ---------------------------------------------------------


def _report_traces(records: List[RequestTrace],
                   client_times: Dict[str, Tuple[int, int]],
                   replies: Sequence[Dict[str, Any]],
                   slowlog_path: Optional[str]) -> int:
    """Join, validate and (optionally) dump the run's trace records.

    Every traced reply must resolve to an assembled span tree and the
    merged Chrome export must pass :func:`validate_chrome`; returns a
    shell exit code.
    """
    for rec in records:
        stamps = client_times.get(rec.trace_id)
        if stamps is not None:
            rec.client_t0_ns, rec.client_t1_ns = stamps
    trees = assemble(records)
    chrome = records_to_chrome(records)
    validate_chrome(chrome)
    traced = [r for r in replies if (r.get("meta") or {}).get("trace")]
    joined = sum(1 for r in traced if r["meta"]["trace"] in trees)
    print(f"tracing: {joined}/{len(traced)} traced replies joined into "
          f"span trees ({len(chrome['traceEvents'])} chrome events, "
          "validate_chrome clean)", file=sys.stderr)
    if not traced or joined != len(traced):
        print("loadgen --trace: FAIL, not every reply resolved to an "
              "assembled span tree", file=sys.stderr)
        return 1
    if slowlog_path:
        ring = FlightRecorder(capacity=min(32, max(1, len(records))))
        for rec in records:
            ring.record(rec)
        written = ring.dump(slowlog_path)
        print(f"slowlog: wrote the {written} slowest request trees to "
              f"{slowlog_path}", file=sys.stderr)
    return 0


# -- CLI ---------------------------------------------------------------------


def _parse_target(text: str) -> Tuple[str, int]:
    host, _, port_s = text.rpartition(":")
    try:
        return (host or "127.0.0.1"), int(port_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"target must be host:port, got {text!r}") from None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro loadgen",
        description="Deterministic ECC-service load generator.",
    )
    parser.add_argument("--target", type=_parse_target, default=None,
                        help="host:port of a running server (default: "
                             "start an in-process one)")
    parser.add_argument("--workers", type=int, default=1,
                        help="in-process server pool size; 0 = no server "
                             "(direct in-process execution); per shard "
                             "with --shards")
    parser.add_argument("--shards", type=int, default=0,
                        help="drive a fresh N-shard cluster (port-per-"
                             "shard, deterministic round-robin); 0 = "
                             "single server (default)")
    parser.add_argument("--connections", type=int, default=0,
                        help="client connections to spread the stream "
                             "over (default 1, or 4 per shard with "
                             "--shards)")
    parser.add_argument("--n", type=int, default=200,
                        help="requests to send (ignored with --duration)")
    parser.add_argument("--mix", default=DEFAULT_MIX,
                        help="op:curve=weight list (default: %(default)s)")
    parser.add_argument("--rate", type=float, default=0.0,
                        help="requests per second; 0 = open loop "
                             "(pipeline everything at once)")
    parser.add_argument("--duration", type=float, default=None,
                        help="seconds to run at --rate (sets n = "
                             "rate * duration; requires --rate > 0)")
    parser.add_argument("--seed", type=int, default=7,
                        help="stream seed; same seed -> same bytes")
    parser.add_argument("--tenants", type=int, default=0,
                        help="spread secret-bearing ops over N tenants "
                             "using server-resident named keys (one "
                             "untimed key_create per tenant and curve "
                             "before the stream); 0 = inline secrets "
                             "(default)")
    parser.add_argument("--out", default="-",
                        help="JSONL summary path ('-' = stdout)")
    parser.add_argument("--check", action="store_true",
                        help="determinism gate: run the stream twice "
                             "against fresh servers, require zero errors "
                             "and identical summary bytes")
    parser.add_argument("--no-fixed-base", action="store_true",
                        help="disable fixed-base tables on the in-process "
                             "server / direct path")
    parser.add_argument("--batch-max", type=int, default=16)
    parser.add_argument("--trace", action="store_true",
                        help="end-to-end request tracing: stamp every "
                             "request, join the cross-process span trees "
                             "and schema-check the merged Chrome export "
                             "(in-process server only)")
    parser.add_argument("--slowlog", default=None, metavar="PATH",
                        help="with --trace: dump the slowest request "
                             "trees as Chrome trace JSON to PATH")
    parser.add_argument("--scrape", action="store_true",
                        help="scrape the server's Prometheus stats "
                             "exposition through the wire after the run "
                             "and print it to stdout")
    args = parser.parse_args(argv)

    if args.duration is not None:
        if args.rate <= 0:
            parser.error("--duration requires --rate > 0")
        n = max(1, int(args.rate * args.duration))
    else:
        n = args.n
    fixed_base = not args.no_fixed_base
    if args.tenants < 0:
        parser.error("--tenants must be >= 0")
    if args.tenants and args.check and args.target is not None:
        parser.error("--check with --tenants needs fresh servers (the "
                     "second pass would re-create the keys); drop "
                     "--target")
    requests = build_requests(n, mix=args.mix, seed=args.seed,
                              tenants=args.tenants)
    setup = (build_key_setup(args.tenants, args.mix, seed=args.seed)
             if args.tenants else [])

    if args.shards < 0:
        parser.error("--shards must be >= 0")
    if args.connections < 0:
        parser.error("--connections must be >= 0")
    if args.shards:
        if args.target is not None:
            parser.error("--shards starts its own cluster; it cannot be "
                         "used with --target")
        if args.trace:
            parser.error("--trace joins in-process records; shard "
                         "processes are out of reach (use the server's "
                         "--tracing + slowlog instead)")
        if args.scrape:
            parser.error("--scrape reads one server; against a cluster "
                         "use the stats op with scope=cluster")
        if args.workers < 1:
            parser.error("--shards needs --workers >= 1 per shard")
    if args.trace and args.target is not None:
        parser.error("--trace joins records from the in-process server; "
                     "it cannot be used with --target")
    if (args.trace or args.scrape) and args.target is None \
            and args.workers == 0:
        parser.error("--trace/--scrape need a server (--workers >= 1 "
                     "or --target)")
    if args.slowlog and not args.trace:
        parser.error("--slowlog requires --trace")
    connections = args.connections or (4 * args.shards if args.shards
                                       else 1)
    trace_sink: Optional[List[RequestTrace]] = [] if args.trace else None
    scrape_sink: Optional[List[str]] = [] if args.scrape else None
    client_times: Dict[str, Tuple[int, int]] = {}

    def one_run() -> Tuple[List[Dict[str, Any]], List[float], float]:
        if args.shards:
            return asyncio.run(run_sharded(
                requests, shards=args.shards, workers=args.workers,
                connections=connections, rate=args.rate,
                batch_max=args.batch_max, fixed_base=fixed_base,
                setup=setup))
        if args.target is None and args.workers == 0:
            replies, wall = run_direct(requests, fixed_base=fixed_base,
                                       setup=setup)
            return replies, [], wall
        return asyncio.run(run_served(
            requests, workers=args.workers, rate=args.rate,
            target=args.target, batch_max=args.batch_max,
            fixed_base=fixed_base, tracing=args.trace,
            trace_sink=trace_sink, scrape_sink=scrape_sink,
            client_times=client_times if args.trace else None,
            connections=connections, setup=setup))

    replies, latencies, wall = one_run()
    summary = summarize(requests, replies)
    n_err = sum(1 for r in replies if not r["ok"])
    if args.check:
        replies2, _lat2, _wall2 = one_run()
        summary2 = summarize(requests, replies2)
        if n_err:
            print(f"loadgen --check: FAIL, {n_err} error replies")
            return 1
        if summary != summary2:
            print("loadgen --check: FAIL, summaries differ between runs")
            return 1
        print(f"loadgen --check: OK, {n} requests, zero errors, "
              "byte-identical summaries across two runs")
    if args.out == "-":
        if not args.check:
            sys.stdout.buffer.write(summary)
            sys.stdout.buffer.flush()
    else:
        with open(args.out, "wb") as fh:
            fh.write(summary)
    print(_latency_report(latencies, wall, n_err) if latencies
          else f"{n} requests in {wall:.2f} s "
               f"({n / wall if wall else 0.0:.1f} ops/s), {n_err} errors",
          file=sys.stderr)
    if trace_sink is not None:
        status = _report_traces(trace_sink, client_times, replies,
                                args.slowlog)
        if status:
            return status
    if scrape_sink:
        sys.stdout.write(scrape_sink[-1])
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
