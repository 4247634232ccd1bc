"""The served workloads: ``serve_fixedbase`` and ``serve_varbase_keys``.

An ``EccServer`` runs in its own process at ``ServeConfig`` defaults (2
pool workers, ``batch_max`` 16), started through ``python -m repro
serve``.  This process is the only load generator and holds at most two
connections.  Each workload has two phases:

* open loop: independent devices as a seeded Poisson schedule at a fixed
  rate; each request is timed from when it was due, not when it was sent,
  so a stall also charges the requests queued behind it;
* closed loop: two connections, each keeping 16 requests outstanding.

Every reply is checked afterwards against
``repro.serve.worker.execute_request`` on the in-process direct path.
Requests are drawn from a seeded pool of distinct requests so that the
direct-path answers can be computed once per distinct request; the
server keeps no result cache, so a repeated request costs it as much as
a new one.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import SpanRecorder, group_tail, host_scale, median, \
    tree_peak_rss_mb, process_tree

#: Connections the load generator holds (the host has 2 cores).
CONNECTIONS = 2
#: Requests each closed-loop connection keeps outstanding.
OUTSTANDING = 16
#: Open/closed phase pairs per measured pass.
CYCLES = 3
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Closed-loop throughput is counted per window of this many seconds, and
#: ``ops_per_s`` is the median window: a burst of contention from other
#: tenants of the host then moves a few windows, not the figure.
WINDOW_S = 1.0


@dataclass
class Rec:
    """One request's life: what was sent, when, and what came back."""

    req: Dict[str, Any]
    check: Tuple[Any, ...]
    due: float = 0.0
    sent: float = 0.0
    replied: float = 0.0
    reply: Optional[Dict[str, Any]] = None
    correct: bool = False
    #: Key generation a named-key reply matched (``ecdh`` only).
    gen: Optional[int] = None


# -- the server process -------------------------------------------------------


class ServerProc:
    """``python -m repro serve`` on an ephemeral port, in its own process."""

    def __init__(self, root: str, journal: str):
        self.root = root
        self.journal = journal
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> "ServerProc":
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.journal)
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--keys-journal", self.journal],
            cwd=self.root, env=env, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[3].rsplit(":", 1)[1])
        return self

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM, wait for the server and its pool workers to be gone."""
        if self.proc is None:
            return
        tree = process_tree(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        deadline = time.monotonic() + 20
        for pid in tree[1:]:
            while os.path.exists(f"/proc/{pid}") and _alive(pid):
                if time.monotonic() > deadline:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(pid, signal.SIGKILL)
                time.sleep(0.05)
        self.proc = None
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.journal)


def _alive(pid: int) -> bool:
    """False once *pid* has exited (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# -- workloads ----------------------------------------------------------------


class Workload:
    """Seeded request source plus the direct-path expectations."""

    name = ""
    #: Open-loop arrival rate, requests/s: a sixth to a third of the
    #: closed-loop throughput measured when the benchmark was defined.
    #: Queueing delay grows steeply with utilisation, so on a host whose
    #: speed drifts a low utilisation keeps latency from amplifying it.
    rate = 1.0
    #: Share of a run's measuring time given to the open-loop phases.
    open_share = 0.6
    #: Open-loop latency limit for ``slo_ratio``: about 10x the
    #: direct-path service time of one request.
    limit_ms = 1.0
    #: The distinct requests the stream draws from, indexed by ``("pool",
    #: index)`` checks.
    pool: List[Dict[str, Any]]

    def __init__(self, seed: int):
        from repro.serve.worker import worker_state

        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        # The process's one state: comb tables are cached process-wide and
        # hand back points in the field of the state that built them.
        self.state = worker_state()
        self._ids = itertools.count(1)
        self._expected: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
        self._setup: Optional[List[Dict[str, Any]]] = None

    def direct(self, req: Dict[str, Any]) -> Dict[str, Any]:
        from repro.serve.worker import execute_request

        return execute_request(req, self.state)

    def expected(self, key: Tuple[Any, ...],
                 build: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
        reply = self._expected.get(key)
        if reply is None:
            reply = self._expected[key] = self.direct(build())
        return reply

    def setup_requests(self) -> List[Dict[str, Any]]:
        """Key set-up, sent before the warm-up burst (none by default)."""
        return []

    def mirror_setup(self, replies: List[Dict[str, Any]]) -> bool:
        """Repeat the key set-up on the direct path; True when the
        server's replies match."""
        return True

    def next(self) -> Rec:
        raise NotImplementedError

    def warmup(self) -> List[Rec]:
        """One request of every kind, twice, so both pool workers start."""
        raise NotImplementedError

    def verify(self, recs: List[Rec]) -> None:
        for rec in recs:
            rec.correct = bool(rec.reply and rec.reply.get("ok")
                               and self._matches(rec))

    def _matches(self, rec: Rec) -> bool:
        kind = rec.check[0]
        if kind == "pool":
            want = self.expected(rec.check, lambda: self.pool[rec.check[1]])
            return want.get("ok") and want["result"] == rec.reply["result"]
        raise ValueError(f"unknown check {kind!r}")


def _same(req: Dict[str, Any], rid: int) -> Dict[str, Any]:
    out = dict(req)
    out["id"] = rid
    return out


class Fixedbase(Workload):
    """``DEFAULT_MIX`` with inline keys: keygen 6 / ecdsa_sign 2 /
    schnorr_sign 1 / scalarmult-on-G 1, all on secp160r1."""

    name = "serve_fixedbase"
    rate = 30.0
    limit_ms = 150.0
    POOL = 300

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.serve.loadgen import DEFAULT_MIX, build_requests

        self.pool = build_requests(self.POOL, DEFAULT_MIX, seed=seed)
        self._order = list(range(self.POOL))
        self.rng.shuffle(self._order)
        self._cursor = 0

    def next(self) -> Rec:
        idx = self._order[self._cursor % self.POOL]
        self._cursor += 1
        return Rec(_same(self.pool[idx], next(self._ids)), ("pool", idx))

    def warmup(self) -> List[Rec]:
        # The pool's head holds every op of the mix (the generator
        # interleaves the mix's pattern), so ten requests cover them.
        return [Rec(_same(self.pool[i % 10], next(self._ids)),
                    ("pool", i % 10)) for i in range(20)]


class VarbaseKeys(Workload):
    """Variable-base traffic over two tenants with named keys.

    ``ecdh`` with named keys on weierstrass, edwards, glv and montgomery;
    ``ecdsa_verify`` and ``schnorr_verify`` on secp160r1 and glv against
    signatures made before the clock (a seeded quarter corrupted, which
    must verify ``false``); and a ``key_rotate`` write about once in 20
    requests.
    """

    name = "serve_varbase_keys"
    rate = 7.0
    open_share = 0.7
    limit_ms = 1000.0
    TENANTS = ("t0", "t1")
    ECDH_CURVES = ("weierstrass", "edwards", "glv", "montgomery")
    VERIFY = (("ecdsa", "secp160r1"), ("ecdsa", "glv"),
              ("schnorr", "secp160r1"), ("schnorr", "glv"))
    SIGNERS = 4
    ROTATE_EVERY = 20
    CORRUPT_SHARE = 0.25

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.serve.keys import tenant_token

        self.tokens = {t: tenant_token(t) for t in self.TENANTS}
        self.peers = {}
        for curve in self.ECDH_CURVES:
            kg = self.direct({"id": 0, "op": "keygen", "curve": curve,
                              "params": {"seed": f"peer:{seed}:{curve}"}})
            result = kg["result"]
            self.peers[curve] = result.get("public", result.get("public_x"))
        self.pool: List[Dict[str, Any]] = []
        self._verify_idx: Dict[Tuple[str, str], List[Tuple[int, int]]] = {}
        for op, curve in self.VERIFY:
            pairs = []
            for j in range(self.SIGNERS):
                good, bad = self._signed(op, curve, j)
                pairs.append((len(self.pool), len(self.pool) + 1))
                self.pool += [good, bad]
            self._verify_idx[(op, curve)] = pairs
        self.kinds = [("ecdh", c) for c in self.ECDH_CURVES] + \
            [("verify", oc) for oc in self.VERIFY]
        # Every run gets the same composition, whatever the seed: each
        # block of len(kinds) requests holds every kind once, and one
        # request in ROTATE_EVERY is a rotation.  The seed picks orders,
        # tenants, keys and which signatures are corrupted.
        self._block: List[Tuple[str, Any]] = []
        self._count = 0
        #: (tenant, curve) -> rotation records, filled in as replies land.
        self.rotations: Dict[Tuple[str, str], List[Rec]] = {}
        #: Rotation request id -> its reply matched the direct path's.
        self.rotation_ok: Dict[int, bool] = {}
        self._rot = itertools.count(1)

    def _signed(self, op: str, curve: str, j: int):
        kg = self.direct({"id": 0, "op": "keygen", "curve": curve,
                          "params": {"seed": f"signer:{self.seed}:{op}:"
                                             f"{curve}:{j}"}})["result"]
        msg = self.rng.randbytes(24).hex()
        sig = self.direct({"id": 0, "op": f"{op}_sign", "curve": curve,
                           "params": {"private": kg["private"],
                                      "msg": msg}})["result"]
        params = dict(sig, public=kg["public"], msg=msg)
        bad = dict(params, s=format(int(params["s"], 16) ^ 1, "x"))
        req = {"id": 0, "op": f"{op}_verify", "curve": curve}
        return dict(req, params=params), dict(req, params=bad)

    @staticmethod
    def key_name(curve: str) -> str:
        return f"pb-{curve}"

    def _tenant_req(self, tenant: str, req: Dict[str, Any]) -> Dict[str, Any]:
        req["tenant"] = tenant
        req["token"] = self.tokens[tenant]
        return req

    def setup_requests(self) -> List[Dict[str, Any]]:
        if self._setup is None:
            self._setup = [
                self._tenant_req(tenant, {
                    "id": next(self._ids), "op": "key_create",
                    "curve": curve,
                    "params": {"name": self.key_name(curve),
                               "seed": f"pb:{self.seed}:{tenant}:{curve}"}})
                for tenant in self.TENANTS for curve in self.ECDH_CURVES]
        return self._setup

    def mirror_setup(self, replies: List[Dict[str, Any]]) -> bool:
        # The direct path's registry is this process's, empty until now.
        ok = len(replies) == len(self._setup)
        for req, got in zip(self._setup, replies):
            want = self.direct(req)
            ok = ok and bool(got.get("ok") and want.get("ok")
                             and got["result"] == want["result"])
        return ok

    def _ecdh(self, tenant: str, curve: str) -> Rec:
        req = self._tenant_req(tenant, {
            "id": next(self._ids), "op": "ecdh", "curve": curve,
            "params": {"key": self.key_name(curve),
                       "peer": self.peers[curve]}})
        return Rec(req, ("ecdh", tenant, curve))

    def next(self) -> Rec:
        rng = self.rng
        self._count += 1
        if self._count % self.ROTATE_EVERY == 0:
            tenant = rng.choice(self.TENANTS)
            curve = rng.choice(self.ECDH_CURVES)
            seed = f"rot:{self.seed}:{next(self._rot)}"
            req = self._tenant_req(tenant, {
                "id": next(self._ids), "op": "key_rotate",
                "params": {"name": self.key_name(curve), "seed": seed}})
            rec = Rec(req, ("rotate", tenant, curve))
            self.rotations.setdefault((tenant, curve), []).append(rec)
            return rec
        if not self._block:
            self._block = rng.sample(self.kinds, len(self.kinds))
        kind, arg = self._block.pop()
        if kind == "ecdh":
            return self._ecdh(rng.choice(self.TENANTS), arg)
        good, bad = rng.choice(self._verify_idx[arg])
        idx = bad if rng.random() < self.CORRUPT_SHARE else good
        return Rec(_same(self.pool[idx], next(self._ids)), ("pool", idx))

    def warmup(self) -> List[Rec]:
        recs = []
        for _ in range(2):
            for tenant, curve in zip(itertools.cycle(self.TENANTS),
                                     self.ECDH_CURVES):
                recs.append(self._ecdh(tenant, curve))
            for good, bad in (v[0] for v in self._verify_idx.values()):
                recs += [Rec(_same(self.pool[i], next(self._ids)), ("pool", i))
                         for i in (good, bad)]
        return recs

    def verify(self, recs: List[Rec]) -> None:
        self._check_rotations()
        super().verify(recs)

    def _check_rotations(self) -> None:
        """Replay the server's rotations, in its generation order, on the
        direct path's registry; each reply must match."""
        for (tenant, curve), rots in sorted(self.rotations.items()):
            done = [r for r in rots if r.reply and r.reply.get("ok")]
            done.sort(key=lambda r: r.reply["result"]["generation"])
            for rec in done:
                want = self.direct(_same(rec.req, 0))
                self.rotation_ok[rec.req["id"]] = bool(
                    want.get("ok") and want["result"] == rec.reply["result"])

    def _generations(self, rec: Rec) -> List[int]:
        """Generations the key could have held while *rec* was in flight.

        Generation 1 exists before the clock.  Generation g+1 may be
        pinned by a request that finished after its rotation was sent, and
        generation g stays possible until the rotation to g+1 has been
        answered before the request was sent.
        """
        _, tenant, curve = rec.check
        rots = {r.reply["result"]["generation"]: r
                for r in self.rotations.get((tenant, curve), ())
                if r.reply and r.reply.get("ok")}
        gens = []
        for g in range(1, 2 + len(rots)):
            became = rots.get(g)
            if became is not None and became.sent > rec.replied:
                continue
            after = rots.get(g + 1)
            if after is not None and after.replied < rec.sent:
                continue
            gens.append(g)
        return gens

    def _matches(self, rec: Rec) -> bool:
        kind = rec.check[0]
        if kind == "rotate":
            return self.rotation_ok.get(rec.req["id"], False)
        if kind == "ecdh":
            _, tenant, curve = rec.check
            for g in self._generations(rec):
                def build(g=g):
                    req = _same(rec.req, 0)
                    req["params"] = dict(req["params"], key_generation=g)
                    return req
                want = self.expected(("ecdh", tenant, curve, g), build)
                if want.get("ok") and want["result"] == rec.reply["result"]:
                    rec.gen = g
                    return True
            return False
        return super()._matches(rec)


WORKLOADS = {"serve_fixedbase": Fixedbase,
             "serve_varbase_keys": VarbaseKeys}


# -- load phases --------------------------------------------------------------


class Clients:
    """The generator's connections to one server."""

    def __init__(self, port: int):
        self.port = port
        self.conns: List[Any] = []

    async def __aenter__(self) -> "Clients":
        from repro.serve.client import AsyncServeClient

        for _ in range(CONNECTIONS):
            self.conns.append(
                await AsyncServeClient.connect("127.0.0.1", self.port))
        return self

    async def __aexit__(self, *exc: Any) -> None:
        for conn in self.conns:
            await conn.close()

    async def send(self, rec: Rec, conn: int) -> None:
        """Send *rec*; a lost connection leaves it without a reply, which
        counts as a failure."""
        rec.sent = time.perf_counter()
        try:
            rec.reply = await self.conns[conn].call_raw_one(rec.req)
        except ConnectionError:
            rec.reply = None
        rec.replied = time.perf_counter()

    async def stats(self) -> Dict[str, Any]:
        return await self.conns[0].stats()


async def open_loop(clients: Clients, work: Workload, seconds: float,
                    rng: random.Random) -> Tuple[List[Rec], float, float]:
    """Poisson arrivals at ``work.rate`` for *seconds*; each request is
    sent at its due time on its own task, whatever is still in flight."""
    recs: List[Rec] = []
    tasks = []
    t0 = time.perf_counter() + 0.01
    due = t0
    while True:
        due += rng.expovariate(work.rate)
        if due > t0 + seconds:
            break
        rec = work.next()
        rec.due = due
        recs.append(rec)
    for i, rec in enumerate(recs):
        delay = rec.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(clients.send(rec, i % CONNECTIONS)))
    await asyncio.gather(*tasks)
    return recs, t0, t0 + seconds


async def closed_loop(clients: Clients, work: Workload,
                      seconds: float) -> Tuple[List[Rec], float, float]:
    """Each connection keeps :data:`OUTSTANDING` requests in flight until
    *seconds* have passed; then the stragglers drain."""
    recs: List[Rec] = []
    t0 = time.perf_counter()
    t_end = t0 + seconds

    async def caller(conn: int) -> None:
        while time.perf_counter() < t_end:
            rec = work.next()
            rec.due = time.perf_counter()
            recs.append(rec)
            await clients.send(rec, conn)

    await asyncio.gather(*(caller(c % CONNECTIONS)
                           for c in range(CONNECTIONS * OUTSTANDING)))
    return recs, t0, t_end


# -- one served run -----------------------------------------------------------


@dataclass
class Phase:
    recs: List[Rec]
    t0: float
    t1: float
    stats_before: Dict[str, Any]
    stats_after: Dict[str, Any]
    #: :func:`measure.host_scale`, the mean of readings taken just before
    #: and just after the phase.
    scale: float


@dataclass
class Pass:
    """One measured pass: :data:`CYCLES` open-loop and closed-loop
    phases, alternated so each kind samples the whole pass."""

    open: List[Phase] = field(default_factory=list)
    closed: List[Phase] = field(default_factory=list)

    @property
    def phases(self) -> List[Phase]:
        return self.open + self.closed

    @property
    def recs(self) -> List[Rec]:
        return [r for p in self.phases for r in p.recs]


@dataclass
class Served:
    """Everything a served run measured, before it is turned into metrics."""

    setup_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    passes: List[Pass] = field(default_factory=list)
    setup_ok: bool = True
    warm: List[Rec] = field(default_factory=list)


async def _setup(server: ServerProc, work: Workload
                 ) -> Tuple[List[Dict[str, Any]], List[Rec]]:
    """Key set-up and the warm-up burst on a started server."""
    async with Clients(server.port) as clients:
        replies = [await clients.conns[0].call_raw_one(r)
                   for r in work.setup_requests()]
        warm = work.warmup()
        await asyncio.gather(*(clients.send(rec, i % CONNECTIONS)
                               for i, rec in enumerate(warm)))
    return replies, warm


async def _pass(port: int, work: Workload, seconds: float,
                rng: random.Random, recorder: Optional[SpanRecorder],
                idle: Optional[Callable[[], None]]) -> Pass:
    out = Pass()
    scale = host_scale()
    async with Clients(port) as clients:
        for i in range(2 * CYCLES):
            kind = ("open", "closed")[i % 2]
            if i and idle is not None:
                idle()
            before = await clients.stats()
            if kind == "open":
                recs, t0, t1 = await open_loop(
                    clients, work, seconds * work.open_share / CYCLES, rng)
            else:
                recs, t0, t1 = await closed_loop(
                    clients, work, seconds * (1 - work.open_share) / CYCLES)
            after = await clients.stats()
            before_scale, scale = scale, host_scale()
            getattr(out, kind).append(Phase(recs, t0, t1, before, after,
                                            (before_scale + scale) / 2))
            if recorder is not None:
                for rec in recs:
                    recorder.add(f"serve.client.{kind}", int(rec.due * 1e9),
                                 int(rec.replied * 1e9), req=rec.req["id"])
    return out


def run_served(root: str, work: Workload, seconds: float, setups: int,
               passes: List[Optional[SpanRecorder]],
               idle: Optional[Callable[[], None]] = None) -> Served:
    """Set up *setups* times (the last server stays up), then run one
    measured pass per entry of *passes* (a recorder makes it traced).

    *idle* runs while no load is in flight: after each server is stopped
    and between the phases of an untraced pass, so that what it measures
    samples the whole run.
    """
    out = Served()
    journal = os.path.join(root, ".perfbench", f"keys-{os.getpid()}.ndjson")
    os.makedirs(os.path.dirname(journal), exist_ok=True)
    rng = random.Random(f"arrivals:{work.name}:{work.seed}")
    server = None
    try:
        for i in range(setups):
            t0 = time.perf_counter()
            server = ServerProc(root, journal).start()
            replies, warm = asyncio.run(_setup(server, work))
            out.setup_s.append(time.perf_counter() - t0)
            out.warm += warm
            if i < setups - 1:
                server.stop()
                if idle is not None:
                    idle()
        out.setup_ok = work.mirror_setup(replies)
        per_pass = seconds / len(passes)
        for recorder in passes:
            out.passes.append(asyncio.run(_pass(
                server.port, work, per_pass, rng, recorder,
                idle if recorder is None else None)))
        out.peak_rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    if idle is not None:
        idle()
    return out


def counter_delta(phases: List[Phase], name: str) -> float:
    return sum(p.stats_after["counters"].get(name, 0)
               - p.stats_before["counters"].get(name, 0) for p in phases)


def window_rates(phases: List[Phase]) -> List[float]:
    """Correct replies per reference second in each whole :data:`WINDOW_S`
    window of the closed-loop *phases*, leaving out each phase's first window,
    in which the pipeline fills.  Phases too short for that (a smoke
    run) give one rate: all their correct replies, drained ones too,
    over the time to the last."""
    rates = []
    for p in phases:
        counts = [0] * int((p.t1 - p.t0) // WINDOW_S)
        for r in p.recs:
            i = int((r.replied - p.t0) // WINDOW_S)
            if r.correct and i < len(counts):
                counts[i] += 1
        rates += [c / WINDOW_S / p.scale for c in counts[1:]]
    if not rates:
        done = sum(r.correct for p in phases for r in p.recs)
        rates = [done / sum((max(r.replied for r in p.recs) - p.t0) * p.scale
                            for p in phases)]
    return rates


def pass_metrics(work: Workload, measured: Pass) -> Dict[str, Any]:
    """End-to-end figures of one pass (outputs verified first), in
    reference-host time; ``slo_ratio`` holds host time to the limit,
    since that is what a device waits."""
    open_recs = [r for p in measured.open for r in p.recs]
    host_ms = [1e3 * (r.replied - r.due) for r in open_recs]
    lat = [1e3 * (r.replied - r.due) * p.scale
           for p in measured.open for r in p.recs]
    late = [1e3 * (r.sent - r.due) for r in open_recs]
    tail_ms, tail_pct, beyond, groups = group_tail(lat)
    rates = window_rates(measured.closed)
    return {
        "ops_per_s": median(rates),
        "ops_per_s_windows": len(rates),
        "latency_p50_ms": median(lat),
        "latency_tail_ms": tail_ms,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "tail_groups": groups,
        "open_requests": len(lat),
        "slo_ratio": sum(1 for r, ms in zip(open_recs, host_ms)
                         if r.correct and ms <= work.limit_ms) / len(lat),
        "host_scale": median(p.scale for p in measured.phases),
        "generator_late_ms_p50": median(late),
        "generator_late_ms_max": max(late),
        "closed_requests": sum(len(p.recs) for p in measured.closed),
    }
