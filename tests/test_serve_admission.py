"""The admission core shared by the server and the direct path, and the
front-end's recovery from overlong lines and pool-worker death.

Three groups, run by ``make serve-smoke``:

* ``parity`` — one scripted request sequence through
  :func:`~repro.serve.worker.execute_request` and through a live
  :class:`~repro.serve.server.EccServer` gives identical replies
  (``stats`` payloads may differ in their live numbers only), and the
  direct path never mutates the caller's request dicts;
* ``overlong`` — a line over ``MAX_LINE`` bytes is answered
  ``BadRequest`` and the connection keeps serving;
* ``pool_restart`` — after a pool worker is killed, the next batches
  run on a rebuilt pool.

No pytest-asyncio in the image: every test drives its own event loop
through ``asyncio.run``.
"""

import asyncio
import copy
import gc
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.obs.metrics import METRICS
from repro.serve import protocol, worker
from repro.serve.admission import MAX_LINE, Admission, salvage_id
from repro.serve.client import AsyncServeClient
from repro.serve.keys import KeyRegistry, tenant_token
from repro.serve.server import EccServer, ServeConfig
from repro.serve.worker import init_worker


def run(coro):
    return asyncio.run(coro)


async def _start(**overrides):
    defaults = dict(port=0, workers=1, warm_curves=())
    defaults.update(overrides)
    server = EccServer(ServeConfig(**defaults))
    await server.start()
    return server


# -- the core on its own -----------------------------------------------------


class TestAdmissionCore:
    def test_admitted_request_is_a_copy(self):
        core = Admission(KeyRegistry(), tracing=True)
        req = {"id": 3, "op": "keygen", "curve": "secp160r1",
               "params": {"seed": "x"}}
        before = copy.deepcopy(req)
        reply, admitted = core.admit(req)
        assert reply is None and admitted is not req
        assert req == before
        assert protocol.TRACE_ID.fullmatch(admitted["trace"])

    def test_named_use_is_pinned_and_token_stripped(self):
        keys = KeyRegistry()
        keys.create("alice", "k", "secp160r1", "s")
        keys.rotate("alice", "k")
        req = {"id": 1, "op": "ecdsa_sign", "curve": "secp160r1",
               "params": {"key": "k", "msg": "00"}, "tenant": "alice",
               "token": tenant_token("alice")}
        before = copy.deepcopy(req)
        reply, admitted = Admission(keys).admit(req)
        assert reply is None and req == before
        assert "token" not in admitted and admitted["tenant"] == "alice"
        assert admitted["params"]["key_generation"] == 2

    def test_inline_replies_echo_trace(self):
        req = {"id": 9, "op": "stats", "params": {"scope": "nowhere"},
               "trace": "ab" * 8}
        reply, admitted = Admission(KeyRegistry()).admit(req)
        assert admitted is None
        assert reply["error"]["type"] == "BadRequest"
        assert reply["meta"] == {"trace": "ab" * 8}

    def test_unsharded_cluster_scope_is_one_shard(self):
        stats = Admission(KeyRegistry()).stats({"scope": "cluster"})
        assert stats["scope"] == "cluster" and stats["shard_count"] == 1
        assert stats["shards"][0]["scope"] == "shard"

    def test_salvage_id(self):
        assert salvage_id(b'{"id": 7, "op": "nope"}') == 7
        assert salvage_id(b'not json') == 0
        # The head of an overlong canonical line: "curve" sorts first.
        head = b'{"curve":"secp160r1","id":12,"op":"keygen","params":{"se'
        assert salvage_id(head) == 12


# -- direct path <-> server parity --------------------------------------------

#: Strict tenancy on both paths: two keys for "acme", one request ever
#: for "slow" (its bucket refills once in 1000 s).
TENANTS = {"acme": {"token": "acme-token", "max_keys": 2},
           "slow": {"token": "slow-token", "rate": 0.001, "burst": 1}}


def _parity_script(peer):
    def acme(op, params, curve=None, token="acme-token", tenant="acme"):
        req = {"op": op, "params": params, "tenant": tenant, "token": token}
        if curve is not None:
            req["curve"] = curve
        return req

    sign = {"key": "signer", "msg": "00ff"}
    script = [
        acme("key_create", {"name": "signer", "seed": "s1"}, "secp160r1"),
        acme("key_create", {"name": "agree", "seed": "a1"}, "secp160r1"),
        acme("key_create", {"name": "third"}, "secp160r1"),  # max_keys
        acme("key_info", {"name": "signer"}),
        acme("ecdsa_sign", sign, "secp160r1"),
        acme("ecdh", {"key": "agree", "peer": peer}, "secp160r1"),
        acme("key_rotate", {"name": "signer", "seed": "s2"}),
        acme("ecdsa_sign", dict(sign, key_generation=1), "secp160r1"),
        acme("ecdsa_sign", sign, "secp160r1"),
        acme("ecdsa_sign", dict(sign, key_generation=3), "secp160r1"),
        acme("ecdh", {"key": "agree", "peer": peer, "key_generation": 1},
             "secp160r1"),
        acme("key_info", {"name": "signer"}),
        acme("ecdsa_sign", sign, "secp160r1", token="wrong"),
        acme("key_info", {"name": "signer"}, tenant="mallory"),
        acme("key_delete", {"name": "signer"}),
        acme("ecdsa_sign", sign, "secp160r1"),
        acme("key_create", {"name": "third"}, "secp160r1"),
        acme("key_create", {"name": "k"}, "secp160r1", "slow-token", "slow"),
        acme("key_info", {"name": "k"}, token="slow-token", tenant="slow"),
        {"op": "ecdsa_sign", "curve": "secp160r1",
         "params": {"private": "1234abcd", "msg": "00ff"}},
        {"op": "stats", "params": {"format": "xml"}},
        {"op": "stats", "params": {"scope": "galaxy"}},
        {"op": "stats", "params": {"format": "prometheus",
                                   "scope": "cluster"}},
        {"op": "stats", "params": {}},
        {"op": "stats", "params": {"scope": "cluster"}},
        {"op": "stats", "params": {"format": "prometheus"}},
    ]
    for i, req in enumerate(script, 1):
        req["id"] = i
    return script


def _shape(reply):
    """A reply with its live numbers dropped: a ``stats`` result keeps
    only its schema, its scope and its tenants' quota settings."""
    if not reply.get("ok"):
        return reply
    result = reply["result"]
    if result.get("format") == "prometheus":
        result = {"format": "prometheus"}
    elif "scope" in result and "counters" in result:
        result = {"keys": sorted(result), "scope": result["scope"],
                  "shard_count": result.get("shard_count"),
                  "tenants": {name: {k: row[k] for k in
                                     ("keys", "max_keys", "rate", "burst")}
                              for name, row in
                              result.get("tenants", {}).items()}}
    return dict(reply, result=result)


class TestDirectParity:
    def test_parity_direct_path_matches_server(self, monkeypatch):
        peer = worker.execute_request(
            {"id": 0, "op": "keygen", "curve": "secp160r1",
             "params": {"seed": "parity-peer"}})["result"]["public"]
        script = _parity_script(peer)
        before = copy.deepcopy(script)

        monkeypatch.setattr(worker, "_KEYS", KeyRegistry(tenants=TENANTS))
        direct = [worker.execute_request(req) for req in script]
        assert script == before  # the direct path never mutates a request

        async def served():
            server = await _start(tenants=TENANTS)
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    return [await client.call_raw_one(req) for req in script]
                finally:
                    await client.close()
            finally:
                await server.stop()

        replies = run(served())
        assert [_shape(r) for r in direct] == [_shape(r) for r in replies]

        outcome = {req["id"]: (r["error"]["type"] if not r["ok"] else "ok")
                   for req, r in zip(script, replies)}
        assert outcome[3] == "QuotaExceeded"      # acme's two-key budget
        assert outcome[10] == "BadRequest"        # no generation 3
        assert outcome[13] == outcome[14] == "Unauthorized"
        assert outcome[16] == "BadRequest"        # deleted key
        assert outcome[17] == "ok"                # budget freed by delete
        assert outcome[19] == "QuotaExceeded"     # slow's rate bucket
        assert [outcome[i] for i in (21, 22, 23)] == ["BadRequest"] * 3
        assert replies[7]["result"] == replies[4]["result"]  # pinned gen 1
        assert replies[8]["result"] != replies[4]["result"]
        assert replies[10]["result"] == replies[5]["result"]
        assert _shape(replies[24])["result"]["shard_count"] == 1


# -- overlong request lines ---------------------------------------------------


class TestOverlongLine:
    @pytest.mark.parametrize("chunks", [1, 4])
    def test_overlong_line_then_stats(self, chunks):
        """A 70 KiB line gets a typed BadRequest with its id, and the
        ``stats`` pipelined behind it on the same connection is served —
        whether the line arrives in one write or trickles in."""
        line = (b'{"curve":"secp160r1","id":5,"op":"keygen",'
                b'"params":{"seed":"' + b"a" * (70 * 1024) + b'"}}\n')
        assert len(line) > MAX_LINE
        stats = b'{"id":6,"op":"stats"}\n'

        async def scenario():
            server = await _start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                step = -(-len(line) // chunks)
                for i in range(0, len(line), step):
                    writer.write(line[i:i + step])
                    await writer.drain()
                    await asyncio.sleep(0.02)
                writer.write(stats)
                await writer.drain()
                replies = [protocol.decode_reply(
                    await asyncio.wait_for(reader.readline(), 30))
                    for _ in range(2)]
                writer.close()
                await writer.wait_closed()
                return replies
            finally:
                await server.stop()

        first, second = run(scenario())
        assert first["id"] == 5 and not first["ok"]
        assert first["error"]["type"] == "BadRequest"
        assert str(MAX_LINE) in first["error"]["message"]
        assert second["id"] == 6 and second["ok"]
        assert second["result"]["scope"] == "shard"


# -- pool-worker death --------------------------------------------------------


class TestPoolRestart:
    def test_pool_restart_after_worker_kill(self):
        """SIGKILL one of two workers: the pool breaks, the next batch
        rebuilds it once, and all 20 later requests succeed."""
        async def scenario():
            server = await _start(workers=2)
            try:
                client = await AsyncServeClient.connect(port=server.port)
                try:
                    await client.call("keygen", "secp160r1",
                                      {"seed": "warm"})
                    pool = server._pool
                    os.kill(next(iter(pool._processes)), signal.SIGKILL)
                    deadline = time.monotonic() + 20
                    while not pool._broken:
                        assert time.monotonic() < deadline, "never broke"
                        await asyncio.sleep(0.05)
                    reqs = [{"id": 100 + i, "op": "keygen",
                             "curve": "secp160r1",
                             "params": {"seed": f"after-{i}"}}
                            for i in range(20)]
                    replies = await asyncio.wait_for(
                        client.call_raw(reqs), 120)
                    stats = await client.stats()
                finally:
                    await client.close()
                return replies, stats
            finally:
                await server.stop()

        start = METRICS.counter("serve_pool_restarts_total").value
        replies, stats = run(scenario())
        assert [r["ok"] for r in replies] == [True] * 20
        assert stats["counters"]["serve_pool_restarts_total"] == start + 1

    def test_pool_restart_once_per_breakage(self):
        """Two dispatches that saw the same broken pool rebuild it once."""
        async def scenario():
            server = await _start()
            try:
                broken = server._pool
                first = server._rebuild_pool(broken)
                second = server._rebuild_pool(broken)
                return broken, first, second, server._pool
            finally:
                await server.stop()

        restarts = METRICS.counter("serve_pool_restarts_total")
        start = restarts.value
        broken, first, second, current = run(scenario())
        assert first is second is current and current is not broken
        assert restarts.value - start == 1

    def test_pool_restart_worker_ignores_inherited_garbage(self):
        """A forked worker inherits the parent's garbage, such as a
        shut-down pool whose finalizer takes a lock its manager thread
        may hold at fork time.  Workers must never collect it, or they
        deadlock before serving a batch."""
        held = threading.Lock()

        class Cycle:
            def __del__(self):
                with held:
                    pass

        gc.disable()
        held.acquire()
        try:
            junk = Cycle()
            junk.me = junk
            del junk
            pool = ProcessPoolExecutor(1, initializer=init_worker)
            try:
                pool.submit(gc.collect).result(timeout=60)
            finally:
                for proc in list(pool._processes.values()):
                    proc.kill()
                pool.shutdown(wait=True, cancel_futures=True)
        finally:
            held.release()
            gc.enable()
            gc.collect()
