"""Per-layer accounts of the host ECC stack and the serving stack.

Each account times calls into a layer's public functions from outside,
with seeded inputs, and reads the counters the program already keeps
(``FieldOpCounter`` and its word-level ``WordOpCounter``).  The replay
sends a workload's own requests through ``serve.protocol`` ->
``serve.worker.execute_request`` -> ``repro.protocols`` ->
``repro.scalarmult`` in this process, with span wrappers installed
around those entry points.
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Any, Dict, List, Sequence, Tuple

from measure import SpanRecorder, Wrappers, median

#: Suites whose point formulas the curve account times.
CURVE_SUITES = ("secp160r1", "weierstrass", "edwards", "montgomery", "glv")


def _per_call(fn, calls: int, batches: int = 5) -> float:
    """Median over *batches* of the mean ns per call of *fn*."""
    out = []
    for _ in range(batches):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        out.append((time.perf_counter_ns() - t0) / calls)
    return median(out)


def field_account(seed: int) -> Dict[str, float]:
    """ns per mul/sqr/add and us per inversion, secp160r1 and the OPF."""
    from repro.curves.params import make_suite

    rng = random.Random(f"field:{seed}")
    metrics = {}
    for label, key in (("secp160r1", "secp160r1"), ("opf", "montgomery")):
        f = make_suite(key).field
        a = f.from_int(rng.randrange(1, f.p))
        b = f.from_int(rng.randrange(1, f.p))
        metrics[f"field.{label}.mul_ns"] = _per_call(lambda: f.mul(a, b), 2000)
        metrics[f"field.{label}.sqr_ns"] = _per_call(lambda: f.sqr(a), 2000)
        metrics[f"field.{label}.add_ns"] = _per_call(lambda: f.add(a, b), 4000)
        metrics[f"field.{label}.inv_us"] = \
            _per_call(lambda: f.inv(a), 20) / 1e3
    return metrics


def curve_account(seed: int) -> Dict[str, float]:
    """us per projective point addition and doubling, per suite."""
    from repro.curves.params import make_suite

    metrics = {}
    for key in CURVE_SUITES:
        s = make_suite(key)
        c = s.curve
        if key == "montgomery":
            p = c.xz_from_affine(s.base)
            q = c.xdbl(p)
            add = lambda: c.xadd(q, p, p)  # noqa: E731 - 3P from 2P, P
            dbl = lambda: c.xdbl(p)  # noqa: E731
        else:
            p = c.from_affine(s.base)
            q = c.double(p)
            add = lambda: c.add(p, q)  # noqa: E731
            dbl = lambda: c.double(p)  # noqa: E731
        metrics[f"curves.{key}.add_us"] = _per_call(add, 200) / 1e3
        metrics[f"curves.{key}.double_us"] = _per_call(dbl, 200) / 1e3
    return metrics


def install_ecc_wrappers(wrappers: Wrappers) -> None:
    """Spans around the protocol and scalar-multiplication entry points."""
    from repro.protocols import ecdh, ecdsa, schnorr
    from repro.scalarmult import algorithms, fixed_base, glv_mult, ladder

    for owner, attr, name in (
            (ecdsa.Ecdsa, "sign", "protocols.ecdsa.sign"),
            (ecdsa.Ecdsa, "verify", "protocols.ecdsa.verify"),
            (schnorr.Schnorr, "sign", "protocols.schnorr.sign"),
            (schnorr.Schnorr, "verify", "protocols.schnorr.verify"),
            (ecdh.FullPointEcdh, "shared_secret", "protocols.ecdh"),
            (ecdh.XOnlyEcdh, "shared_secret", "protocols.ecdh_xonly"),
            (algorithms, "scalar_mult_naf", "scalarmult.naf"),
            (ladder, "montgomery_ladder_x", "scalarmult.ladder"),
            (ladder, "montgomery_ladder_x_checked", "scalarmult.ladder"),
            (glv_mult, "shamir_scalar_mult", "scalarmult.shamir"),
            (glv_mult, "glv_scalar_mult", "scalarmult.glv"),
            (fixed_base.FixedBaseTable, "multiply", "scalarmult.fixed_base"),
    ):
        wrappers.wrap(owner, attr, name)


def scalarmult_account(recorder: SpanRecorder, seed: int
                       ) -> Tuple[Dict[str, float], int, int]:
    """ms per scalar multiplication by method, and the comb-table build.

    Also cross-checks the methods against one another on one scalar.
    """
    from repro import scalarmult as sm
    from repro.curves.params import make_suite
    from repro.scalarmult.fixed_base import DEFAULT_WIDTH, FixedBaseTable

    rng = random.Random(f"scalarmult:{seed}")
    secp, mont, glv = (make_suite(k) for k in
                       ("secp160r1", "montgomery", "glv"))
    t0 = time.perf_counter()
    table = FixedBaseTable(secp.curve, secp.base, width=DEFAULT_WIDTH)
    metrics = {"scalarmult.fixed_base.table_build_s":
               time.perf_counter() - t0}
    q = sm.scalar_mult_naf(sm.adapter_for(secp.curve, secp.base), 7)
    # Called through the package attributes, which carry the wrappers.
    calls = {
        "fixed_base": lambda k: table.multiply(k % secp.order),
        "naf": lambda k: sm.scalar_mult_naf(
            sm.adapter_for(secp.curve, secp.base), k % secp.order),
        "ladder": lambda k: sm.montgomery_ladder_x(mont.curve, k, mont.base,
                                                   bits=160),
        "shamir": lambda k: sm.shamir_scalar_mult(
            secp.curve, k % secp.order, secp.base, (k >> 1) % secp.order, q),
        "glv": lambda k: sm.glv_scalar_mult(glv.curve, k % glv.order,
                                            glv.base),
    }
    wrappers = Wrappers(recorder)
    with wrappers:
        install_ecc_wrappers(wrappers)
        for name, call in calls.items():
            for _ in range(5):
                call(rng.getrandbits(160))
    for name in calls:
        metrics[f"scalarmult.{name}_ms"] = median(
            recorder.durations(f"scalarmult.{name}")[-5:]) / 1e6
    k = rng.getrandbits(159)
    pairs = [(table.multiply(k),
              sm.scalar_mult_naf(sm.adapter_for(secp.curve, secp.base), k)),
             (sm.glv_scalar_mult(glv.curve, k, glv.base),
              sm.scalar_mult_naf(sm.adapter_for(glv.curve, glv.base), k))]
    failed = sum((a.x.to_int(), a.y.to_int()) != (b.x.to_int(), b.y.to_int())
                 for a, b in pairs)
    return metrics, len(pairs), failed


def protocol_account(recorder: SpanRecorder, seed: int
                     ) -> Tuple[Dict[str, float], int, int]:
    """Self time (ms) of each protocol call: its span minus the scalar
    multiplications under it, on the worker's own protocol objects."""
    from repro.serve.worker import worker_state

    rng = random.Random(f"protocols:{seed}")
    state = worker_state()
    state.warm(("secp160r1",))
    attempted = failed = 0
    wrappers = Wrappers(recorder)
    first = len(recorder.spans)
    with wrappers:
        install_ecc_wrappers(wrappers)
        for _ in range(3):
            for name in ("ecdsa", "schnorr"):
                proto = getattr(state, name)("secp160r1")
                private = rng.randrange(1, proto.order)
                public = proto.public_key(private)
                msg = rng.randbytes(16)
                sig = proto.sign(private, msg)
                attempted += 1
                failed += not proto.verify(public, msg, sig)
            ecdh = state.ecdh("weierstrass")
            peer = ecdh.generate_keypair(rng)
            own = ecdh.generate_keypair(rng)
            attempted += 1
            failed += ecdh.shared_secret(own, peer.public) != \
                ecdh.shared_secret(peer, own.public)
            xonly = state.xonly()
            a, b = xonly.generate_keypair(rng), xonly.generate_keypair(rng)
            attempted += 1
            failed += xonly.shared_secret(a, b.public_x) != \
                xonly.shared_secret(b, a.public_x)
    own_ns = recorder.self_times()
    metrics = {}
    for span_name, metric in (
            ("protocols.ecdsa.sign", "protocols.ecdsa.sign_ms"),
            ("protocols.ecdsa.verify", "protocols.ecdsa.verify_ms"),
            ("protocols.schnorr.sign", "protocols.schnorr.sign_ms"),
            ("protocols.schnorr.verify", "protocols.schnorr.verify_ms"),
            ("protocols.ecdh", "protocols.ecdh_ms"),
            ("protocols.ecdh_xonly", "protocols.ecdh_xonly_ms")):
        metrics[metric] = median(
            own_ns[s.sid] for s in recorder.spans[first:]
            if s.name == span_name) / 1e6
    return metrics, attempted, failed


def keys_account(recorder: SpanRecorder, root: str, seed: int
                 ) -> Tuple[Dict[str, float], int, int]:
    """``KeyRegistry`` on a journal file: rotation (journal append with
    fsync, plus the new public key) and resolution of a named key."""
    from repro.serve.keys import KeyRegistry

    path = os.path.join(root, ".perfbench", f"keys-probe-{os.getpid()}.ndjson")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        os.unlink(path)
    wrappers = Wrappers(recorder)
    attempted = failed = 0
    try:
        registry = KeyRegistry(journal_path=path)
        curves = ("weierstrass", "edwards", "glv", "montgomery")
        for curve in curves:
            registry.create("probe", f"k-{curve}", curve, f"{seed}:{curve}")
        with wrappers:
            wrappers.wrap(KeyRegistry, "rotate", "serve.keys.rotate")
            wrappers.wrap(KeyRegistry, "resolve", "serve.keys.resolve")
            for i in range(2):
                for curve in curves:
                    out = registry.rotate("probe", f"k-{curve}",
                                          f"{seed}:{curve}:{i}")
                    attempted += 1
                    failed += out["generation"] != i + 2
            for _ in range(50):
                for curve in curves:
                    registry.resolve("probe", f"k-{curve}")
        reader = KeyRegistry(journal_path=path, writable=False)
        for curve in curves:
            attempted += 1
            failed += reader.resolve("probe", f"k-{curve}").private != \
                registry.resolve("probe", f"k-{curve}").private
    finally:
        if os.path.exists(path):
            os.unlink(path)
    return {
        "serve.keys.rotate_ms":
            median(recorder.durations("serve.keys.rotate")) / 1e6,
        "serve.keys.resolve_us":
            median(recorder.durations("serve.keys.resolve")) / 1e3,
    }, attempted, failed


def replay(recorder: SpanRecorder, requests: Sequence[Dict[str, Any]],
           expected: Sequence[Dict[str, Any]]
           ) -> Tuple[Dict[str, float], int, int]:
    """The workload's requests, in process, through the serving layers.

    Each request is encoded as a wire line, decoded by
    ``serve.protocol.decode_request``, executed by
    ``serve.worker.execute_request`` on the process's ``WorkerState``
    and its reply encoded by ``serve.protocol.encode_reply``.  Field and word
    operation counts per request come from the ``FieldOpCounter`` of
    every field the state touched.
    """
    from repro.serve import protocol, worker

    state = worker.worker_state()
    wrappers = Wrappers(recorder)
    attempted = failed = 0
    with wrappers:
        wrappers.wrap(protocol, "decode_request", "serve.protocol.decode")
        wrappers.wrap(protocol, "encode_reply", "serve.protocol.encode")
        wrappers.wrap(worker, "execute_request", "serve.worker.execute")
        install_ecc_wrappers(wrappers)
        curves = sorted({r["curve"] for r in requests if r.get("curve")})
        # Build suites and comb tables before counting: set-up, not work.
        fields = {}
        for key in curves:
            fields[id(state.suite(key).field)] = state.suite(key).field
            if key != "montgomery":
                table_field = state.fixed_table(key).curve.field
                fields[id(table_field)] = table_field
        before = {fid: f.counter.copy() for fid, f in fields.items()}
        for i, (req, want) in enumerate(zip(requests, expected)):
            recorder.request = i
            with recorder.span("serve.request"):
                line = json.dumps(req, sort_keys=True).encode() + b"\n"
                decoded = protocol.decode_request(line)
                reply = worker.execute_request(decoded, state)
                protocol.encode_reply(reply)
            attempted += 1
            failed += not (reply.get("ok") and want.get("ok")
                           and reply["result"] == want["result"])
        recorder.request = None
    counts = {"mul": 0, "sqr": 0, "inv": 0, "word_mul": 0}
    for fid, f in fields.items():
        d = f.counter.delta(before[fid])
        counts["mul"] += d.mul
        counts["sqr"] += d.sqr
        counts["inv"] += d.inv
        counts["word_mul"] += d.words.mul
    n = max(1, len(requests))
    metrics = {
        "field.mul_per_op": counts["mul"] / n,
        "field.sqr_per_op": counts["sqr"] / n,
        "field.inv_per_op": counts["inv"] / n,
        "mpa.word_mul_per_op": counts["word_mul"] / n,
        "serve.protocol.decode_us":
            median(recorder.durations("serve.protocol.decode")) / 1e3,
        "serve.protocol.encode_us":
            median(recorder.durations("serve.protocol.encode")) / 1e3,
        "serve.worker.execute_ms":
            median(recorder.durations("serve.worker.execute")) / 1e6,
    }
    return metrics, attempted, failed


def server_account(measured) -> Dict[str, float]:
    """Queue wait, batch size and sheds from the ``stats`` op.

    Queue-wait percentiles are the server's cumulative histogram as read
    after the pass; batch size and sheds are counter deltas over its
    phases.
    """
    from serve_load import counter_delta

    phases = measured.phases
    last = max(phases, key=lambda p: p.t1)
    queue = last.stats_after["histograms"].get("serve_queue_us", {})
    batches = counter_delta(phases, "serve_batches_total")
    executed = counter_delta(phases, "serve_worker_requests_total")
    shed = counter_delta(phases, "serve_shed_total") + \
        counter_delta(phases, "serve_quota_shed_total")
    return {
        "serve.server.queue_ms_p50": queue.get("p50", 0.0) / 1e3,
        "serve.server.queue_ms_p99": queue.get("p99", 0.0) / 1e3,
        "serve.server.batch_size_mean": executed / batches if batches else 0.0,
        "serve.server.shed": shed,
    }


def self_time_table(recorder: SpanRecorder) -> List[str]:
    """Human-readable self time per span name, largest first."""
    rows = []
    for name, values in recorder.self_time_by_name().items():
        rows.append((sum(values), name, len(values), median(values)))
    rows.sort(reverse=True)
    lines = [f"{'span':<44}{'count':>7}{'self total ms':>15}"
             f"{'self p50 ms':>13}"]
    for total, name, count, p50 in rows:
        lines.append(f"{name:<44}{count:>7}{total / 1e6:>15.3f}"
                     f"{p50 / 1e6:>13.4f}")
    return lines
