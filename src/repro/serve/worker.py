"""Worker-process side of the ECC service.

Each pool worker owns a :class:`WorkerState`: freshly constructed curve
suites (so no field-operation counter is ever shared across processes),
protocol objects wired to a fixed-base-aware scalar multiplier, cached
RSA Montgomery engines, and — via :func:`init_worker` — a metrics
registry isolated from the parent with :func:`~repro.obs.metrics
.MetricsRegistry.reset_for_fork`.  Batches return their counter deltas
alongside the replies and the server merges them into the parent
registry (:meth:`~repro.obs.metrics.MetricsRegistry.merge_counters`),
which is the fork-safe aggregation path documented in DESIGN.md §8.

Every handler is **deterministic**: key generation derives scalars from
the request's seed (HKDF-ish SHA-256 expansion), signatures use the
RFC-6979-style nonces of :mod:`repro.protocols`, and nothing reads a
TRNG — the property the load generator's byte-stable summaries and the
serve determinism tests rely on.

Workers only compute: requests arrive admitted by the admission core
(:mod:`repro.serve.admission`), which answers ``stats`` and the
``key_*`` ops itself.  :func:`execute_batch` is the pool entry point;
:func:`execute_request` is the in-process "direct" path (the load
generator's baseline, the benchmark's reference, the tests' pool-free
harness), which runs the same core over :func:`worker_keys` first.
"""

from __future__ import annotations

import gc
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..curves.params import CurveSuite, make_suite
from ..curves.point import AffinePoint
from ..faults.model import FaultDetectedError
from ..obs.metrics import METRICS
from ..obs.trace import Tracer, span_to_dict
from ..protocols import Ecdsa, Rsa, RsaKeyPair, Schnorr, XOnlyEcdh
from ..protocols.ecdh import FullPointEcdh, KeyPair
from ..scalarmult import adapter_for, montgomery_ladder_x, scalar_mult_naf
from ..scalarmult.fixed_base import (
    DEFAULT_WIDTH,
    TABLE_CACHE,
    FixedBaseTable,
)
from . import protocol
from .admission import Admission
from .protocol import ProtocolError, from_hex, point_param, to_hex

__all__ = [
    "WorkerState",
    "derive_scalar",
    "execute_admitted",
    "execute_batch",
    "execute_request",
    "init_worker",
    "worker_keys",
    "worker_state",
]

import hashlib

#: Default scalar range for curves without an exactly known order.
_DEFAULT_SCALAR_BITS = 159

_REQUESTS = METRICS.counter(
    "serve_worker_requests_total", "requests executed by this worker")
_ERRORS = METRICS.counter(
    "serve_worker_errors_total", "requests that produced an error reply")
_BATCHES = METRICS.counter(
    "serve_worker_batches_total", "batches executed by this worker")


def derive_scalar(seed: str, order: Optional[int] = None,
                  bits: int = _DEFAULT_SCALAR_BITS) -> int:
    """Deterministic private scalar from a request seed.

    ``order`` given: uniform-ish in [1, order-1].  Otherwise: *bits* wide
    with the top bit clamped set, mirroring
    :meth:`~repro.protocols.ecdh.XOnlyEcdh.generate_keypair`.
    """
    digest = hashlib.sha256(b"repro-serve-keygen:" + seed.encode()).digest()
    digest += hashlib.sha256(digest).digest()
    value = int.from_bytes(digest, "big")
    if order is not None:
        return 1 + value % (order - 1)
    return (value & ((1 << (bits - 1)) - 1)) | (1 << (bits - 2))


class WorkerState:
    """Per-process suites, protocol objects and fixed-base plumbing."""

    def __init__(self, hardened: bool = False, fb_width: int = DEFAULT_WIDTH,
                 fixed_base: bool = True):
        self.hardened = hardened
        self.fb_width = fb_width
        self.fixed_base = fixed_base
        self._suites: Dict[str, CurveSuite] = {}
        self._protos: Dict[Any, Any] = {}
        self._rsa: Dict[int, Rsa] = {}
        #: Comb tables over this state's own suites, by curve key.
        self._tables: Dict[str, FixedBaseTable] = {}
        self._field_reported: Dict[str, int] = {}

    # -- lazy construction ---------------------------------------------------

    def suite(self, key: str) -> CurveSuite:
        suite = self._suites.get(key)
        if suite is None:
            suite = self._suites[key] = make_suite(key)
        return suite

    def fixed_table(self, key: str) -> FixedBaseTable:
        """The comb table for *key*'s base point, over this state's own
        suite.

        The process-wide cache may hold a table built over another
        suite's field (a second state in this process, or the parent
        before a fork); it is rebound into this suite's field — copied,
        never rebuilt — so results mix with this state's points and its
        field ops count on this state's fields.
        """
        table = self._tables.get(key)
        if table is None:
            suite = self.suite(key)
            table = self._tables[key] = TABLE_CACHE.get(
                suite.curve, suite.base, width=self.fb_width,
            ).rebind(suite.curve)
        return table

    def warm(self, curves) -> None:
        """Pre-build the fixed-base tables the workload will hit."""
        if not self.fixed_base:
            return
        for key in curves:
            if key == "montgomery":
                continue  # x-only ladder path; no comb table
            self.fixed_table(key)

    def mult_for(self, key: str) -> Callable:
        """A ``(k, point) -> MaybePoint`` backend: comb table when the
        point is the curve's fixed base and the scalar fits, NAF
        double-and-add otherwise."""
        suite = self.suite(key)

        def mult(k: int, point: AffinePoint):
            if (self.fixed_base and point.x == suite.base.x
                    and point.y == suite.base.y):
                try:
                    return self.fixed_table(key).multiply(k)
                except ValueError:
                    pass  # oversized (e.g. blinded) scalar: variable-base
            return scalar_mult_naf(adapter_for(suite.curve, point), k)

        return mult

    def _proto(self, kind: str, key: str, factory: Callable):
        cache_key = (kind, key)
        proto = self._protos.get(cache_key)
        if proto is None:
            proto = self._protos[cache_key] = factory()
        return proto

    def ecdsa(self, key: str) -> Ecdsa:
        suite = self.suite(key)
        return self._proto("ecdsa", key, lambda: Ecdsa(
            suite.curve, suite.base, suite.order,
            mult=self.mult_for(key), hardened=self.hardened))

    def schnorr(self, key: str) -> Schnorr:
        suite = self.suite(key)
        return self._proto("schnorr", key, lambda: Schnorr(
            suite.curve, suite.base, suite.order,
            mult=self.mult_for(key), hardened=self.hardened))

    def ecdh(self, key: str) -> FullPointEcdh:
        suite = self.suite(key)
        return self._proto("ecdh", key, lambda: FullPointEcdh(
            suite.curve, suite.base, suite.order,
            mult=self.mult_for(key), hardened=self.hardened))

    def xonly(self) -> XOnlyEcdh:
        suite = self.suite("montgomery")
        return self._proto("xonly", "montgomery", lambda: XOnlyEcdh(
            suite.curve, suite.base, scalar_bits=suite.scalar_bits,
            hardened=self.hardened))

    def rsa(self, n: int, e: int, d: int) -> Rsa:
        engine = self._rsa.get(n)
        if engine is None or engine.key.e != e or engine.key.d != d:
            if len(self._rsa) >= 4:  # tiny LRU-ish bound; keys rarely churn
                self._rsa.pop(next(iter(self._rsa)))
            engine = self._rsa[n] = Rsa(
                RsaKeyPair(n=n, e=e, d=d, bits=n.bit_length()))
        return engine

    # -- field-counter aggregation (fork-safe: all per-process) --------------

    _FIELD_OPS = ("add", "sub", "mul", "sqr", "inv")

    def field_ops_delta(self) -> Dict[str, int]:
        """Field-op tallies accrued across this state's suite fields since
        the previous call (counters are per-field-instance, and every
        suite — comb tables included — is this state's own, so they are
        already fork-isolated; this folds them into one process-level
        number per op)."""
        totals = dict.fromkeys(self._FIELD_OPS, 0)
        for suite in self._suites.values():
            snap = suite.field.counter.snapshot()
            for op in self._FIELD_OPS:
                totals[op] += snap[op]
        delta = {op: totals[op] - self._field_reported.get(op, 0)
                 for op in self._FIELD_OPS}
        self._field_reported = totals
        return delta


_STATE: Optional[WorkerState] = None
_KEYS = None  # the process's KeyRegistry (lazy; see worker_keys)


def worker_state() -> WorkerState:
    """The process's state, created on demand (pool or in-process use)."""
    global _STATE
    if _STATE is None:
        _STATE = WorkerState()
    return _STATE


def worker_keys():
    """The process's named-key registry (:mod:`repro.serve.keys`).

    A pool worker gets a **read-only** attach over the server's journal
    from :func:`init_worker` — it resolves ``(tenant, name,
    generation)`` to scalars itself, tailing the journal on a lookup
    miss, so key material is never serialized into batch chunks.  On
    the pool-free direct path this lazily builds a writable in-memory
    registry instead, in open tenancy: :func:`execute_request` runs the
    admission core over it, so tenant auth, the rate quota and the
    ``key_*`` ops behave as on an unsharded server.
    """
    global _KEYS
    if _KEYS is None:
        from .keys import KeyRegistry

        _KEYS = KeyRegistry()
    return _KEYS


def init_worker(hardened: bool = False, fb_width: int = DEFAULT_WIDTH,
                fixed_base: bool = True, warm_curves: tuple = (),
                store_name: Optional[str] = None,
                keys_journal: Optional[str] = None) -> None:
    """Pool initializer: isolate inherited metrics, build fresh state.

    Runs in the child process.  The inherited ``METRICS`` registry is
    reset so the worker reports only its own deltas; the parent merges
    them back per batch reply (never shared memory).

    With *store_name*, the worker attaches the supervisor's shared
    comb-table store read-only (:mod:`repro.scalarmult.table_store`)
    before warming: warm tables deserialize from the segment instead of
    precomputing, so ``fixed_base_tables_built`` stays flat however
    many workers fork.  A missing or corrupt segment degrades to local
    builds rather than killing the pool.

    With *keys_journal*, the worker attaches the server's named-key
    journal **read-only**: batched requests that reference a stored key
    (``params.key``) are resolved in this process from the journal's
    replayed state, never from secrets travelling in the batch payload.
    """
    global _STATE, _KEYS
    # Never collect what the fork inherited: a finalizer of inherited
    # garbage (a shut-down pool's executor, say) takes a lock that a
    # parent thread may have held at fork time, deadlocking this worker.
    gc.freeze()
    METRICS.reset_for_fork()
    if keys_journal is not None:
        from .keys import KeyRegistry

        _KEYS = KeyRegistry(journal_path=keys_journal, writable=False)
    if store_name is not None:
        from ..scalarmult.table_store import TableStore, TableStoreError

        try:
            TABLE_CACHE.attach_store(TableStore.attach(store_name))
        except (TableStoreError, FileNotFoundError, OSError) as exc:
            TABLE_CACHE.attach_store(None)
            print(f"worker {os.getpid()}: table store {store_name!r} "
                  f"unusable ({exc}); building tables locally",
                  file=sys.stderr)
    _STATE = WorkerState(hardened=hardened, fb_width=fb_width,
                         fixed_base=fixed_base)
    _STATE.warm(warm_curves)


# -- handlers ----------------------------------------------------------------


def _affine(suite: CurveSuite, obj: Any, what: str) -> AffinePoint:
    coords = point_param(obj, what)
    return AffinePoint(suite.field.from_int(coords["x"]),
                       suite.field.from_int(coords["y"]))


def _point_result(point) -> Dict[str, Any]:
    if point is None:
        return {"infinity": True}
    return {"point": {"x": to_hex(point.x.to_int()),
                      "y": to_hex(point.y.to_int())}}


def _secret_scalar(curve: Optional[str], params: Dict[str, Any],
                   what: str = "private") -> int:
    """The op's secret scalar: inline hex, or a named-key resolution.

    ``params.key`` carries a stored key's name (the tenant was injected
    into the params by :func:`execute_admitted`; admission pinned
    ``key_generation``).  The scalar comes out of this
    process's registry — it was never on the wire or in the batch
    chunk.
    """
    if "key" in params:
        registry = worker_keys()
        ref = registry.resolve(params.get("tenant") or "",
                               params["key"],
                               params.get("key_generation"))
        if curve is not None and ref.curve != curve:
            raise ProtocolError(
                f"key {params['key']!r} lives on curve {ref.curve!r}, "
                f"not {curve!r}")
        return ref.private
    return from_hex(params[what], what)


def _handle_keygen(state: WorkerState, curve: str,
                   params: Dict[str, Any]) -> Dict[str, Any]:
    seed = params["seed"]
    if not isinstance(seed, str) or not seed:
        raise ProtocolError("seed must be a nonempty string")
    suite = state.suite(curve)
    if curve == "montgomery":
        private = derive_scalar(seed, bits=suite.scalar_bits)
        xz = montgomery_ladder_x(suite.curve, private, suite.base,
                                 bits=suite.scalar_bits)
        return {"private": to_hex(private),
                "public_x": to_hex(suite.curve.x_affine(xz).to_int())}
    private = derive_scalar(seed, order=suite.order)
    public = state.mult_for(curve)(private, suite.base)
    if public is None:
        raise ProtocolError("derived private key maps the base to infinity")
    result = _point_result(public)
    result["private"] = to_hex(private)
    result["public"] = result.pop("point")
    return result


def _handle_ecdh(state: WorkerState, curve: str,
                 params: Dict[str, Any]) -> Dict[str, Any]:
    private = _secret_scalar(curve, params)
    suite = state.suite(curve)
    if curve == "montgomery":
        from ..protocols.ecdh import XOnlyKeyPair

        peer_x = from_hex(params["peer"], "peer")
        ecdh = state.xonly()
        own = XOnlyKeyPair(private=private, public_x=0)  # only .private used
        shared = ecdh.shared_secret(own, peer_x)
        return {"shared_x": to_hex(shared)}
    peer = _affine(suite, params["peer"], "peer")
    ecdh = state.ecdh(curve)
    own = KeyPair(private=private, public=suite.base)
    shared = ecdh.shared_secret(own, peer)
    return {"shared": {"x": to_hex(shared.x.to_int()),
                       "y": to_hex(shared.y.to_int())}}


def _handle_scalarmult(state: WorkerState, curve: str,
                       params: Dict[str, Any]) -> Dict[str, Any]:
    k = from_hex(params["k"], "k")
    suite = state.suite(curve)
    if curve == "montgomery":
        if "point" in params:
            x = from_hex(params["point"], "point")
            base = suite.curve.lift_x(x)
        else:
            base = suite.base
        xz = montgomery_ladder_x(suite.curve, k, base,
                                 bits=suite.scalar_bits)
        if xz.is_infinity():
            return {"infinity": True}
        return {"x": to_hex(suite.curve.x_affine(xz).to_int())}
    if "point" in params:
        point = _affine(suite, params["point"], "point")
        if not suite.curve.is_on_curve(point):
            raise ProtocolError("point is not on the curve")
        result = scalar_mult_naf(adapter_for(suite.curve, point), k)
    else:
        result = state.mult_for(curve)(k, suite.base)
    return _point_result(result)


def _msg_bytes(params: Dict[str, Any]) -> bytes:
    msg = params["msg"]
    if not isinstance(msg, str):
        raise ProtocolError("msg must be a hex string")
    try:
        return bytes.fromhex(msg) if msg else b""
    except ValueError:
        raise ProtocolError("msg is not valid hex") from None


def _handle_ecdsa_sign(state: WorkerState, curve: str,
                       params: Dict[str, Any]) -> Dict[str, Any]:
    signature = state.ecdsa(curve).sign(
        _secret_scalar(curve, params), _msg_bytes(params))
    return {"r": to_hex(signature.r), "s": to_hex(signature.s)}


def _handle_ecdsa_verify(state: WorkerState, curve: str,
                         params: Dict[str, Any]) -> Dict[str, Any]:
    from ..protocols.ecdsa import Signature

    suite = state.suite(curve)
    public = _affine(suite, params["public"], "public")
    signature = Signature(r=from_hex(params["r"], "r"),
                          s=from_hex(params["s"], "s"))
    valid = state.ecdsa(curve).verify(public, _msg_bytes(params), signature)
    return {"valid": bool(valid)}


def _handle_schnorr_sign(state: WorkerState, curve: str,
                         params: Dict[str, Any]) -> Dict[str, Any]:
    signature = state.schnorr(curve).sign(
        _secret_scalar(curve, params), _msg_bytes(params))
    return {"e": to_hex(signature.challenge),
            "s": to_hex(signature.response)}


def _handle_schnorr_verify(state: WorkerState, curve: str,
                           params: Dict[str, Any]) -> Dict[str, Any]:
    from ..protocols.schnorr import SchnorrSignature

    suite = state.suite(curve)
    public = _affine(suite, params["public"], "public")
    signature = SchnorrSignature(challenge=from_hex(params["e"], "e"),
                                 response=from_hex(params["s"], "s"))
    valid = state.schnorr(curve).verify(public, _msg_bytes(params), signature)
    return {"valid": bool(valid)}


def _handle_rsa_sign(state: WorkerState, curve: Optional[str],
                     params: Dict[str, Any]) -> Dict[str, Any]:
    rsa = state.rsa(from_hex(params["n"], "n"), from_hex(params["e"], "e"),
                    from_hex(params["d"], "d"))
    digest = from_hex(params["digest"], "digest")
    if not 0 <= digest < rsa.key.n:
        raise ProtocolError("digest out of range for the modulus")
    return {"sig": to_hex(rsa.sign(digest))}


def _handle_rsa_verify(state: WorkerState, curve: Optional[str],
                       params: Dict[str, Any]) -> Dict[str, Any]:
    n = from_hex(params["n"], "n")
    e = from_hex(params["e"], "e")
    engine = state._rsa.get(n)
    if engine is not None and engine.key.e == e:
        rsa = engine
    else:
        rsa = Rsa(RsaKeyPair(n=n, e=e, d=0, bits=n.bit_length()))
    sig = from_hex(params["sig"], "sig")
    if not 0 <= sig < n:
        raise ProtocolError("signature out of range for the modulus")
    valid = rsa.verify(from_hex(params["digest"], "digest"), sig)
    return {"valid": bool(valid)}


_HANDLERS: Dict[str, Callable] = {
    "keygen": _handle_keygen,
    "ecdh": _handle_ecdh,
    "scalarmult": _handle_scalarmult,
    "ecdsa_sign": _handle_ecdsa_sign,
    "ecdsa_verify": _handle_ecdsa_verify,
    "schnorr_sign": _handle_schnorr_sign,
    "schnorr_verify": _handle_schnorr_verify,
    "rsa_sign": _handle_rsa_sign,
    "rsa_verify": _handle_rsa_verify,
}

assert set(_HANDLERS) == set(protocol.OPS) - protocol.INLINE_OPS, \
    "handler table drifted from OPS"


def execute_request(req: Dict[str, Any],
                    state: Optional[WorkerState] = None) -> Dict[str, Any]:
    """Run one validated request to a reply dict (never raises).

    The direct path: the server's admission core over this process's
    :func:`worker_keys` registry, then :func:`execute_admitted`.
    """
    reply, admitted = Admission(worker_keys()).admit(req)
    if reply is not None:
        return reply
    return execute_admitted(admitted, state)


def execute_admitted(req: Dict[str, Any],
                     state: Optional[WorkerState] = None) -> Dict[str, Any]:
    """Compute one admitted request to a reply dict (never raises)."""
    state = state or worker_state()
    _REQUESTS.inc()
    METRICS.counter(f"serve_worker_op_{req['op']}_total").inc()
    params = req.get("params") or {}
    if "tenant" in req:
        # Tenant-scoped request: hand the tenant down to the handler so
        # named-key resolution stays (tenant, name)-scoped.  A copy —
        # the inbound request object is never mutated.
        params = dict(params, tenant=req["tenant"])
    try:
        result = _HANDLERS[req["op"]](state, req.get("curve"), params)
        return protocol.ok_reply(req["id"], result)
    except ProtocolError as exc:
        _ERRORS.inc()
        return protocol.error_reply(req["id"], exc.error_type, str(exc))
    except (ValueError, ZeroDivisionError, KeyError, TypeError) as exc:
        _ERRORS.inc()
        return protocol.error_reply(req["id"], "BadRequest", str(exc))
    except FaultDetectedError as exc:
        _ERRORS.inc()
        return protocol.error_reply(req["id"], "Internal",
                                    f"fault countermeasure tripped: {exc}")
    except Exception as exc:  # pragma: no cover - defense in depth
        _ERRORS.inc()
        return protocol.error_reply(req["id"], "Internal",
                                    f"{type(exc).__name__}: {exc}")


def _execute_traced(
        req: Dict[str, Any], state: WorkerState, trace_id: str,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Run one request under a fresh tracer; returns (reply, span dicts).

    The root span is tagged with the inbound trace context and this
    worker's pid; the spans PR 2 threaded through scalarmult / curves /
    field nest underneath automatically, so the shard the server joins
    (:mod:`repro.obs.assemble`) reaches down to the kernel level.
    """
    tracer = Tracer()
    with tracer:
        with tracer.span("worker", kind="serve", trace=trace_id,
                         op=req["op"], curve=req.get("curve"),
                         pid=os.getpid()):
            reply = execute_admitted(req, state)
    return reply, [span_to_dict(root) for root in tracer.roots]


def execute_batch(requests: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Pool entry point: one batch in, replies + isolated metrics out.

    The metrics field carries this worker's *cumulative* counter values;
    the server keeps a per-worker baseline and merges only the delta, so
    restarts and multiple pools aggregate correctly.  Requests carrying
    a ``trace`` id additionally return their worker-side span shard in
    the parallel ``spans`` list (``None`` for untraced requests — the
    hot path pays one dict lookup).
    """
    state = worker_state()
    _BATCHES.inc()
    replies: List[Dict[str, Any]] = []
    spans: List[Optional[List[Dict[str, Any]]]] = []
    for req in requests:
        trace_id = req.get("trace")
        if trace_id is None:
            replies.append(execute_admitted(req, state))
            spans.append(None)
        else:
            reply, shard = _execute_traced(req, state, trace_id)
            replies.append(reply)
            spans.append(shard)
    for op, delta in state.field_ops_delta().items():
        if delta:
            METRICS.counter(f"serve_field_{op}_total").inc(delta)
    return {
        "pid": os.getpid(),
        "replies": replies,
        "spans": spans,
        "metrics": METRICS.counters_snapshot(),
    }
