"""repro.serve — the batched, multi-worker ECC service.

An asyncio TCP front-end (:mod:`repro.serve.server`) speaking
newline-delimited JSON (:mod:`repro.serve.protocol`), dispatching
batches of compatible requests to a :mod:`multiprocessing` worker pool
(:mod:`repro.serve.worker`) whose fixed-base comb tables
(:mod:`repro.scalarmult.fixed_base`) make the common fixed-point
operations several times faster than the variable-base path.
The sans-IO admission core (:mod:`repro.serve.admission`) is the one
path from a request line to compute, shared by the server and the
in-process direct path.  Server-resident named keys, tenancy and
quotas live in :mod:`repro.serve.keys` (the ``key_create`` /
``key_rotate`` / ``key_delete`` / ``key_info`` ops, plus
``params.key`` on sign/ECDH).
Clients live in :mod:`repro.serve.client`; the deterministic load
generator and its drivers in :mod:`repro.serve.loadgen` (timed and
floor-gated by ``python -m repro bench serve``).
"""

from .keys import KeyRegistry, TokenBucket, tenant_token
from .protocol import (
    CURVES,
    ERROR_TYPES,
    KEY_OPS,
    OPS,
    ORDER_CURVES,
    DeadlineExceeded,
    Overloaded,
    ProtocolError,
    QuotaExceeded,
    Unauthorized,
)
from .server import EccServer, ServeConfig

__all__ = [
    "CURVES",
    "ERROR_TYPES",
    "KEY_OPS",
    "KeyRegistry",
    "OPS",
    "ORDER_CURVES",
    "DeadlineExceeded",
    "EccServer",
    "Overloaded",
    "ProtocolError",
    "QuotaExceeded",
    "ServeConfig",
    "TokenBucket",
    "Unauthorized",
    "tenant_token",
]
