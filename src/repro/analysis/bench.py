"""The repository's benchmark harness: ``python -m repro bench [iss|serve]``.

Two suites share one run-record schema, one renderer, one baseline
comparison and one floor table (:data:`FLOORS`):

* ``iss`` (default) — simulator *throughput* (simulated instructions per
  host second) for the paper's kernels under all three execution
  engines: the ``step()`` reference interpreter, the block-compiling
  :class:`~repro.avr.engine.FastEngine` and the superblock
  :class:`~repro.avr.trace.TraceEngine`, with the per-kernel speedups
  (fast/reference, trace/reference and trace/fast).  Results append to
  ``BENCH_iss.json``.  The engine architecture being measured is
  documented in DESIGN.md §4 "Execution engines".
* ``serve`` — served ECC throughput through the drivers of
  :mod:`repro.serve.loadgen`: keygen on secp160r1 one request at a time
  (``direct``, variable-base NAF: the baseline; ``fixedbase``, the comb
  tables of :mod:`repro.scalarmult.fixed_base`), through the batching
  server at pool widths 1/2/4 (``pool<N>``) and once more with request
  tracing on (``pool<N>_traced``); the default mixed workload against
  fresh N-shard clusters (``mixed/secp160r1/shard<N>``); the same ECDSA
  stream with inline vs server-resident named keys per shard count
  (``inline_shard<N>`` / ``named_shard<N>``); and an over-budget tenant
  stream whose shed fraction proves the token bucket sheds (``quota``).
  Results append to ``BENCH_serve.json``; served entries also carry a
  ``latency_ms`` summary (count/mean/p50/p95/p99, accept to reply).

Every leg is timed serially in this process (the serve legs' servers
and clusters run in their own processes, one leg at a time), so legs
never compete for cores.  Every run — full, ``--smoke`` or ``--check`` —
is gated by :func:`check_floors`; ``--check`` additionally compares a
fresh smoke run against the last record of the suite's file.

Run-record schema (``schema == 1``)::

    {
      "schema": 1,
      "timestamp": "2026-08-05T12:00:00+00:00",
      "label": "full" | "smoke" | <user label>,
      "python": "3.11.x",
      "platform": "Linux-...",
      "jobs": 1,
      "entries": [
        {"name": "opf_mul_mac/ISE/fast", "family": "field",
         "kernel": "opf_mul_mac", "mode": "ISE", "engine": "fast",
         "reps": 400, "instructions": 619, "cycles_per_run": 620,
         "wall_s": 0.1, "ips": 2400000.0},
        ...
      ],
      "speedups": {"opf_mul_mac/ISE": 10.2, ...}
    }

``ips`` is simulated instructions retired per host wall-clock second
(operations per second for ``family: "serve"`` entries);
``instructions`` / ``cycles_per_run`` are per-rep and deterministic, so
they double as a cross-engine consistency check.  ``jobs`` is 1 for the
ISS suite and the widest worker pool for the serve suite.
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import json
import os
import platform
import re
import sys
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from ..avr.timing import Mode
from ..kernels import (
    KernelRunner,
    LadderKernel,
    OpfConstants,
    generate_modadd,
    generate_modsub,
    generate_opf_mul_comba,
    generate_opf_mul_mac,
)

# -- floors and tolerances ---------------------------------------------------
#
# Every ratio below is taken between two legs of the same run, so host
# load largely cancels out; the floors sit well below the measured
# figures (EXPERIMENTS.md) so shared-host noise cannot fail a correct
# build, while a real regression loses far more.

#: Fast/reference speedup on the ISE multiplication kernel (~10x idle).
ENGINE_MIN_SPEEDUP = 3.0

#: Trace/fast speedup on the full ISE ladder (``ladder_xz/ISE``) — the
#: superblock tier's headline number (~3.5x).
TRACE_MIN_SPEEDUP = 2.5

#: Best served pool vs direct single-request keygen throughput.  On a
#: single-core host it is carried by the fixed-base algorithmic win, not
#: by parallelism — by design, so the gate is meaningful on any CI shape.
SERVE_MIN_SCALING = 2.0

#: Fixed-base comb vs variable-base NAF keygen, one request at a time.
FIXED_BASE_MIN_SPEEDUP = 1.5

#: Traced vs untraced pool throughput: the tracing hot-path guard.
TRACED_MIN_RATIO = 0.70

#: Best multi-shard vs one-shard throughput (mixed workload) — the
#: scale-out gate, enforced where there are cores to scale onto.
SHARD_MIN_SCALING = 1.5

#: The same ratio on a single-core host, where shards cannot outrun one
#: shard: only guards against the fan-out collapsing throughput.
SHARD_SINGLE_CORE_MIN = 0.6

#: Named-key vs inline-key ECDSA throughput at each shard count: named
#: use adds admission work and a registry lookup, no curve arithmetic.
NAMED_MIN_RATIO = 0.6

#: Shed fraction of the quota leg: a stream several times over its
#: tenant's budget must get shed with QuotaExceeded — a bucket that
#: admits everything is a bug the throughput numbers would never catch.
QUOTA_SHED_MIN = 0.2

#: ``--check`` tolerance of the ISS suite: a fresh smoke entry may fall
#: this far below the last record before the check fails.
CHECK_THRESHOLD = 0.30

#: ``--check`` tolerance of the serve suite (pool start-up and batching
#: make served throughput wobble more than the ISS microbenchmarks).
SERVE_CHECK_THRESHOLD = 0.50


class Floor(NamedTuple):
    """One row of :data:`FLOORS`.

    ``keys`` is a regex over the record's speedup keys (full match).
    With ``every`` each matching ratio must hold the floor, otherwise the
    best one must.  A ``required`` floor fails a record without a
    matching key; any other floor is skipped then (older records, or a
    suite run without those legs).  ``cores`` limits the row to hosts
    with two or more cpus (``"multi"``) or one (``"single"``).
    """

    suite: str
    what: str
    keys: str
    every: bool
    floor: float
    required: bool = True
    cores: str = "any"


#: Every floor the harness enforces, on every run of its suite.
FLOORS = (
    Floor("iss", "fast/reference speedup", r"opf_mul_mac/ISE", True,
          ENGINE_MIN_SPEEDUP),
    Floor("iss", "trace/fast ladder speedup", r"ladder_xz/ISE/trace_vs_fast",
          True, TRACE_MIN_SPEEDUP),
    Floor("serve", "fixed-base speedup", r"keygen/secp160r1/fixedbase:direct",
          True, FIXED_BASE_MIN_SPEEDUP),
    Floor("serve", "served throughput scaling", r".*/pool\d+:direct", False,
          SERVE_MIN_SCALING),
    Floor("serve", "traced/untraced throughput ratio",
          r".*/pool\d+_traced:pool\d+", True, TRACED_MIN_RATIO,
          required=False),
    Floor("serve", "shard scaling", r"mixed/secp160r1/shard\d+:shard\d+",
          False, SHARD_MIN_SCALING, required=False, cores="multi"),
    Floor("serve", "single-core shard anti-regression ratio",
          r"mixed/secp160r1/shard\d+:shard\d+", False, SHARD_SINGLE_CORE_MIN,
          required=False, cores="single"),
    Floor("serve", "named/inline throughput ratio",
          r".*/named_shard\d+:inline_shard\d+", True, NAMED_MIN_RATIO,
          required=False),
    Floor("serve", "quota shed fraction", r"named/quota_shed_fraction", True,
          QUOTA_SHED_MIN, required=False),
)


class Suite(NamedTuple):
    """Per-suite settings of :data:`SUITES`."""

    output: str        # run-record file at the repository root
    tolerance: float   # --check: allowed drop below the baseline
    unit: str          # rate column of the rendered table
    scale: float       # ips per unit


SUITES = {
    "iss": Suite("BENCH_iss.json", CHECK_THRESHOLD, "Mips", 1e6),
    "serve": Suite("BENCH_serve.json", SERVE_CHECK_THRESHOLD, "ops/s", 1.0),
}

#: Default output file (the ISS suite's), at the repository root.
DEFAULT_OUTPUT = SUITES["iss"].output

# -- ISS suite ---------------------------------------------------------------

_GENERATORS = {
    "opf_add": generate_modadd,
    "opf_sub": generate_modsub,
    "opf_mul_comba": generate_opf_mul_comba,
    "opf_mul_mac": generate_opf_mul_mac,
}

# The paper's 160-bit OPF: p = 65356 * 2^144 + 1.
_CONSTANTS = dict(u=65356, k=144)


def _matrix(smoke: bool) -> List[Dict[str, Any]]:
    """The ISS legs: one spec dict per (kernel, mode, engine)."""
    if smoke:
        field = [("opf_mul_mac", Mode.ISE, 60),
                 ("opf_mul_comba", Mode.CA, 40)]
    else:
        field = [("opf_add", Mode.CA, 600), ("opf_add", Mode.FAST, 600),
                 ("opf_sub", Mode.CA, 600), ("opf_sub", Mode.FAST, 600),
                 ("opf_mul_comba", Mode.CA, 250),
                 ("opf_mul_comba", Mode.FAST, 250),
                 ("opf_mul_mac", Mode.ISE, 400)]
    specs: List[Dict[str, Any]] = []
    for kernel, mode, reps in field:
        for engine in ("fast", "trace", "reference"):
            specs.append({
                "family": "field", "kernel": kernel, "mode": mode.value,
                "engine": engine,
                "reps": reps if engine != "reference" else max(2, reps // 10),
            })
    # The full scalar multiplication exercises call/ret, the bit-loop
    # driver and long superblock chains; it is the headline number for
    # the trace tier, so it runs warmed and multi-rep under every engine
    # in both labels (the reference interpreter gets one rep — a single
    # ladder costs seconds there, and the ips of one warmed full ladder
    # is already stable at the millions-of-instructions scale).
    for engine, reps in (("fast", 1 if smoke else 3),
                         ("trace", 1 if smoke else 3),
                         ("reference", 1)):
        specs.append({"family": "curve", "kernel": "ladder_xz",
                      "mode": Mode.ISE.value, "engine": engine,
                      "reps": reps})
    return specs


def _bench_field(spec: Dict[str, Any]) -> Dict[str, Any]:
    constants = OpfConstants(**_CONSTANTS)
    source = _GENERATORS[spec["kernel"]](constants)
    runner = KernelRunner(source, Mode(spec["mode"]), engine=spec["engine"])
    p = constants.p
    # Deterministic operands shared by every engine so ips comparisons
    # measure the engine, not the data.
    a = pow(3, 77, p)
    b = pow(5, 91, p)
    runner.run(a, b)                      # warm-up: compile + decode caches
    core = runner.core
    per_run = core.instructions_retired
    cycles = core.cycles
    reps = spec["reps"]

    # The kernels read A/B in place and write R/T, so operands staged by
    # the warm-up survive every iteration: the hot loop is reset + run,
    # i.e. pure engine throughput rather than harness byte-shuffling.
    def body():
        for _ in range(reps):
            core.reset(pc=0)
            core.run()

    wall = _best_of(3, body)
    return _entry(spec, per_run, cycles, reps, wall)


def _best_of(n: int, body) -> float:
    """Fastest of *n* timed loops — the standard throughput discipline:
    the minimum is the run least disturbed by scheduler noise."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        body()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_ladder(spec: Dict[str, Any]) -> Dict[str, Any]:
    constants = OpfConstants(**_CONSTANTS)
    kernel = LadderKernel(constants, Mode(spec["mode"]),
                          engine=spec["engine"])
    k = pow(7, 123, constants.p) | 1
    base_x = 9
    kernel.run(k, base_x)                 # warm-up
    per_run = kernel.core.instructions_retired
    cycles = kernel.core.cycles
    reps = spec["reps"]
    wall = _best_of(2, lambda: [kernel.run(k, base_x) for _ in range(reps)])
    return _entry(spec, per_run, cycles, reps, wall)


def _entry(spec: Dict[str, Any], per_run: int, cycles: int, reps: int,
           wall: float) -> Dict[str, Any]:
    return {
        "name": f"{spec['kernel']}/{spec['mode']}/{spec['engine']}",
        "family": spec["family"],
        "kernel": spec["kernel"],
        "mode": spec["mode"],
        "engine": spec["engine"],
        "reps": reps,
        "instructions": per_run,
        "cycles_per_run": cycles,
        "wall_s": wall,
        "ips": per_run * reps / wall if wall > 0 else 0.0,
    }


def run_leg(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one ISS benchmark spec to an entry."""
    if spec["family"] == "curve":
        return _bench_ladder(spec)
    return _bench_field(spec)


def compute_speedups(entries: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Engine ips ratios per (kernel, mode).

    ``"<kernel>/<mode>"`` is the historical fast/reference ratio;
    ``"<kernel>/<mode>/trace"`` is trace/reference and
    ``"<kernel>/<mode>/trace_vs_fast"`` trace/fast — the latter is the
    number :data:`TRACE_MIN_SPEEDUP` gates on ``ladder_xz/ISE``.
    """
    ips = {e["name"]: e["ips"] for e in entries}
    speedups: Dict[str, float] = {}
    for entry in entries:
        key = f"{entry['kernel']}/{entry['mode']}"
        ref = ips.get(f"{key}/reference")
        if entry["engine"] == "fast":
            if ref:
                speedups[key] = entry["ips"] / ref
        elif entry["engine"] == "trace":
            if ref:
                speedups[f"{key}/trace"] = entry["ips"] / ref
            fast = ips.get(f"{key}/fast")
            if fast:
                speedups[f"{key}/trace_vs_fast"] = entry["ips"] / fast
    return speedups


def _make_record(label: str, entries: List[Dict[str, Any]],
                 speedups: Dict[str, float], jobs: int = 1
                 ) -> Dict[str, Any]:
    record = {
        "schema": 1,
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "label": label,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "jobs": jobs,
        "entries": entries,
        "speedups": speedups,
    }
    validate_run_record(record)
    return record


def run_bench(smoke: bool = False,
              label: Optional[str] = None) -> Dict[str, Any]:
    """Run the ISS legs one after another; return one run record."""
    entries = [run_leg(spec) for spec in _matrix(smoke)]
    return _make_record(label or ("smoke" if smoke else "full"), entries,
                        compute_speedups(entries))


# -- serve suite -------------------------------------------------------------


def _latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """Per-request latency summary for a serve entry (ms)."""
    from ..serve.loadgen import percentile

    ordered = sorted(latencies)
    n = len(ordered)
    return {"count": n,
            "mean": sum(ordered) / n if n else 0.0,
            "p50": percentile(ordered, 50),
            "p95": percentile(ordered, 95),
            "p99": percentile(ordered, 99)}


def _bench_entry(engine: str, n: int, wall: float,
                 latencies: Optional[Sequence[float]] = None,
                 kernel: str = "keygen") -> Dict[str, Any]:
    """A ``family: "serve"`` entry: *n* operations in *wall* seconds."""
    entry = {
        "name": f"{kernel}/secp160r1/{engine}",
        "family": "serve",
        "kernel": kernel,
        "mode": "secp160r1",
        "engine": engine,
        "reps": n,
        "instructions": 1,  # one operation per rep; ips is ops per second
        "cycles_per_run": 0,
        "wall_s": wall,
        "ips": n / wall if wall > 0 else 0.0,
    }
    if latencies:
        entry["latency_ms"] = _latency_summary(latencies)
    return entry


def _assert_all_ok(replies: Sequence[Dict[str, Any]], what: str) -> None:
    errors = [r for r in replies if not r["ok"]]
    if errors:
        raise RuntimeError(
            f"{what}: {len(errors)} error replies, first: "
            f"{errors[0]['error']}")


def run_bench_serve(n: Optional[int] = None, smoke: bool = False,
                    pools: Sequence[int] = (1, 2, 4),
                    shard_counts: Optional[Sequence[int]] = None,
                    label: Optional[str] = None) -> Dict[str, Any]:
    """Run the serve legs one after another; return one run record.

    Raises ``RuntimeError`` on any error reply (the quota leg allows
    only ``QuotaExceeded``).
    """
    from ..curves.params import make_suite
    from ..scalarmult.fixed_base import TABLE_CACHE
    from ..serve.loadgen import (
        DEFAULT_MIX,
        build_key_setup,
        build_requests,
        run_direct,
        run_served,
        run_sharded,
    )

    if n is None:
        n = 8 if smoke else 24
    if shard_counts is None:
        shard_counts = (1, 2) if smoke else (1, 2, 4)
    requests = build_requests(n, mix="keygen:secp160r1=1", seed=1601)
    # Warm the parent's comb table before any pool exists: forked
    # workers inherit it and rebind it instead of building their own.
    suite = make_suite("secp160r1")
    TABLE_CACHE.get(suite.curve, suite.base)

    entries: List[Dict[str, Any]] = []
    speedups: Dict[str, float] = {}

    def leg(name: str, result, kernel: str = "keygen",
            reps: int = n) -> float:
        """Record one driver result — ``(replies, wall)`` from the direct
        path, ``(replies, latencies, wall)`` from a server — as an entry
        and return its ops/s."""
        replies, *latencies, wall = result
        _assert_all_ok(replies, name)
        entry = _bench_entry(name, reps, wall, *latencies, kernel=kernel)
        entries.append(entry)
        return entry["ips"]

    direct = leg("direct", run_direct(requests, fixed_base=False))
    speedups["keygen/secp160r1/fixedbase:direct"] = leg(
        "fixedbase", run_direct(requests, fixed_base=True)) / direct
    pool_ips = {}
    for workers in pools:
        pool_ips[workers] = leg(f"pool{workers}", asyncio.run(
            run_served(requests, workers=workers)))
        speedups[f"keygen/secp160r1/pool{workers}:direct"] = (
            pool_ips[workers] / direct)
    # Tracing-overhead leg: the widest pool again, tracing every request.
    wide = max(pools)
    traced = leg(f"pool{wide}_traced", asyncio.run(
        run_served(requests, workers=wide, tracing=True)))
    speedups[f"keygen/secp160r1/pool{wide}_traced:direct"] = traced / direct
    speedups[f"keygen/secp160r1/pool{wide}_traced:pool{wide}"] = (
        traced / pool_ips[wide] if pool_ips[wide] else 0.0)

    # Shard legs: the mixed workload against fresh N-shard clusters,
    # port-per-shard + client round-robin for deterministic placement,
    # one worker per shard so the shard count is the only parallelism
    # knob.
    n_shard = 24 if smoke else 60
    shard_requests = build_requests(n_shard, mix=DEFAULT_MIX, seed=1602)
    shard_ips = {}
    for count in shard_counts:
        shard_ips[count] = leg(f"shard{count}", asyncio.run(run_sharded(
            shard_requests, shards=count, workers=1,
            connections=4 * count)), kernel="mixed", reps=n_shard)
    base = min(shard_counts)
    for count in shard_counts:
        if count != base and shard_ips[base]:
            speedups[f"mixed/secp160r1/shard{count}:shard{base}"] = (
                shard_ips[count] / shard_ips[base])

    # Tenancy legs (repro.serve.keys): the same ECDSA stream through a
    # fresh cluster twice per shard count — inline private scalars vs
    # server-resident named keys over two tenants (set up through shard
    # 0; resolution everywhere else rides the shared journal).  Their
    # ratio is the full cost of auth + token bucket + generation pin +
    # worker-side key resolution.
    n_sign = 12 if smoke else 24
    sign_mix = "ecdsa_sign:secp160r1=1"
    inline_requests = build_requests(n_sign, mix=sign_mix, seed=1603)
    named_requests = build_requests(n_sign, mix=sign_mix, seed=1603,
                                    tenants=2)
    named_setup = build_key_setup(2, sign_mix, seed=1603)
    for count in (1, 2):
        inline = leg(f"inline_shard{count}", asyncio.run(run_sharded(
            inline_requests, shards=count, workers=1,
            connections=4 * count)), kernel="ecdsa", reps=n_sign)
        named = leg(f"named_shard{count}", asyncio.run(run_sharded(
            named_requests, shards=count, workers=1, connections=4 * count,
            setup=named_setup)), kernel="ecdsa", reps=n_sign)
        if inline:
            speedups[f"ecdsa/secp160r1/named_shard{count}:"
                     f"inline_shard{count}"] = named / inline

    # Quota leg: one tenant with a deliberately tiny budget (burst 8,
    # 25/s) under an open-loop stream several times that size; the
    # overflow must be shed with typed QuotaExceeded replies.
    n_quota = 40
    quota_requests = build_requests(n_quota, mix=sign_mix, seed=1604,
                                    tenants=1)
    replies, lat, wall = asyncio.run(run_served(
        quota_requests, workers=1,
        setup=build_key_setup(1, sign_mix, seed=1604),
        tenants_config={"t0": {"rate": 25.0, "burst": 8}}))
    kept = [r for r in replies
            if r["ok"] or r["error"]["type"] != "QuotaExceeded"]
    leg("quota", (kept, lat, wall), kernel="ecdsa", reps=n_quota)
    speedups["named/quota_shed_fraction"] = (n_quota - len(kept)) / n_quota

    return _make_record(label or ("serve-smoke" if smoke else "serve"),
                        entries, speedups, jobs=max(pools))


def run(suite: str, smoke: bool = False,
        label: Optional[str] = None) -> Dict[str, Any]:
    """One run record of *suite* (``"iss"`` or ``"serve"``)."""
    if suite == "serve":
        return run_bench_serve(smoke=smoke, label=label)
    return run_bench(smoke=smoke, label=label)


# -- records -----------------------------------------------------------------

_ENTRY_FIELDS = {
    "name": str, "family": str, "kernel": str, "mode": str, "engine": str,
    "reps": int, "instructions": int, "cycles_per_run": int,
    "wall_s": (int, float), "ips": (int, float),
}


#: Execution paths a ``family: "serve"`` entry may carry (the serve
#: suite's legs): the one-at-a-time baseline, the fixed-base comb path,
#: the full batched pool at any width, the pool with request tracing
#: enabled (the tracing-overhead row), an N-shard cluster of
#: :mod:`repro.serve.shard` (the scale-out rows), the named-key vs
#: inline-key shard twins of the tenancy benchmark (``inline_shard<N>``
#: / ``named_shard<N>``), or the quota-shed leg (``quota``: a
#: deliberately over-budget tenant stream).
_SERVE_ENGINE = re.compile(
    r"direct|fixedbase|pool[0-9]+(_traced)?|shard[0-9]+"
    r"|inline_shard[0-9]+|named_shard[0-9]+|quota")


def validate_entry(entry: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless *entry* matches the schema-1 layout.

    Two entry families share the layout: ISS throughput entries
    (``family`` "field"/"curve", engine fast/trace/reference, mode an
    :class:`~repro.avr.timing.Mode`) and serving entries (``family``
    "serve", engine one of the serve legs, mode a curve key, ``ips``
    measured in operations per second).
    """
    if not isinstance(entry, dict):
        raise ValueError(f"entry must be a dict, got {type(entry).__name__}")
    for field, types in _ENTRY_FIELDS.items():
        if field not in entry:
            raise ValueError(f"entry missing field {field!r}")
        if not isinstance(entry[field], types) or isinstance(
                entry[field], bool):
            raise ValueError(f"entry field {field!r} has wrong type")
    if entry["family"] == "serve":
        from ..serve.protocol import CURVES  # deferred: keeps bench light

        if not _SERVE_ENGINE.fullmatch(entry["engine"]):
            raise ValueError(f"unknown serve engine {entry['engine']!r}")
        if entry["mode"] not in CURVES:
            raise ValueError(f"unknown serve curve {entry['mode']!r}")
        if entry["cycles_per_run"] != 0:
            raise ValueError("serve entries carry no cycle count")
    else:
        if entry["engine"] not in ("fast", "trace", "reference"):
            raise ValueError(f"unknown engine {entry['engine']!r}")
        if entry["mode"] not in {m.value for m in Mode}:
            raise ValueError(f"unknown mode {entry['mode']!r}")
    if entry["name"] != f"{entry['kernel']}/{entry['mode']}/{entry['engine']}":
        raise ValueError(f"entry name {entry['name']!r} does not match parts")
    if entry["reps"] < 1 or entry["instructions"] < 1 or entry["ips"] < 0:
        raise ValueError("entry counters out of range")


def validate_run_record(record: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless *record* is a valid schema-1 run."""
    if not isinstance(record, dict):
        raise ValueError("run record must be a dict")
    if record.get("schema") != 1:
        raise ValueError(f"unsupported schema {record.get('schema')!r}")
    for field in ("timestamp", "label", "python", "platform"):
        if not isinstance(record.get(field), str):
            raise ValueError(f"record field {field!r} must be a string")
    if not isinstance(record.get("jobs"), int) or record["jobs"] < 1:
        raise ValueError("record field 'jobs' must be a positive int")
    entries = record.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ValueError("record must carry a non-empty entries list")
    for entry in entries:
        validate_entry(entry)
    speedups = record.get("speedups")
    if not isinstance(speedups, dict):
        raise ValueError("record must carry a speedups dict")
    for key, value in speedups.items():
        if not isinstance(key, str) or not isinstance(value, (int, float)):
            raise ValueError("speedups must map str -> number")


def append_record(record: Dict[str, Any], path: str) -> None:
    """Append *record* to the JSON run list at *path* (atomic rewrite)."""
    validate_run_record(record)
    records: List[Dict[str, Any]] = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            records = json.load(fh)
        if not isinstance(records, list):
            raise ValueError(f"{path} does not hold a JSON run list")
    records.append(record)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def measure_speedup(record: Dict[str, Any],
                    key: str = "opf_mul_mac/ISE") -> float:
    """The recorded fast/reference speedup for *key* (ValueError if absent)."""
    try:
        return float(record["speedups"][key])
    except KeyError:
        raise ValueError(f"run record has no speedup entry for {key!r}")


def _suite_of(record: Dict[str, Any]) -> str:
    return "serve" if record["entries"][0]["family"] == "serve" else "iss"


def render(record: Dict[str, Any]) -> str:
    """The run record as a text table: one row per leg, then the
    speedups (ratios between legs of the run)."""
    suite = SUITES[_suite_of(record)]
    lines = [f"{_suite_of(record)} benchmark ({record['label']}, "
             f"python {record['python']})", ""]
    lines.append(f"{'leg':<34}{'reps':>6}{'wall s':>9}{suite.unit:>10}")
    lines.append("-" * 59)
    for entry in record["entries"]:
        lines.append(f"{entry['name']:<34}{entry['reps']:>6}"
                     f"{entry['wall_s']:>9.2f}"
                     f"{entry['ips'] / suite.scale:>10.2f}")
    lines.append("")
    lines.append("speedups:")
    for key in sorted(record["speedups"]):
        lines.append(f"  {key:<48}{record['speedups'][key]:>7.2f}x")
    return "\n".join(lines)


# -- gates -------------------------------------------------------------------


def check_floors(record: Dict[str, Any], suite: Optional[str] = None,
                 cpus: Optional[int] = None) -> int:
    """Enforce every :data:`FLOORS` row of *suite* on *record*'s
    speedups, one line per row; returns a shell exit code.

    *suite* defaults to the record's own; *cpus* (default
    ``os.cpu_count()``) picks between the multi-core shard floor and
    the single-core anti-regression bound.
    """
    suite = suite or _suite_of(record)
    cores = "multi" if (cpus or os.cpu_count() or 1) >= 2 else "single"
    speedups = record["speedups"]
    failed = False
    for row in FLOORS:
        if row.suite != suite or row.cores not in ("any", cores):
            continue
        values = {k: v for k, v in speedups.items()
                  if re.fullmatch(row.keys, k)}
        if not values:
            if row.required:
                print(f"FAIL  {row.what}: no {row.keys} in the record")
                failed = True
            continue
        key = (min if row.every else max)(values, key=values.get)
        ok = values[key] >= row.floor
        failed = failed or not ok
        print(f"{'ok' if ok else 'FAIL':<6}{row.what} {values[key]:.2f} "
              f"({'>=' if ok else '<'} floor {row.floor:.2f}; {key})")
    print("FAIL: a floor does not hold" if failed
          else f"OK: every {suite} floor holds")
    return 1 if failed else 0


def compare_records(fresh: Dict[str, Any], baseline: Dict[str, Any],
                    threshold: float = CHECK_THRESHOLD
                    ) -> List[Dict[str, Any]]:
    """Per-entry throughput comparison of two run records.

    Returns one row per benchmark name present in *both* records:
    ``{"name", "baseline_ips", "fresh_ips", "ratio", "regressed"}``
    where ``regressed`` marks a fresh throughput below
    ``(1 - threshold) * baseline``.
    """
    base_ips = {e["name"]: e["ips"] for e in baseline["entries"]}
    rows: List[Dict[str, Any]] = []
    for entry in fresh["entries"]:
        old = base_ips.get(entry["name"])
        if not old:
            continue
        ratio = entry["ips"] / old
        rows.append({
            "name": entry["name"],
            "baseline_ips": old,
            "fresh_ips": entry["ips"],
            "ratio": ratio,
            "regressed": ratio < 1.0 - threshold,
        })
    return rows


def check(suite: str = "iss", path: Optional[str] = None) -> int:
    """Run a fresh smoke run of *suite*, compare it to the last record at
    *path* (default: the suite's file) within the suite's tolerance, and
    enforce the floors on it; returns a shell exit code.

    Nothing is appended to the record file — the check is read-only.
    """
    spec = SUITES[suite]
    path = path or spec.output
    if not os.path.exists(path):
        print(f"bench {suite} --check: no baseline at {path}")
        return 1
    with open(path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    if not isinstance(records, list) or not records:
        print(f"bench {suite} --check: {path} holds no run records")
        return 1
    baseline = records[-1]
    validate_run_record(baseline)
    fresh = run(suite, smoke=True, label="check")
    rows = compare_records(fresh, baseline, spec.tolerance)
    if not rows:
        print(f"bench {suite} --check: no overlapping benchmark names with "
              f"the baseline ({baseline['label']} @ {baseline['timestamp']})")
        return 1
    print(f"bench {suite} --check vs {baseline['label']} run of "
          f"{baseline['timestamp']} (tolerance -{spec.tolerance:.0%})\n")
    print(f"{'leg':<34}{'baseline':>10}{'fresh':>10}{'ratio':>8}"
          f"  ({spec.unit})")
    print("-" * 70)
    failed = False
    for row in rows:
        flag = "  REGRESSED" if row["regressed"] else ""
        failed = failed or row["regressed"]
        print(f"{row['name']:<34}{row['baseline_ips'] / spec.scale:>10.2f}"
              f"{row['fresh_ips'] / spec.scale:>10.2f}"
              f"{row['ratio']:>8.2f}{flag}")
    print()
    print("FAIL: throughput regressed beyond tolerance" if failed
          else "OK: throughput within tolerance of the last record")
    return check_floors(fresh, suite) or int(failed)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Benchmark ISS throughput (reference vs fast vs trace "
                    "engine) or served ECC throughput; every run enforces "
                    "the suite's floors.",
    )
    parser.add_argument("suite", nargs="?", choices=sorted(SUITES),
                        default="iss",
                        help="which suite to run (default: iss)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced legs and rep counts")
    parser.add_argument("--check", action="store_true",
                        help="run a fresh smoke benchmark and compare it "
                             "against the last committed record; exit "
                             "non-zero on a regression beyond the suite's "
                             "tolerance (iss 30%%, serve 50%%) or a missed "
                             "floor (appends nothing)")
    parser.add_argument("--output", default=None,
                        help="run-record JSON file (default: BENCH_<suite>"
                             ".json; 'none' disables writing; with --check "
                             "this is the baseline to compare against)")
    parser.add_argument("--label", default=None,
                        help="free-form label stored in the run record")
    args = parser.parse_args(argv)
    output = args.output or SUITES[args.suite].output

    if args.check:
        return check(args.suite, None if output == "none" else output)
    record = run(args.suite, smoke=args.smoke, label=args.label)
    print(render(record))
    print()
    status = check_floors(record, args.suite)
    if output != "none":
        append_record(record, output)
        print(f"\nappended run record to {output}")
    return status


if __name__ == "__main__":
    sys.exit(main())
