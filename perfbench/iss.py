"""The ``iss_ladder`` workload and the ISS layer account.

Full 160-bit Montgomery ladders (the paper's Table II experiment) run
round-robin in CA, FAST and ISE mode through ``repro.kernels.LadderKernel``
on the default ``AvrCore`` engine, each with a fresh seeded scalar.  Every
ladder's x(kP) is checked against the host ladder
``repro.scalarmult.montgomery_ladder_x`` and its cycle count against the
pinned figure.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from measure import SpanRecorder, host_scale, median, tail

#: Simulated cycles of one full 160-bit ladder, identical for every scalar
#: (the masked ladder is constant-time by construction).
PINNED_CYCLES = {"CA": 6_322_168, "FAST": 5_102_425, "ISE": 1_308_025}
MODE_NAMES = ("CA", "FAST", "ISE")

#: Latency limit of one ladder: about 10x the slowest mode's host time.
LADDER_LIMIT_MS = 30_000.0

_R160 = 1 << 160


class LadderCheck:
    """Host reference for ISS ladders (x(kP) on the OPF Montgomery curve)."""

    def __init__(self):
        from repro.curves.params import make_suite
        from repro.scalarmult import montgomery_ladder_x

        self.suite = make_suite("montgomery")
        self._ladder = montgomery_ladder_x
        self.base_x = self.suite.base.x.to_int()
        self.p = self.suite.field.p
        self.checked = 0

    def expected_x(self, k: int) -> Optional[int]:
        out = self._ladder(self.suite.curve, k, self.suite.base, bits=160)
        self.checked += 1
        if out.is_infinity():
            return None
        return self.suite.curve.x_affine(out).to_int()

    def ok(self, mode: str, k: int, x: int, z: int, cycles: int) -> bool:
        if cycles != PINNED_CYCLES[mode]:
            return False
        want = self.expected_x(k)
        if z % self.p == 0:
            return want is None
        return want == x * pow(z % self.p, -1, self.p) % self.p


def ladder_kernels(engine: Optional[str] = None) -> Dict[str, Any]:
    from repro.avr.timing import Mode
    from repro.kernels import LadderKernel, OpfConstants

    constants = OpfConstants(u=65356, k=144)
    return {m: LadderKernel(constants, Mode[m], engine=engine)
            for m in MODE_NAMES}


class Ladder(NamedTuple):
    """One timed ladder."""

    mode: str
    instr: int
    wall: float
    good: bool
    #: :func:`measure.host_scale`, the mean of readings taken just before
    #: and just after the ladder.
    scale: float

    @property
    def ref_s(self) -> float:
        return self.wall * self.scale


def run_ladder(kernel, k: int, base_x: int) -> Tuple[int, int, int, float]:
    t0 = time.perf_counter()
    x, z, cycles = kernel.run(k, base_x)
    return x, z, cycles, time.perf_counter() - t0


class IssLadder:
    """Set-up (assemble + first run per mode) and the timed round-robin."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"iss_ladder:{seed}")
        self.check: Optional[LadderCheck] = None
        self.kernels: Dict[str, Any] = {}
        self.first_s: Dict[str, float] = {}
        #: (mode, instructions, host seconds, correct) per timed ladder.
        self.rows: List[Tuple[str, int, float, bool]] = []
        self.attempted = 0
        self.failed = 0

    def scalar(self) -> int:
        return self.rng.getrandbits(160) | 1

    def setup(self) -> None:
        self.check = LadderCheck()
        self.kernels = ladder_kernels()
        for mode in MODE_NAMES:
            k = self.scalar()
            x, z, cycles, wall = run_ladder(self.kernels[mode], k,
                                            self.check.base_x)
            self.first_s[mode] = wall
            self.record(mode, k, x, z, cycles)

    def record(self, mode: str, k: int, x: int, z: int,
                cycles: int) -> bool:
        self.attempted += 1
        good = self.check.ok(mode, k, x, z, cycles)
        if not good:
            self.failed += 1
        return good

    def measure(self, seconds: float,
                recorder: Optional[SpanRecorder] = None) -> Dict[str, Any]:
        """Whole rounds (one ladder per mode) until *seconds* would pass.

        Rows accumulate across calls; the summary covers this call's.
        """
        rows: List[Ladder] = []
        t0 = time.perf_counter()
        last_round = 0.0
        scale = host_scale()
        while not rows or time.perf_counter() - t0 + last_round <= seconds:
            round_t0 = time.perf_counter()
            for mode in MODE_NAMES:
                kernel = self.kernels[mode]
                k = self.scalar()
                if recorder is not None:
                    recorder.request = len(rows)
                    with recorder.span(f"kernels.ladder.{mode.lower()}.run"):
                        x, z, cycles, wall = run_ladder(kernel, k,
                                                        self.check.base_x)
                else:
                    x, z, cycles, wall = run_ladder(kernel, k,
                                                    self.check.base_x)
                good = self.record(mode, k, x, z, cycles)
                before, scale = scale, host_scale()
                rows.append(Ladder(mode, kernel.core.instructions_retired,
                                   wall, good, (before + scale) / 2))
            last_round = time.perf_counter() - round_t0
        if recorder is not None:
            recorder.request = None
        self.rows += rows
        return summarize(rows)


def summarize(rows: List[Ladder]) -> Dict[str, Any]:
    """Figures of the timed ladders, in reference-host time (``ref_s``).

    Throughput (``sim_mips``, ``ops_per_s``) is the pace of one round, a
    ladder per mode, each mode at its median; latency is the
    distribution of per-ladder times.  ``slo_ratio`` holds host time to
    the limit, since that is what a caller waits.
    """
    lat_ms = [1e3 * r.ref_s for r in rows]
    tail_ms, tail_pct, beyond = tail(lat_ms)
    round_s = sum(median(r.ref_s for r in rows if r.mode == m)
                  for m in MODE_NAMES)
    round_instr = sum(median(r.instr for r in rows if r.mode == m)
                      for m in MODE_NAMES)
    return {
        "sim_mips": round_instr / round_s / 1e6,
        "ops_per_s": len(MODE_NAMES) / round_s,
        "latency_p50_ms": median(lat_ms),
        "latency_tail_ms": tail_ms,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "slo_ratio": sum(1 for r in rows
                         if r.good and r.wall <= LADDER_LIMIT_MS / 1e3)
        / len(rows),
        "ladders": len(rows),
        "host_scale": median(r.scale for r in rows),
        "host_s_per_mode": {m: median(r.wall for r in rows if r.mode == m)
                            for m in MODE_NAMES},
    }


class DeviceCheck:
    """The ISS figures for workloads that run no ISS.

    One checked cold ladder per mode gives the cycle counts.  Each
    :meth:`steady` call times one more checked ISE ladder between two
    :func:`host_scale` readings; callers spread those calls over the run
    (while no load is in flight), and ``sim_mips`` is their median pace
    in reference-host time.
    """

    def __init__(self, seed: int):
        self.bench = IssLadder(seed)
        self.bench.setup()
        self.rows: List[Ladder] = []

    def steady(self) -> None:
        bench = self.bench
        kernel = bench.kernels["ISE"]
        k = bench.scalar()
        before = host_scale()
        x, z, cycles, wall = run_ladder(kernel, k, bench.check.base_x)
        scale = (before + host_scale()) / 2
        good = bench.record("ISE", k, x, z, cycles)
        self.rows.append(Ladder("ISE", kernel.core.instructions_retired,
                                wall, good, scale))

    def metrics(self) -> Dict[str, float]:
        out = {f"ladder_kcycles_{m.lower()}":
               self.bench.kernels[m].core.cycles / 1e3 for m in MODE_NAMES}
        out["sim_mips"] = median(r.instr / r.ref_s for r in self.rows) / 1e6
        return out


# -- the ISS layer account (traced runs) --------------------------------------


def _kernel_sources():
    from repro.kernels import (
        OpfConstants,
        generate_modadd,
        generate_modsub,
        generate_opf_mul_comba,
        generate_opf_mul_mac,
    )

    c = OpfConstants(u=65356, k=144)
    out = []
    for mode in MODE_NAMES:
        mul = generate_opf_mul_mac(c) if mode == "ISE" \
            else generate_opf_mul_comba(c)
        out += [("opf_add", mode, generate_modadd(c)),
                ("opf_sub", mode, generate_modsub(c)),
                ("opf_mul", mode, mul)]
    return c.p, out


def _kernel_ok(name: str, a: int, b: int, got: int, p: int) -> bool:
    if got >= _R160:
        return False
    want = {"opf_add": a + b, "opf_sub": a - b,
            "opf_mul": a * b * pow(_R160, -1, p)}[name]
    return got % p == want % p


def kernel_account(recorder: SpanRecorder, seed: int,
                   reps: int = 40) -> Tuple[Dict[str, float], int, int]:
    """Table I kernels per mode and engine through ``KernelRunner.run``.

    Gives the exact cycles of each kernel and host ns per simulated
    instruction per engine tier (the reference interpreter only on the
    multiplication kernels, where it is slow enough to matter).  The
    first run of each kernel compiles it and is left out of the rate.
    """
    from repro.avr.timing import Mode
    from repro.kernels import KernelRunner

    rng = random.Random(f"kernels:{seed}")
    p, sources = _kernel_sources()
    metrics: Dict[str, float] = {}
    attempted = failed = 0
    for engine in ("fast", "trace", "reference"):
        busy_ns = 0
        instr = 0
        for name, mode, source in sources:
            if engine == "reference" and name != "opf_mul":
                continue
            runner = KernelRunner(source, Mode[mode], engine=engine)
            span_name = f"kernels.{name}.{mode.lower()}.{engine}.run"
            n = reps if engine != "reference" else max(2, reps // 10)
            for i in range(n + 1):
                a, b = rng.randrange(p), rng.randrange(p)
                with recorder.span(span_name) as span:
                    got, cycles = runner.run(a, b)
                attempted += 1
                if not _kernel_ok(name, a, b, got, p):
                    failed += 1
                if i == 0:
                    metrics[f"kernels.{name}.{mode.lower()}.cycles"] = cycles
                else:
                    busy_ns += span.dur_ns
                    instr += runner.core.instructions_retired
        metrics[f"avr.{engine}.ns_per_instr"] = busy_ns / instr
    return metrics, attempted, failed


def ladder_account(recorder: SpanRecorder, seed: int,
                   bench: Optional[IssLadder] = None
                   ) -> Tuple[Dict[str, float], int, int]:
    """Per-mode ladder host time, compile warm cost and multiply share.

    *bench* supplies ladders already run cold and steady (the
    ``iss_ladder`` workload's own set-up and timed passes); otherwise a
    fresh set-up and one steady round run here.  ``mul_cycle_share`` is
    the share of simulated cycles spent inside the ``mul_sub`` routine,
    from the public ISS ``Profiler``.
    """
    metrics: Dict[str, float] = {}
    attempted = failed = 0
    if bench is None:
        bench = IssLadder(seed)
        bench.setup()
        bench.measure(0.0, recorder)
        attempted, failed = bench.attempted, bench.failed
    steady = {m: median(recorder.durations(
        f"kernels.ladder.{m.lower()}.run")) / 1e9 for m in MODE_NAMES}
    warm = 0.0
    for mode in MODE_NAMES:
        metrics[f"kernels.ladder.{mode.lower()}.host_s"] = steady[mode]
        warm += bench.first_s[mode] - steady[mode]
    metrics["avr.fast.warm_s"] = warm

    trace_kernels = ladder_kernels(engine="trace")
    trace_warm = 0.0
    for mode in MODE_NAMES:
        kernel = trace_kernels[mode]
        walls = []
        for _ in range(2):
            k = bench.scalar()
            with recorder.span(f"kernels.ladder.{mode.lower()}.trace.run"):
                x, z, cycles, wall = run_ladder(kernel, k,
                                                bench.check.base_x)
            walls.append(wall)
            attempted += 1
            failed += not bench.check.ok(mode, k, x, z, cycles)
        trace_warm += walls[0] - walls[1]
    metrics["avr.trace.warm_s"] = trace_warm

    profiled = ladder_kernels()
    for mode in MODE_NAMES:
        kernel = profiled[mode]
        profiler = kernel.attach_profiler()
        k = bench.scalar()
        with recorder.span(f"kernels.ladder.{mode.lower()}.profiled.run"):
            x, z, cycles, _ = run_ladder(kernel, k, bench.check.base_x)
        attempted += 1
        failed += not bench.check.ok(mode, k, x, z, cycles)
        mul_pc = kernel.program.symbols["mul_sub"]
        cum = profiler.routines()[mul_pc]["cum"]
        metrics[f"kernels.ladder.{mode.lower()}.mul_cycle_share"] = \
            cum / cycles
    return metrics, attempted, failed
