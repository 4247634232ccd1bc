"""The repository's benchmark: ISS ladders and the served ECC stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload iss_ladder --seed 1 --seconds 40 \\
        --trace 0

Workloads: ``iss_ladder`` and ``direct_fixedbase`` (the two in
``BENCHMARK.json``), and the served ``serve_fixedbase`` and
``serve_varbase_keys``, which run the same way but are not gated (see
README.md beside this file).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is a separate run that records spans
and prints the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it (each starting with ``#``) are the human report.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before any import
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("iss_ladder", "direct_fixedbase", "serve_fixedbase",
             "serve_varbase_keys")

#: Requests replayed in process through the serving layers (traced runs).
REPLAY = 40
#: Measuring time of the short served pass that gives the in-process
#: workloads' traced runs their serving-layer numbers.
SERVE_PROBE_S = 3.0
#: Set-ups per run of an in-process workload (one here, the rest in fresh
#: processes, since compiled blocks and comb tables are cached
#: process-wide).
PROCESS_SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def report(line: str = "") -> None:
    print(f"# {line}" if line else "#", flush=True)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# -- in-process workloads: set-up probes, iss_ladder --------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Set-up in a fresh process, the way the first run pays for it."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    if probe["failed"]:
        raise RuntimeError(f"{workload} set-up probe gave a wrong result")
    return probe["setup_s"]


def in_process(workload: str):
    """The set-up-and-measure class of an in-process workload."""
    from direct import DirectFixedbase
    from iss import IssLadder

    return {"iss_ladder": IssLadder,
            "direct_fixedbase": DirectFixedbase}[workload]


def timed_with_setups(args, bench, setup_s: float, **measure_args) -> float:
    """Measure in :data:`PROCESS_SETUPS` parts with a fresh-process set-up
    between parts, so that both sample the whole run; ``setup_s`` is the
    median set-up, this process's (*setup_s*) included."""
    from measure import median

    setups = [setup_s]
    for i in range(PROCESS_SETUPS):
        bench.measure(args.seconds / PROCESS_SETUPS, **measure_args)
        if i < PROCESS_SETUPS - 1:
            setups.append(setup_probe(args.workload, args.seed))
    report("set-up s: " + ", ".join(f"{s:.3f}" for s in setups))
    return median(setups)


def iss_metrics(bench, measured, setup_s):
    from iss import MODE_NAMES
    from measure import own_peak_rss_mb

    m = {"setup_s": setup_s,
         "peak_rss_mb": own_peak_rss_mb(),
         "ok_ratio": (bench.attempted - bench.failed) / bench.attempted}
    for key in ("sim_mips", "ops_per_s", "latency_p50_ms", "latency_tail_ms",
                "slo_ratio"):
        m[key] = measured[key]
    for mode in MODE_NAMES:
        m[f"ladder_kcycles_{mode.lower()}"] = \
            bench.kernels[mode].core.cycles / 1e3
    report(f"ladders: {measured['ladders']}; tail = p"
           f"{measured['tail_percentile']:.1f} with "
           f"{measured['tail_beyond']} beyond; host scale "
           f"{measured['host_scale']:.3f}; host s per mode "
           + ", ".join(f"{k}={v:.3f}" for k, v in
                       measured["host_s_per_mode"].items()))
    return m


def run_iss(args):
    from iss import IssLadder, summarize

    bench = IssLadder(args.seed)
    bench.setup()
    setup_s = timed_with_setups(args, bench, time.perf_counter() - T_START)
    metrics = iss_metrics(bench, summarize(bench.rows), setup_s)
    return metrics, bench.attempted, bench.failed


# -- direct_fixedbase ---------------------------------------------------------


def run_direct(args):
    from direct import DirectFixedbase, summarize
    from iss import DeviceCheck
    from measure import own_peak_rss_mb

    bench = DirectFixedbase(args.seed)
    bench.setup()
    setup_s = time.perf_counter() - T_START
    device = DeviceCheck(args.seed)
    device.steady()
    setup_s = timed_with_setups(args, bench, setup_s, idle=device.steady)
    measured = summarize(bench.rows, bench.chunks)
    report(f"requests: {measured['requests']}; tail = median over "
           f"{measured['tail_groups']} groups of "
           f"p{measured['tail_percentile']:.1f} with "
           f"{measured['tail_beyond']} beyond; host scale "
           f"{measured['host_scale']:.3f}")
    attempted = bench.attempted + device.bench.attempted
    failed = bench.failed + device.bench.failed
    m = {"setup_s": setup_s,
         "peak_rss_mb": own_peak_rss_mb(),
         "ok_ratio": (attempted - failed) / attempted}
    for key in ("ops_per_s", "latency_p50_ms", "latency_tail_ms",
                "slo_ratio"):
        m[key] = measured[key]
    m.update(device.metrics())
    return m, attempted, failed


# -- served workloads ---------------------------------------------------------


def served_metrics(work, served, dev_metrics):
    from serve_load import WINDOW_S, pass_metrics
    from measure import median

    m = pass_metrics(work, served.passes[0])
    report(f"open loop: {m['open_requests']} requests at {work.rate}/s, "
           f"tail = median over {m['tail_groups']} groups of "
           f"p{m['tail_percentile']:.1f} with {m['tail_beyond']} beyond; "
           f"generator late p50 {m['generator_late_ms_p50']:.3f} "
           f"ms, max {m['generator_late_ms_max']:.3f} ms")
    report(f"closed loop: {m['closed_requests']} requests, "
           f"{m['ops_per_s_windows']} windows of {WINDOW_S:g} s; host scale "
           f"{m['host_scale']:.3f}")
    report("set-up s: " + ", ".join(f"{s:.3f}" for s in served.setup_s))
    out = {"setup_s": median(served.setup_s),
           "peak_rss_mb": served.peak_rss_mb}
    for key in ("ops_per_s", "latency_p50_ms", "latency_tail_ms",
                "slo_ratio"):
        out[key] = m[key]
    out.update(dev_metrics)
    return out


def all_recs(served):
    recs = list(served.warm)
    for measured in served.passes:
        recs += measured.recs
    return recs


def run_served_workload(args):
    from iss import DeviceCheck
    from serve_load import SETUPS, WORKLOADS as SERVED, run_served

    device = DeviceCheck(args.seed)
    device.steady()
    work = SERVED[args.workload](args.seed)
    served = run_served(ROOT, work, args.seconds, SETUPS, [None],
                        idle=device.steady)
    recs = all_recs(served)
    work.verify(recs)
    attempted = device.bench.attempted + len(recs) + 1
    failed = device.bench.failed + sum(not r.correct for r in recs) \
        + (not served.setup_ok)
    metrics = served_metrics(work, served, device.metrics())
    metrics["ok_ratio"] = (attempted - failed) / attempted
    return metrics, attempted, failed


# -- traced runs --------------------------------------------------------------


class Tally:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0

    def add(self, result):
        metrics, attempted, failed = result
        self.metrics.update(metrics)
        self.attempted += attempted
        self.failed += failed


def host_accounts(tally, recorder, seed):
    import layers

    tally.metrics.update(layers.field_account(seed))
    tally.metrics.update(layers.curve_account(seed))
    tally.add(layers.scalarmult_account(recorder, seed))
    tally.add(layers.protocol_account(recorder, seed))
    tally.add(layers.keys_account(recorder, ROOT, seed))


def serve_accounts(tally, recorder, work, served, seed):
    """Server stats of the traced pass, then its open-loop requests
    replayed."""
    import layers
    from measure import median

    traced = served.passes[-1]
    tally.metrics.update(layers.server_account(traced))
    pool = [r for p in traced.open for r in p.recs
            if r.correct and r.check[0] != "rotate"]
    sample = random.Random(f"replay:{seed}").sample(
        pool, min(REPLAY, len(pool)))
    requests = []
    for r in sample:
        req = dict(r.req)
        if r.gen is not None:
            req["params"] = dict(req["params"], key_generation=r.gen)
        requests.append(req)
    tally.add(layers.replay(recorder, requests, [r.reply for r in sample]))
    # Per request: open-loop latency (from its due time) minus its own
    # in-process execution time.
    executed = recorder.durations("serve.worker.execute")[-len(sample):]
    tally.metrics["serve.overhead_ms"] = median(
        1e3 * (r.replied - r.due) - ns / 1e6
        for r, ns in zip(sample, executed))


def overhead_lines(untraced, traced):
    for key in ("sim_mips", "ops_per_s", "latency_p50_ms", "latency_tail_ms",
                "slo_ratio"):
        if key in untraced:
            report(f"tracing overhead {key}: traced {traced[key]:.4f} - "
                   f"untraced {untraced[key]:.4f} = "
                   f"{traced[key] - untraced[key]:+.4f}")


def run_traced(args):
    import iss
    from measure import SpanRecorder, dump_json
    from serve_load import WORKLOADS as SERVED, pass_metrics, run_served

    recorder = SpanRecorder()
    tally = Tally()
    if args.workload == "iss_ladder":
        bench = iss.IssLadder(args.seed)
        bench.setup()
        untraced = bench.measure(args.seconds / 2)
        traced = bench.measure(args.seconds / 2, recorder)
        tally.add(iss.ladder_account(recorder, args.seed, bench))
        ladder_field = bench.check.suite.field.counter
        checked = bench.check.checked
        tally.attempted += bench.attempted
        tally.failed += bench.failed
        work = SERVED["serve_fixedbase"](args.seed)
        served = run_served(ROOT, work, SERVE_PROBE_S, 1, [recorder])
    elif args.workload == "direct_fixedbase":
        from direct import DirectFixedbase

        tally.add(iss.ladder_account(recorder, args.seed))
        bench = DirectFixedbase(args.seed)
        bench.setup()
        untraced = bench.measure(args.seconds / 2)
        traced = bench.measure(args.seconds / 2, recorder)
        tally.attempted += bench.attempted
        tally.failed += bench.failed
        work = SERVED["serve_fixedbase"](args.seed)
        served = run_served(ROOT, work, SERVE_PROBE_S, 1, [recorder])
    else:
        tally.add(iss.ladder_account(recorder, args.seed))
        work = SERVED[args.workload](args.seed)
        served = run_served(ROOT, work, args.seconds, 1, [None, recorder])
    tally.add(iss.kernel_account(recorder, args.seed))
    host_accounts(tally, recorder, args.seed)
    recs = all_recs(served)
    work.verify(recs)
    tally.attempted += len(recs) + 1
    tally.failed += sum(not r.correct for r in recs) + (not served.setup_ok)
    serve_accounts(tally, recorder, work, served, args.seed)
    if args.workload == "iss_ladder":
        # The host work of this workload is the reference ladder check.
        tally.metrics.update({
            "field.mul_per_op": ladder_field.mul / checked,
            "field.sqr_per_op": ladder_field.sqr / checked,
            "field.inv_per_op": ladder_field.inv / checked,
            "mpa.word_mul_per_op": ladder_field.words.mul / checked,
        })
    elif args.workload.startswith("serve_"):
        untraced = pass_metrics(work, served.passes[0])
        traced = pass_metrics(work, served.passes[1])
    overhead_lines(untraced, traced)

    from repro.obs.export import validate_chrome
    import layers

    chrome = recorder.to_chrome()
    validate_chrome(chrome)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    dump_json(path, chrome)
    report(f"chrome trace: {len(recorder.spans)} spans -> "
           f"{os.path.relpath(path, ROOT)} (validated)")
    report("self time per span:")
    for line in layers.self_time_table(recorder):
        report("  " + line)
    return tally.metrics, tally.attempted, tally.failed


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.setup_probe:
        bench = in_process(args.workload)(args.seed)
        bench.setup()
        print(json.dumps({"setup_s": time.perf_counter() - T_START,
                          "failed": bench.failed}))
        return 0

    e2e_units, layer_units = declared()
    if args.trace:
        metrics, attempted, failed = run_traced(args)
        units = layer_units
    else:
        runner = {"iss_ladder": run_iss, "direct_fixedbase": run_direct}
        metrics, attempted, failed = runner.get(
            args.workload, run_served_workload)(args)
        units = e2e_units
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    from measure import dump_json, fingerprint

    host = fingerprint(ROOT, args.seed)
    report("host: " + json.dumps(host, sort_keys=True))
    report(f"workload {args.workload}, seed {args.seed}, "
           f"{args.seconds:g} s, trace {args.trace}")
    for name, unit in units.items():
        report(f"{name:<40} {metrics[name]:>16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    dump_json(os.path.join(
        OUT_DIR, f"result-{args.workload}-{args.seed}-{args.trace}.json"),
        dict(result, host=host, workload=args.workload,
             seconds=args.seconds, trace=args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
