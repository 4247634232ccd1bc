"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The smoke runs start the real program (ISS ladders, a served cluster of
one server and two pool workers), so this file takes about two minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from measure import (  # noqa: E402
    Span, SpanRecorder, covered, host_scale, reference_loop, tail)
from run import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


class TestNames:
    def test_workload_and_metric_names(self):
        s = spec()
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        for name in names:
            assert NAME.fullmatch(name), name
        assert len(names) == len(set(names))

    def test_units_directions_bounds(self):
        s = spec()
        for m in s["end_to_end"] + s["per_layer"]:
            assert UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
        bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        assert bounds["setup_s"] == max(bounds.values())

    def test_workloads(self):
        assert [w["name"] for w in spec()["workloads"]] == [
            "iss_ladder", "direct_fixedbase"]
        assert set(WORKLOADS) == {"iss_ladder", "direct_fixedbase",
                                  "serve_fixedbase", "serve_varbase_keys"}


class TestSelfTime:
    def tree(self):
        # root [0, 100) with children [10, 30) and [20, 50) (overlapping)
        # and [90, 120) (ending after the root); grandchild [12, 18).
        rec = SpanRecorder()
        spans = [("root", 0, 100, None), ("a", 10, 30, 0),
                 ("b", 20, 50, 0), ("c", 90, 120, 0), ("a1", 12, 18, 1)]
        for sid, (name, t0, t1, parent) in enumerate(spans):
            span = Span(sid, name, t0, parent, None)
            span.t1 = t1
            rec.spans.append(span)
        return rec

    def test_self_times(self):
        own = self.tree().self_times()
        # root: 100 - |[10, 50) u [90, 100)| = 100 - 50
        assert own == {0: 50, 1: 14, 2: 30, 3: 30, 4: 6}

    def test_covered_clips_to_parent(self):
        parent = Span(0, "p", 0, None, None)
        parent.t1 = 10
        child = Span(1, "c", 5, 0, None)
        child.t1 = 25
        assert covered(parent, [child]) == 5

    def test_nesting_by_stack(self):
        rec = SpanRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        assert [s.parent for s in rec.spans] == [None, 0]
        own = rec.self_times()
        assert own[0] + own[1] == rec.spans[0].dur_ns

    def test_chrome_export_validates(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from repro.obs.export import validate_chrome

        validate_chrome(self.tree().to_chrome())


class TestTail:
    def test_ten_beyond(self):
        values = list(range(1, 101))
        assert tail(values) == (90, 90.0, 10)

    def test_host_scale(self):
        assert reference_loop(1000) == reference_loop(1000)
        assert 0 < host_scale(reps=1) < 100

    def test_small_sample_stays_at_p75(self):
        assert tail(list(range(1, 13))) == (9, 75.0, 3)
        assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    out = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    e2e = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == e2e
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["ladder_kcycles_ca"]["value"] == 6322.168
    assert result["metrics"]["ladder_kcycles_fast"]["value"] == 5102.425
    assert result["metrics"]["ladder_kcycles_ise"]["value"] == 1308.025


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "iss_ladder", "--seed", "1", "--seconds",
                    "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
