"""The benchmark's own tests: tiny-size smoke runs and failing checks.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import hostref  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.harness import prepare_cell, simulate_prepared  # noqa: E402
from repro.serve import BBoxQuery, SlabQuery  # noqa: E402

SPEC = run.load_spec()


def _bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class TestSpec:
    def test_contract_shape(self):
        assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert [w["name"] for w in SPEC["workloads"]] \
            == list(run.WORKLOAD_NAMES)
        for w in SPEC["workloads"]:
            assert set(w) == {"name", "why"}
            assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        assert len(names) == len(set(names))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
            assert m["better"] in ("higher", "lower")
        for m in SPEC["end_to_end"]:
            assert set(m) == {"name", "unit", "better", "bound"}
            assert 0 < m["bound"] <= 0.25
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_smoke_emits_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    entries = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in entries}
    for m in entries:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    for m in SPEC["end_to_end"]:  # printed by name with unit in both modes
        assert any(line.startswith(f"[{workload}] {m['name']} = ")
                   and line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith("env {") for line in lines)
    if trace:
        assert result["metrics"]["instrument.overhead"]["value"] != 0.0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = _bench("--workload", "serve-zipf", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


class TestChecksCatchCorruption:
    def test_corrupted_counter_fails_the_cell_check(self):
        reference = checks.load_reference("tiny")["cells"]
        cell = workloads.figure_cells(workloads.SIZES["tiny"], seed=9)[0]
        prepared = prepare_cell(cell)
        lines = sum(int(w.chunk.lines.size) for w in prepared.works)
        summary = checks.cell_summary(simulate_prepared(cell, prepared), lines)
        label = checks.cell_label(cell)
        assert checks.cell_problems(label, summary, reference) == []
        summary["counters"]["PAPI_L3_TCA"] += 1.0
        problems = checks.cell_problems(label, summary, reference)
        assert problems and "PAPI_L3_TCA" in problems[0]

    def test_corrupted_capacity_row_fails_the_rows_check(self):
        rows = checks.load_reference("tiny")["capacity"]["morton"]
        bad = [dict(r) for r in rows]
        bad[1]["L1_TCM"] += 1.0
        assert checks.rows_problems("morton", rows, rows) == []
        assert checks.rows_problems("morton", bad, rows)

    def test_corrupted_payload_fails_the_slice_check(self, tmp_path):
        size = workloads.SIZES["tiny"]
        dense, store, _ = workloads.build_store(
            str(tmp_path / "store"), (size.serve_shape,) * 3, seed=2)
        server = workloads.make_server(store, size)
        for q in (BBoxQuery((1, 2, 3), (20, 9, 30)), SlabQuery(1, 4, 6)):
            data = server.serve(q).data
            assert checks.payload_problems(q, data, dense) == []
            bad = data.copy()
            bad[0, 0, 0] += 1.0
            assert checks.payload_problems(q, bad, dense)
        assert workloads.cache_problems(server) == []

    def test_corrupted_digest_fails_the_golden_check(self):
        golden = checks.load_reference("tiny")["serve_golden"]
        assert checks.digest_problems(golden, golden) == []
        bad = list(golden)
        bad[3] = checks.digest(np.zeros(4, dtype=np.float32))
        assert checks.digest_problems(bad, golden)

    def test_corrupted_cache_counter_fails_the_crosscheck(self, tmp_path):
        size = workloads.SIZES["tiny"]
        _, store, _ = workloads.build_store(
            str(tmp_path / "store"), (size.serve_shape,) * 3, seed=2)
        server = workloads.make_server(store, size)
        server.serve(BBoxQuery((0, 0, 0), (32, 32, 32)))
        server.cache.hits += 1
        assert workloads.cache_problems(server)


class TestCompareVerdicts:
    def test_clear_gain_is_better(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        change = [v * 0.8 for v in parent]
        assert compare.verdict(parent, change, "lower", 0.1)[0] == "better"

    def test_small_loss_is_within_bound(self):
        parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        change = [v * 1.05 for v in parent]
        assert compare.verdict(parent, change, "lower", 0.1)[0] \
            == "within bound"

    def test_large_loss_is_worse(self):
        parent = [100.0, 102.0, 99.0, 101.0, 100.0]
        change = [70.0, 71.0, 69.0, 70.5, 70.0]
        assert compare.verdict(parent, change, "higher", 0.1)[0] == "WORSE"

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [5.0, 10.0, 15.0, 7.0, 13.0, 6.0, 14.0, 9.0]
        change = [6.0, 9.0, 14.0, 8.0, 12.0, 7.0, 13.0, 10.0]
        assert compare.verdict(parent, change, "lower", 0.1)[0] \
            == "unresolved"

    def test_clear_loss_beyond_a_wide_spread_is_worse(self):
        parent = [5.0, 10.0, 15.0, 7.0, 13.0, 6.0, 14.0, 9.0]
        change = [v + 20.0 for v in parent]
        assert compare.verdict(parent, change, "lower", 0.1)[0] == "WORSE"

    def test_exact_counts_compare_as_same_or_changed(self):
        assert compare.verdict([7.0] * 4, [7.0] * 4, "lower", None)[0] \
            == "same"
        assert compare.verdict([7.0] * 4, [5.0] * 4, "lower", None)[0] \
            == "changed"

    def test_compare_mode_reads_recorded_runs(self, tmp_path, capsys):
        def record(value, trace):
            e2e = {m["name"]: {"value": value, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
            layers = {m["name"]: {"value": 3.0, "unit": m["unit"]}
                      for m in SPEC["per_layer"]}
            return {"workload": "serve-zipf", "trace": trace, "correct": True,
                    "env": {"host": "h"}, "end_to_end": e2e,
                    "metrics": layers if trace else e2e}

        for name, value in (("p.jsonl", 1.0), ("c.jsonl", 1.01)):
            with open(tmp_path / name, "w") as fh:
                for i in range(4):
                    fh.write(json.dumps(record(value + i * 1e-3, i == 0))
                             + "\n")
        status = compare.main(str(tmp_path / "p.jsonl"),
                              str(tmp_path / "c.jsonl"), SPEC)
        out = capsys.readouterr().out
        assert status == 0
        assert "results_per_ref" in out and "cache.gets" in out

    def test_traced_runs_do_not_enter_end_to_end_verdicts(self, tmp_path,
                                                          capsys):
        """A traced run measures end to end on part of its time only."""
        def record(value, trace):
            e2e = {m["name"]: {"value": value, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
            return {"workload": "figure-cells", "trace": trace,
                    "correct": True, "env": {"host": "h"}, "end_to_end": e2e,
                    "metrics": {} if trace else e2e}

        for name, traced_value in (("p.jsonl", 1.0), ("c.jsonl", 50.0)):
            with open(tmp_path / name, "w") as fh:
                for i in range(6):
                    fh.write(json.dumps(record(1.0 + i * 1e-3, 0)) + "\n")
                    fh.write(json.dumps(record(traced_value, 1)) + "\n")
        status = compare.main(str(tmp_path / "p.jsonl"),
                              str(tmp_path / "c.jsonl"), SPEC)
        assert status == 0
        assert "WORSE" not in capsys.readouterr().out


class TestHostRef:
    def test_factor_is_the_mean_sample_within_the_span(self):
        ref = hostref.HostRef(hostref.lru_walk)
        ref.stamps, ref.samples = [1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.4, 0.8]
        assert ref.factor(1.5, 3.5) == pytest.approx(0.3)
        # a span between two samples reads the samples on either side
        assert ref.factor(2.2, 2.8) == pytest.approx(0.3)
        assert ref.factor(0.0, 0.5) == pytest.approx(0.1)

    def test_sampling_runs_on_a_timer_and_its_clock_leaves_it_out(self):
        ref = hostref.HostRef(hostref.walk_and_sort)
        with ref:
            t0, n0 = ref.now(), time.perf_counter()
            while time.perf_counter() - n0 < 0.3:
                pass
            elapsed = ref.now() - t0
            with ref.paused():
                taken = len(ref.samples)
                time.sleep(0.05)
                assert len(ref.samples) == taken
        assert len(ref.samples) >= 5
        assert elapsed == pytest.approx(0.3 - sum(ref.samples), abs=0.02)
        assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestMeasurementHelpers:
    def test_median_times_read_each_item_in_ref_units_or_seconds(self):
        ref = hostref.HostRef(hostref.lru_walk)
        ref.stamps, ref.samples = [0.5, 1.5, 2.5], [0.5, 1.0, 2.0]
        item = workloads.Item
        passes = [[item("a", False, 2.0, (), (0, 1)),
                   item("a", True, 9.0, (), (1, 2)),
                   item("b", False, 5.0, (), (2, 3))],
                  [item("a", False, 3.0, (), (1, 2)),
                   item("b", False, 4.0, (), (2, 3))],
                  [item("a", False, 6.0, (), (2, 3)),
                   item("b", False, 6.0, (), (2, 3))]]
        assert workloads.median_times(passes, None) == {"a": 3.0, "b": 5.0}
        assert workloads.median_times(passes, ref) == {"a": 3.0, "b": 2.5}

    def test_overhead_pairs_the_same_work(self):
        item = workloads.Item
        passes = [[item("a", False, 1.0, ()), item("a", True, 1.1, ()),
                   item("b", True, 2.4, ()), item("b", False, 2.0, ())]]
        pairs = workloads.item_pairs(passes)
        assert sorted(pairs) == [(1.0, 1.1), (2.0, 2.4)]
        assert workloads.tracing_overhead(pairs) == pytest.approx(0.15)

    def test_pairs_alternate_their_order(self):
        assert workloads.paired_order(0, False) == (False,)
        assert workloads.paired_order(0, True) == (False, True)
        assert workloads.paired_order(1, True) == (True, False)

