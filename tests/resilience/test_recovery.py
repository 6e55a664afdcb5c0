"""End-to-end recovery: crash mid-batch, resume, SIGTERM, hang reaping.

These are the acceptance scenarios from the resilience work: a batch
whose parent dies mid-run (simulated two ways — an in-process fault and
a genuinely killed subprocess) resumes from the checkpoint journal,
re-executes *only* the missing cells, and produces results identical to
an uninterrupted serial run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace

import pytest

from repro.experiments import (
    BilateralCell,
    CellRunError,
    default_ivybridge,
    run_cells_parallel,
)
from repro.instrument import trace
from repro.instrument.manifest import build_manifest
from repro.resilience import RetryPolicy
from repro.resilience.faults import clear_faults, install_faults

SHAPE = (16, 16, 16)
REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    clear_faults()
    yield
    clear_faults()


@pytest.fixture(scope="module")
def cells():
    base = BilateralCell(platform=default_ivybridge(64), shape=SHAPE,
                         n_threads=2, stencil="r1", pencils_per_thread=1)
    return [base, base.with_layout("morton"),
            replace(base, n_threads=4),
            replace(base, n_threads=4, layout="morton")]


@pytest.fixture(scope="module")
def clean_results(cells):
    """The ground truth: an uninterrupted serial run, no resilience."""
    return run_cells_parallel(cells, workers=1)


def journal_entries(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestCrashMidBatchResume:
    """Satellite (d): fault-inject a failure at cell k, resume, compare."""

    def test_resume_reruns_only_missing_cells(self, cells, clean_results,
                                              tmp_path):
        journal = tmp_path / "journal.jsonl"
        install_faults("raise@2:always")
        with pytest.raises(CellRunError) as excinfo:
            run_cells_parallel(cells, workers=1, checkpoint=str(journal))
        assert [f.index for f in excinfo.value.failures] == [2]
        # cells 0, 1, 3 completed and were journaled before the batch died
        assert len(journal_entries(journal)) == 3

        clear_faults()
        resumed = run_cells_parallel(cells, workers=1,
                                     checkpoint=str(journal), resume=True)
        assert resumed == clean_results
        # exactly one new journal line: only cell 2 re-ran
        assert len(journal_entries(journal)) == 4

    def test_resume_results_identical_to_uninterrupted(self, cells,
                                                       clean_results,
                                                       tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_cells_parallel(cells[:2], workers=1, checkpoint=str(journal))
        resumed = run_cells_parallel(cells, workers=1,
                                     checkpoint=str(journal), resume=True)
        assert resumed == clean_results

    def test_resume_is_order_independent(self, cells, clean_results,
                                         tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_cells_parallel(cells[:2], workers=1, checkpoint=str(journal))
        resumed = run_cells_parallel(list(reversed(cells)), workers=1,
                                     checkpoint=str(journal), resume=True)
        assert resumed == list(reversed(clean_results))

    def test_fresh_run_truncates_stale_journal(self, cells, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_cells_parallel(cells[:3], workers=1, checkpoint=str(journal))
        assert len(journal_entries(journal)) == 3
        run_cells_parallel(cells[:1], workers=1, checkpoint=str(journal))
        assert len(journal_entries(journal)) == 1

    def test_fully_restored_batch_runs_nothing(self, cells, clean_results,
                                               tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_cells_parallel(cells, workers=1, checkpoint=str(journal))
        before = journal_entries(journal)
        restored = run_cells_parallel(cells, workers=1,
                                      checkpoint=str(journal), resume=True)
        assert restored == clean_results
        assert journal_entries(journal) == before  # nothing re-ran

    def test_worker_crash_then_resume_parallel_path(self, cells,
                                                    clean_results, tmp_path):
        journal = tmp_path / "journal.jsonl"
        install_faults("crash@1:always")
        with pytest.raises(CellRunError) as excinfo:
            run_cells_parallel(cells, workers=2, checkpoint=str(journal))
        (failure,) = excinfo.value.failures
        assert failure.index == 1
        assert failure.error_class == "worker-death"

        clear_faults()
        resumed = run_cells_parallel(cells, workers=2,
                                     checkpoint=str(journal), resume=True)
        assert resumed == clean_results


class TestParentKilled:
    """The real thing: the parent process dies abruptly mid-batch."""

    CHILD = textwrap.dedent("""\
        import sys
        from dataclasses import replace
        from repro.experiments import (
            BilateralCell, default_ivybridge, run_cells_parallel)
        base = BilateralCell(platform=default_ivybridge(64),
                             shape=(16, 16, 16), n_threads=2, stencil="r1",
                             pencils_per_thread=1)
        cells = [base, base.with_layout("morton"),
                 replace(base, n_threads=4),
                 replace(base, n_threads=4, layout="morton")]
        results = run_cells_parallel(cells, workers=1,
                                     checkpoint=sys.argv[1],
                                     resume="--resume" in sys.argv)
        print(f"completed {sum(r is not None for r in results)}")
    """)

    def _spawn(self, journal, *extra, faults=None):
        env = {**os.environ, "PYTHONPATH": REPO_SRC}
        env.pop("REPRO_FAULTS", None)
        if faults:
            env["REPRO_FAULTS"] = faults
        return subprocess.run(
            [sys.executable, "-c", self.CHILD, str(journal), *extra],
            env=env, capture_output=True, text=True, timeout=300)

    def test_killed_parent_then_resume_matches_clean_run(self, cells,
                                                         clean_results,
                                                         tmp_path):
        journal = tmp_path / "journal.jsonl"
        # the crash fault on the serial path IS the parent dying: os._exit
        # mid-batch — no exception handling, no journal close, no flush
        # beyond what record() already forced to disk
        dead = self._spawn(journal, faults="crash@2:always")
        assert dead.returncode == 3, dead.stderr
        assert len(journal_entries(journal)) == 2  # cells 0, 1 survived

        alive = self._spawn(journal, "--resume")
        assert alive.returncode == 0, alive.stderr
        assert "completed 4" in alive.stdout
        assert len(journal_entries(journal)) == 4

        # and the journal now reproduces the uninterrupted run exactly
        restored = run_cells_parallel(cells, workers=1,
                                      checkpoint=str(journal), resume=True)
        assert restored == clean_results

    def test_sigterm_shuts_down_gracefully(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        env = {**os.environ, "PYTHONPATH": REPO_SRC}
        env.pop("REPRO_FAULTS", None)
        # cell 3 hangs forever, so the batch is guaranteed to be mid-run
        # (journal has 3 entries) when SIGTERM arrives
        env["REPRO_FAULTS"] = "hang@3:always:seconds=600"
        proc = subprocess.Popen(
            [sys.executable, "-c", self.CHILD, str(journal)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            deadline = time.monotonic() + 240
            while time.monotonic() < deadline:
                if journal.exists() and len(journal_entries(journal)) >= 3:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("journal never reached 3 entries")
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)  # graceful exit, nowhere near the hang
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode != 0  # interrupted, not "success"
        # everything completed before the signal is still on disk
        assert len(journal_entries(journal)) == 3


class TestHangReapedByTimeout:
    #: about 10x the slowest clean cell plus a worker start: the whole
    #: four-cell batch takes ~0.08 s on two forked workers, and a
    #: spawned worker's imports add ~0.35 s
    TIMEOUT = 4

    def test_hung_cell_reaped_retried_and_counted(self, cells, clean_results):
        install_faults("hang@1:seconds=600")  # once: the retry completes
        trace.disable()
        tracer = trace.enable()
        try:
            start = time.monotonic()
            results = run_cells_parallel(
                cells, workers=2, timeout=self.TIMEOUT,
                retry=RetryPolicy(max_retries=1, backoff_base=0.01))
            elapsed = time.monotonic() - start
        finally:
            trace.disable()
        assert results == clean_results
        # reaped at ~TIMEOUT s, nowhere near the 600s hang
        assert elapsed < 300
        assert tracer.counters["resilience.timeouts"] >= 1
        assert tracer.counters["resilience.retries"] >= 1

    def test_resilience_counts_reach_the_manifest(self, cells):
        install_faults("raise@0")  # transient: retry succeeds
        trace.disable()
        tracer = trace.enable()
        try:
            run_cells_parallel(cells[:2], workers=1,
                               retry=RetryPolicy(max_retries=1,
                                                 backoff_base=0.01))
        finally:
            trace.disable()
        manifest = build_manifest(tracer)
        assert manifest["resilience"]["retries"] == 1
        assert manifest["resilience"]["attempts"] == 3
        assert manifest["resilience"]["cells"] == 2

    def test_plain_run_adds_no_resilience_section(self, cells):
        trace.disable()
        tracer = trace.enable()
        try:
            run_cells_parallel(cells[:2], workers=1)
        finally:
            trace.disable()
        assert "resilience" not in build_manifest(tracer)


class TestCorruptJournalResume:
    """Satellite (c): resume must survive a rotten *non-tail* record."""

    def _corrupt_line(self, journal, lineno):
        lines = journal.read_text().splitlines()
        lines[lineno] = lines[lineno].replace(
            '"attempts": 1', '"attempts": 9', 1)
        journal.write_text("\n".join(lines) + "\n")

    def test_multiworker_resume_quarantines_and_reruns(self, cells,
                                                       clean_results,
                                                       tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_cells_parallel(cells, workers=1, checkpoint=str(journal))
        self._corrupt_line(journal, 1)  # cell 1's record, mid-journal

        trace.disable()
        tracer = trace.enable()
        try:
            resumed = run_cells_parallel(cells, workers=2,
                                         checkpoint=str(journal),
                                         resume=True)
        finally:
            trace.disable()
        assert resumed == clean_results
        # the rotten record was described, never decoded
        (entry,) = journal_entries(str(journal) + ".quarantine.jsonl")
        assert "checksum" in entry["problem"]
        # exactly one cell re-ran and re-journaled
        assert len(journal_entries(journal)) == 5
        stats = build_manifest(tracer)["resilience"]
        assert stats["restored"] == 3
        assert stats["journal_corrupt"] == 1
        assert stats["failures"] == 0

    def test_cross_version_resume_through_migrate_journal(self, cells,
                                                          clean_results,
                                                          tmp_path):
        from repro.instrument.manifest import config_hash
        from repro.resilience import CheckpointStore, migrate_journal
        from repro.resilience.checkpoint import encode_result

        journal = tmp_path / "journal.jsonl"
        # a journal as the v1 (pre-checksum) code left it, mid-batch
        results = run_cells_parallel(cells[:3], workers=1)
        with open(journal, "w") as fh:
            for cell, result in zip(cells[:3], results):
                fh.write(json.dumps({
                    "schema_version": 1, "key": config_hash(cell),
                    "kind": "BilateralCell", "attempts": 1,
                    "result": encode_result(result)}) + "\n")

        assert migrate_journal(str(journal)) == 3
        store = CheckpointStore(str(journal))
        store.load()
        assert store.load_stats["migrated"] == 0  # fully on v2 now

        resumed = run_cells_parallel(cells, workers=2,
                                     checkpoint=str(journal), resume=True)
        assert resumed == clean_results
        assert len(journal_entries(journal)) == 4  # only cell 3 re-ran


class TestGovernedRun:
    def test_admission_counters_reach_the_manifest(self, cells,
                                                   clean_results):
        trace.disable()
        tracer = trace.enable()
        try:
            results = run_cells_parallel(cells, workers=2, govern=True)
        finally:
            trace.disable()
        assert results == clean_results
        stats = build_manifest(tracer)["resilience"]
        assert stats["gov_requested_workers"] == 2
        assert 1 <= stats["gov_admitted_workers"] <= 2
        assert stats["gov_est_cell_mb"] > 0

    def test_custom_governor_clamps_and_results_hold(self, cells,
                                                     clean_results):
        from repro.resilience import Governor
        # a budget that fits one estimated cell: admission must clamp
        # the batch to serial, and the results must not change
        governor = Governor(memory_fraction=1.0)
        est = governor.estimate_cell_bytes(cells[0])
        admission = governor.preflight(cells, 2, available_bytes=est,
                                       disk_bytes=64 << 30)
        assert admission.admitted_workers == 1
        results = run_cells_parallel(cells, workers=2, govern=governor)
        assert results == clean_results
