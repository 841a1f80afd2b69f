"""Tests for the parallel sweep executor (``repro.experiments.parallel``).

The contract under test: ``--jobs N`` sweeps are **bit-identical** to
serial ones (scores, upper bounds, completed-task counts), failing or
hanging cells become structured failure records while the rest of the
sweep completes, and the executor's telemetry/population-cache behave.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.experiments.config import APPROACHES, ExperimentSettings
from repro.experiments.figures import fig2_capacity, fig7_workers
from repro.experiments.parallel import (
    CellSpec,
    SweepExecutor,
    build_cell_specs,
    cached_population,
    population_cache_key,
)

QUICK = ExperimentSettings(
    rounds=2,
    workers_per_round=40,
    tasks_per_round=10,
    speed_range=(0.05, 0.2),
    radius_range=(0.2, 0.4),
    dataset="unif",
)


def fingerprint(result):
    """Exact (repr-level) scores/uppers/counts of a sweep, for parity."""
    return [
        (
            point.value,
            repr(point.upper),
            {
                name: (
                    repr(outcome.total_score),
                    outcome.completed_tasks,
                    outcome.assigned_workers,
                )
                for name, outcome in point.outcomes.items()
            },
        )
        for point in result.points
    ]


class TestParity:
    def test_fig7_jobs4_bit_identical_to_serial(self):
        kwargs = dict(
            base=QUICK,
            values=(30, 40),
            approaches=("RAND", "TPG", "GT"),
            seed=3,
        )
        serial = fig7_workers(**kwargs, n_jobs=1)
        parallel = fig7_workers(**kwargs, n_jobs=4)
        assert not parallel.failures
        assert fingerprint(parallel) == fingerprint(serial)
        # dict iteration order must match the approach lineup, not the
        # (nondeterministic) cell completion order.
        for point in parallel.points:
            assert list(point.outcomes) == ["RAND", "TPG", "GT"]

    def test_fig2_meetup_jobs2_bit_identical_to_serial(self):
        base = ExperimentSettings(
            rounds=2,
            workers_per_round=40,
            tasks_per_round=10,
            speed_range=(0.05, 0.2),
            radius_range=(0.2, 0.4),
            dataset="meetup",
        )
        kwargs = dict(base=base, values=(3, 4), approaches=("RAND",), seed=0)
        serial = fig2_capacity(**kwargs, n_jobs=1)
        parallel = fig2_capacity(**kwargs, n_jobs=2)
        assert not parallel.failures
        assert fingerprint(parallel) == fingerprint(serial)


class TestFailureInjection:
    def test_raising_cell_records_failure_serial(self):
        result = fig7_workers(
            base=QUICK,
            values=(30,),
            approaches=("RAND", "BOGUS"),
            seed=0,
            n_jobs=1,
        )
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.approach == "BOGUS"
        assert "unknown approach" in failure.error
        assert failure.attempts == 2  # one retry
        assert not failure.timed_out
        # The rest of the sweep completed.
        assert set(result.points[0].outcomes) == {"RAND"}
        assert result.points[0].score("RAND") >= 0.0

    def test_raising_cell_records_failure_parallel(self):
        result = fig7_workers(
            base=QUICK,
            values=(30,),
            approaches=("RAND", "BOGUS"),
            seed=0,
            n_jobs=2,
        )
        assert len(result.failures) == 1
        assert result.failures[0].approach == "BOGUS"
        assert set(result.points[0].outcomes) == {"RAND"}
        assert result.telemetry.failed_cells == 1
        assert result.telemetry.retried_cells >= 1

    def test_timing_out_cell_records_failure_and_sweep_completes(self):
        def sleepy_factory(epsilon, seed):
            def solver(instance, valid_pairs):
                time.sleep(1.2)
                raise AssertionError("cell should have been abandoned")

            return solver

        APPROACHES["SLEEPY"] = sleepy_factory
        try:
            # fork (not spawn) so the pool workers inherit the
            # test-registered approach.
            executor = SweepExecutor(
                n_jobs=2, timeout=0.15, retries=1, mp_context="fork"
            )
            result = fig7_workers(
                base=QUICK,
                values=(30,),
                approaches=("RAND", "SLEEPY"),
                seed=0,
                executor=executor,
            )
        finally:
            del APPROACHES["SLEEPY"]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.approach == "SLEEPY"
        assert failure.timed_out
        assert failure.attempts == 2
        assert set(result.points[0].outcomes) == {"RAND"}


class TestExecutor:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SweepExecutor(n_jobs=0)
        with pytest.raises(ValueError):
            SweepExecutor(timeout=0.0)
        with pytest.raises(ValueError):
            SweepExecutor(retries=-1)

    def test_telemetry_fields(self):
        result = fig7_workers(
            base=QUICK, values=(30, 40), approaches=("RAND",), seed=0
        )
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.n_jobs == 1
        assert telemetry.cells == 2
        assert telemetry.failed_cells == 0
        assert telemetry.wall_seconds > 0
        assert telemetry.cell_seconds > 0
        assert telemetry.speedup_vs_serial_estimate > 0
        payload = telemetry.to_dict()
        assert payload["cells"] == 2
        assert "worker_utilization" in payload
        assert "cells over 1 worker(s)" in telemetry.summary()

    def test_cell_specs_are_picklable_and_mark_upper_reference(self):
        from dataclasses import replace

        specs = build_cell_specs(
            "Figure 7",
            "workers_per_round",
            [30, 40],
            lambda base, value: replace(base, workers_per_round=value),
            QUICK,
            ("RAND", "TPG", "GT"),
            seed=0,
        )
        assert len(specs) == 6
        uppers = [spec.approach for spec in specs if spec.compute_upper]
        assert uppers == ["GT", "GT"]  # GT is the reference when present
        restored = pickle.loads(pickle.dumps(specs))
        assert restored == specs
        assert isinstance(restored[0], CellSpec)


class TestPopulationCache:
    def test_same_settings_hit_the_cache(self):
        first = cached_population(QUICK, seed=11)
        again = cached_population(QUICK, seed=11)
        assert first is again

    def test_key_ignores_non_population_settings(self):
        from dataclasses import replace

        base_key = population_cache_key(QUICK, 0)
        assert population_cache_key(replace(QUICK, epsilon=0.08), 0) == base_key
        assert population_cache_key(replace(QUICK, capacity=6), 0) == base_key
        # Pool sizes and seed DO matter.
        assert (
            population_cache_key(replace(QUICK, workers_per_round=500), 0)
            != base_key
        )
        assert population_cache_key(QUICK, 1) != base_key
        # Meetup ignores everything but the seed.
        meetup = replace(QUICK, dataset="meetup")
        assert population_cache_key(meetup, 0) == ("meetup", 0)
        assert population_cache_key(
            replace(meetup, workers_per_round=9), 0
        ) == ("meetup", 0)


class TestCheckpointResume:
    KWARGS = dict(
        base=QUICK, values=(30, 40), approaches=("RAND", "TPG"), seed=3
    )

    def test_full_resume_is_repr_identical_to_writing_run(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = fig7_workers(**self.KWARGS, checkpoint=str(journal))
        assert first.telemetry.resumed_cells == 0
        resumed = fig7_workers(**self.KWARGS, checkpoint=str(journal))
        assert resumed.telemetry.resumed_cells == 4
        assert fingerprint(resumed) == fingerprint(first)
        # Beyond scores: the whole outcome (reports, timings, stats) is
        # repr-identical — JSON floats round-trip exactly.
        for a, b in zip(first.points, resumed.points):
            assert repr(b.outcomes) == repr(a.outcomes)
        assert "resumed 4" in resumed.telemetry.summary()

    def test_truncated_journal_reruns_only_missing_cells(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = fig7_workers(**self.KWARGS, checkpoint=str(journal))
        lines = journal.read_text().strip().splitlines()
        assert len(lines) == 4
        journal.write_text("\n".join(lines[:2]) + "\n")
        resumed = fig7_workers(**self.KWARGS, checkpoint=str(journal))
        assert resumed.telemetry.resumed_cells == 2
        assert not resumed.failures
        assert fingerprint(resumed) == fingerprint(first)
        # The re-executed cells were journaled again.
        assert len(journal.read_text().strip().splitlines()) == 4

    def test_corrupt_tail_and_schema_mismatch_are_skipped(self, tmp_path):
        from repro.experiments.parallel import SweepJournal

        journal = tmp_path / "sweep.jsonl"
        fig7_workers(**self.KWARGS, checkpoint=str(journal))
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 999, "key": "future-version"}\n')
            handle.write('{"schema": 1, "key": "trunc')  # killed mid-write
        records = SweepJournal(journal).load()
        assert len(records) == 4
        assert "future-version" not in records
        # A resume over the damaged journal still works.
        resumed = fig7_workers(**self.KWARGS, checkpoint=str(journal))
        assert resumed.telemetry.resumed_cells == 4

    def test_settings_change_invalidates_journal_entries(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        fig7_workers(**self.KWARGS, checkpoint=str(journal))
        changed = fig7_workers(
            base=QUICK,
            values=(30, 40),
            approaches=("RAND", "TPG"),
            seed=4,  # different seed -> different cells
            checkpoint=str(journal),
        )
        assert changed.telemetry.resumed_cells == 0

    def test_journal_with_the_dropped_kernel_setting_opens(self, tmp_path):
        """Records written while ``ExperimentSettings`` had a ``kernel``
        field (and stats had the compiled-kernel counters) still load;
        their keys no longer match, so their cells re-run."""
        import json

        from repro.experiments.parallel import SweepJournal, _journal_line

        journal = tmp_path / "sweep.jsonl"
        first = fig7_workers(**self.KWARGS, checkpoint=str(journal))
        legacy = []
        for record in SweepJournal(journal).load().values():
            key = json.loads(record["key"])
            key["settings"]["kernel"] = "python"
            record["key"] = json.dumps(key, sort_keys=True)
            stats = record["outcome"]["stats"]
            if stats is not None:
                stats["kernel_compiled_calls"] = 0
                stats["kernel_compile_seconds"] = 0.0
            legacy.append(_journal_line(record))
        journal.write_text("\n".join(legacy) + "\n")

        reader = SweepJournal(journal)
        assert len(reader.load()) == 4
        assert reader.recovered_lines == 0
        resumed = fig7_workers(**self.KWARGS, checkpoint=str(journal))
        assert resumed.telemetry.resumed_cells == 0
        assert not resumed.failures
        assert fingerprint(resumed) == fingerprint(first)

    def test_keyboard_interrupt_flushes_journal_then_resumes(self, tmp_path):
        calls = {"count": 0, "armed": True}

        def kboom_factory(epsilon, seed):
            inner = APPROACHES["RAND"](epsilon=epsilon, seed=seed)

            def solver(instance, valid_pairs):
                calls["count"] += 1
                # Cells run 2 rounds each; blow up inside the second cell.
                if calls["armed"] and calls["count"] > 2:
                    raise KeyboardInterrupt
                return inner(instance, valid_pairs)

            return solver

        APPROACHES["KBOOM"] = kboom_factory
        journal = tmp_path / "sweep.jsonl"
        kwargs = dict(
            base=QUICK, values=(30, 40), approaches=("KBOOM",), seed=3
        )
        try:
            executor = SweepExecutor(n_jobs=1, checkpoint=str(journal))
            with pytest.raises(KeyboardInterrupt):
                fig7_workers(**kwargs, executor=executor)
            # The first cell was journaled before the interrupt...
            assert len(journal.read_text().strip().splitlines()) == 1
            # ...and partial telemetry reports exactly the finished work.
            assert executor.partial_telemetry is not None
            assert executor.partial_telemetry.cells == 1

            calls["armed"] = False
            calls["count"] = 0
            clean = fig7_workers(**kwargs)
            resumed = fig7_workers(**kwargs, checkpoint=str(journal))
            assert resumed.telemetry.resumed_cells == 1
            assert not resumed.failures
            assert fingerprint(resumed) == fingerprint(clean)
        finally:
            del APPROACHES["KBOOM"]

    def test_pool_path_journals_and_resumes(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        parallel = fig7_workers(
            **self.KWARGS, n_jobs=2, checkpoint=str(journal)
        )
        assert not parallel.failures
        assert len(journal.read_text().strip().splitlines()) == 4
        resumed = fig7_workers(
            **self.KWARGS, n_jobs=2, checkpoint=str(journal)
        )
        assert resumed.telemetry.resumed_cells == 4
        assert fingerprint(resumed) == fingerprint(parallel)

    def test_cli_sweep_resume_flag(self, capsys, tmp_path):
        from repro.cli import main

        journal = tmp_path / "fig6.jsonl"
        argv = [
            "sweep", "--figure", "fig6", "--scale", "0.05",
            "--resume", str(journal),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "[executor:" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "resumed" in second


class TestRetryPolicy:
    def test_rejects_bad_parameters(self):
        from repro.utils.procpool import RetryPolicy

        with pytest.raises(ValueError, match="backoff_base"):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError, match="backoff_cap"):
            RetryPolicy(backoff_base=1.0, backoff_cap=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="timeout_escalation"):
            RetryPolicy(timeout_escalation=0.9)

    def test_delay_doubles_then_caps(self):
        from repro.utils.procpool import RetryPolicy

        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5, jitter=0.0)
        assert policy.delay(0, 1) == pytest.approx(0.1)
        assert policy.delay(0, 2) == pytest.approx(0.2)
        assert policy.delay(0, 3) == pytest.approx(0.4)
        assert policy.delay(0, 4) == pytest.approx(0.5)  # capped
        assert policy.delay(0, 10) == pytest.approx(0.5)

    def test_zero_base_disables_all_sleeping(self):
        from repro.utils.procpool import RetryPolicy

        policy = RetryPolicy(backoff_base=0.0)
        assert policy.delay(3, 5) == 0.0
        assert policy.rebuild_delay(4) == 0.0

    def test_jitter_is_deterministic_and_bounded(self):
        from repro.utils.procpool import RetryPolicy

        a = RetryPolicy(backoff_base=0.1, jitter=0.25, seed=9)
        b = RetryPolicy(backoff_base=0.1, jitter=0.25, seed=9)
        raw = 0.1
        for index in range(4):
            delay = a.delay(index, 1)
            assert delay == b.delay(index, 1)  # same key, same jitter
            assert raw <= delay <= raw * 1.25
        # Distinct items never thunder in herd.
        assert len({round(a.delay(i, 1), 12) for i in range(8)}) > 1

    def test_timeout_escalation(self):
        from repro.utils.procpool import RetryPolicy

        policy = RetryPolicy(timeout_escalation=2.0)
        assert policy.timeout_for(None, 3) is None
        assert policy.timeout_for(1.5, 1) == pytest.approx(1.5)
        assert policy.timeout_for(1.5, 3) == pytest.approx(6.0)

    def test_pool_with_custom_policy_stays_bit_identical(self):
        from repro.utils.procpool import RetryPolicy

        kwargs = dict(
            base=QUICK, values=(30, 40), approaches=("RAND", "GT"), seed=3
        )
        serial = fig7_workers(**kwargs, n_jobs=1)
        executor = SweepExecutor(
            n_jobs=2, retry_policy=RetryPolicy(backoff_base=0.2, seed=7)
        )
        tuned = fig7_workers(**kwargs, executor=executor)
        assert not tuned.failures
        assert fingerprint(tuned) == fingerprint(serial)


class TestJournalDurability:
    """Torn-write recovery: the regression behind a real mis-resume.

    A SIGKILL between ``write()`` and the newline leaves the journal's
    last line torn; before the CRC rewrite a resume would glue the next
    record onto the fragment, silently losing both. The journal now
    physically truncates the torn tail (on load *and* before the first
    append) and counts the repair in telemetry.
    """

    KWARGS = dict(
        base=QUICK, values=(30, 40), approaches=("RAND", "TPG"), seed=3
    )

    def _tear_tail(self, journal) -> None:
        """Cut the last journal line in half, no trailing newline."""
        data = journal.read_bytes()
        assert data.endswith(b"\n")
        body = data[:-1]
        cut = body.rfind(b"\n") + 1
        line = body[cut:]
        assert len(line) >= 2
        journal.write_bytes(data[: cut + len(line) // 2])

    def test_torn_trailing_line_truncated_and_resume_matches(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = fig7_workers(**self.KWARGS, checkpoint=str(journal))
        self._tear_tail(journal)
        resumed = fig7_workers(**self.KWARGS, checkpoint=str(journal))
        assert resumed.telemetry.resumed_cells == 3  # torn cell re-ran
        assert resumed.telemetry.journal_recovered_lines >= 1
        assert not resumed.failures
        assert fingerprint(resumed) == fingerprint(first)
        assert "journal recovered" in resumed.telemetry.summary()
        # The repair was physical: whole lines only, all parseable again.
        import json

        data = journal.read_bytes()
        assert data.endswith(b"\n")
        lines = data.decode("utf-8").strip().splitlines()
        assert len(lines) == 4
        for line in lines:
            json.loads(line)

    def test_recover_truncates_before_the_first_append(self, tmp_path):
        # The order that loses data without the lazy tail check: tear,
        # then append *without* an intervening load.
        from repro.experiments.parallel import SweepJournal

        journal = tmp_path / "sweep.jsonl"
        first = fig7_workers(**self.KWARGS, checkpoint=str(journal))
        self._tear_tail(journal)
        assert first is not None
        writer = SweepJournal(journal)
        # Re-append the cell the tear destroyed (the journal's last
        # record is the last spec of the serial run).
        writer.append(self._rerun_results()[-1])
        assert writer.recovered_lines == 1
        # Every line is whole — the fresh record was not glued onto the
        # torn fragment.
        records = SweepJournal(journal).load()
        assert len(records) == 4

    def _rerun_results(self):
        """Fresh CellResults for the same specs (journal-appendable)."""
        from repro.experiments.parallel import build_cell_specs
        from dataclasses import replace

        specs = build_cell_specs(
            "Figure 7",
            "workers_per_round",
            list(self.KWARGS["values"]),
            lambda base, value: replace(base, workers_per_round=value),
            self.KWARGS["base"],
            self.KWARGS["approaches"],
            seed=self.KWARGS["seed"],
        )
        results, _ = SweepExecutor(n_jobs=1).run(specs)
        return results

    def test_crc_mismatch_line_is_dropped_and_rerun(self, tmp_path):
        import json

        from repro.experiments.parallel import SweepJournal

        journal = tmp_path / "sweep.jsonl"
        first = fig7_workers(**self.KWARGS, checkpoint=str(journal))
        lines = journal.read_text(encoding="utf-8").strip().splitlines()
        wrapper = json.loads(lines[-1])
        wrapper["crc"] = (wrapper["crc"] + 1) % 2**32  # bit rot
        lines[-1] = json.dumps(wrapper)
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        reader = SweepJournal(journal)
        assert len(reader.load()) == 3
        assert reader.recovered_lines == 1
        resumed = fig7_workers(**self.KWARGS, checkpoint=str(journal))
        assert resumed.telemetry.resumed_cells == 3
        assert fingerprint(resumed) == fingerprint(first)

    def test_pre_crc_records_are_skipped_silently(self, tmp_path):
        # A v1 line (no "crc" wrapper) is a version mismatch, not
        # corruption: the cell re-runs but nothing counts as recovered.
        from repro.experiments.parallel import SweepJournal

        journal = tmp_path / "sweep.jsonl"
        journal.write_text(
            '{"schema": 1, "key": "old-v1-record"}\n', encoding="utf-8"
        )
        reader = SweepJournal(journal)
        assert reader.load() == {}
        assert reader.recovered_lines == 0


class TestReportingIntegration:
    def test_failed_cell_renders_as_na(self):
        from repro.experiments.reporting import format_failures, format_figure

        result = fig7_workers(
            base=QUICK,
            values=(30,),
            approaches=("RAND", "BOGUS"),
            seed=0,
        )
        text = format_figure(result)
        assert "n/a" in text
        failure_text = format_failures(result.failures)
        assert "BOGUS" in failure_text and "unknown approach" in failure_text

    def test_run_all_jobs_flag(self, capsys):
        from repro.experiments.run_all import main

        code = main(
            ["--figures", "fig6", "--scale", "0.05", "--jobs", "2"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Figure 6" in printed
        assert "[executor:" in printed

    def test_cli_sweep_subcommand(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "sweep.md"
        code = main(
            [
                "sweep",
                "--figure",
                "fig6",
                "--scale",
                "0.05",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Figure 6" in printed
        assert "regenerated in" in printed
        assert "Figure 6" in out.read_text()


# ---------------------------------------------------------------------------
# Telemetry accounting properties
# ---------------------------------------------------------------------------
from types import SimpleNamespace

from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.experiments.parallel import CellFailure, CellResult


def _failure() -> CellFailure:
    return CellFailure(
        figure="fig", parameter="p", value=0, approach="GT",
        error="boom", attempts=2,
    )


_CELL_KINDS = st.sampled_from(["executed", "failed", "resumed"])


def _cell(kind: str, wall: float, queue: float, attempts: int, pid: int) -> CellResult:
    return CellResult(
        spec=None,
        wall_seconds=wall,
        queue_seconds=queue,
        attempts=attempts,
        worker_pid=pid,
        failure=_failure() if kind == "failed" else None,
        resumed=kind == "resumed",
    )


@hyp_settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            _CELL_KINDS,
            st.floats(0.0, 10.0, allow_nan=False),
            st.floats(0.0, 2.0, allow_nan=False),
            st.integers(1, 3),
            st.integers(100, 104),
        ),
        max_size=25,
    ),
    st.integers(1, 8),
    st.floats(0.0, 5.0, allow_nan=False),
)
def test_property_telemetry_accounting(cells, n_jobs, idle_seconds):
    """cells partition into failed + resumed + executed, and utilization
    stays in [0, 1] whenever the wall clock is consistent with the cell
    timings (wall * n_jobs >= summed executed cell time)."""
    results = [_cell(*args) for args in cells]
    executed = [r for r in results if r.failure is None and not r.resumed]
    # A consistent wall clock: at least the perfectly-parallel lower
    # bound over the executed cells, plus arbitrary idle time.
    cell_seconds = sum(r.wall_seconds for r in executed)
    wall = cell_seconds / n_jobs + idle_seconds
    executor = SimpleNamespace(n_jobs=n_jobs)
    telemetry = SweepExecutor._telemetry(executor, results, wall)

    assert telemetry.cells == len(results)
    assert (
        telemetry.cells
        == telemetry.failed_cells + telemetry.resumed_cells + len(executed)
    )
    assert telemetry.failed_cells == sum(1 for r in results if r.failure is not None)
    assert telemetry.resumed_cells == sum(
        1 for r in results if r.failure is None and r.resumed
    )
    assert 0.0 <= telemetry.worker_utilization <= 1.0 + 1e-9
    assert telemetry.cell_seconds == pytest.approx(cell_seconds)
    # Resumed and failed cells never contribute to timing aggregates.
    assert telemetry.distinct_workers == len({r.worker_pid for r in executed})
    if wall > 0:
        assert telemetry.speedup_vs_serial_estimate == pytest.approx(
            cell_seconds / wall
        )
    payload = telemetry.to_dict()
    assert payload["cells"] == telemetry.cells
    assert payload["worker_utilization"] == telemetry.worker_utilization


def test_telemetry_zero_wall_clock_is_safe():
    executor = SimpleNamespace(n_jobs=4)
    telemetry = SweepExecutor._telemetry(executor, [], 0.0)
    assert telemetry.cells == 0
    assert telemetry.worker_utilization == 0.0
    assert telemetry.speedup_vs_serial_estimate == 0.0
