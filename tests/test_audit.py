"""Tests for the differential audit harness (``repro.audit``).

The load-bearing cases mirror the harness's acceptance contract:

* the **mutation self-test** — with a deliberately injected pair-sum
  off-by-one the harness must flag the divergence and shrink the repro
  to at most 6 workers / 3 tasks;
* the **zero-findings run** — with the mutation removed, corpus replay
  plus a seeded fuzz run must come back clean (the fuzz budget defaults
  to the 30 s acceptance run; set ``AUDIT_TEST_BUDGET`` to shorten local
  iterations);
* the invariant auditor's oracle agrees with
  ``Assignment.recompute_total()`` on the fuzz corpus.
"""

import json
import os

import numpy as np
import pytest

from repro.audit import (
    AuditFinding,
    audit_assignment,
    audit_instance,
    fuzz_instance,
    injected_pair_sum_bug,
    iter_corpus,
    load_corpus_entry,
    oracle_total,
    run_audit,
    run_differential,
    run_self_test,
    save_corpus_entry,
    shrink_instance,
)
from repro.audit.fuzzer import FuzzConfig
from repro.audit.runner import (
    DEFAULT_CORPUS_DIR,
    KILL_RATE_FLOOR,
    injected_block_bug,
    injected_join_gain_bug,
    injected_stage_two_bug,
)
from repro.core.assignment import Assignment
from repro.core.validity import compute_valid_pairs
from repro.experiments.config import make_solver

from tests.conftest import make_dense_instance

#: Budget (seconds) of the acceptance fuzz run; override locally via
#: AUDIT_TEST_BUDGET for faster iteration.
FUZZ_BUDGET = float(os.environ.get("AUDIT_TEST_BUDGET", "30"))


def _solved(instance, approach="GT+ALL", seed=0):
    pairs = compute_valid_pairs(instance)
    solver = make_solver(approach, seed=seed)
    return solver(instance, pairs), pairs


class TestInvariantAuditor:
    @pytest.mark.parametrize("approach", ["GT+ALL", "TPG", "PGREEDY", "MFLOW"])
    def test_clean_solver_output_has_no_findings(self, approach):
        instance = make_dense_instance(seed=11)
        assignment, _ = _solved(instance, approach)
        assert audit_assignment(assignment) == []
        # The Assignment.audit hook is the same check.
        assert assignment.audit() == []

    def test_pair_sum_corruption_is_flagged(self):
        instance = make_dense_instance(seed=3)
        assignment, _ = _solved(instance)
        task = next(
            t
            for t in range(instance.task_count)
            if len(assignment.members(t)) >= instance.min_group_size
        )
        assignment.revenue_cache.pair_sums[task] += 1.0
        assignment.revenue_cache._refresh(task)
        checks = {finding.check for finding in assignment.audit()}
        assert "equation2" in checks
        assert "equation3" in checks
        assert "revenue-drift" in checks

    def test_join_order_ulp_noise_is_not_drift(self):
        # Regression: replaying shard_halo_two_moves.json under
        # RAND(seed=1) leaves one task's incremental pair sum exactly one
        # ulp off the flat recompute — the joins accumulate one cross_sum
        # per worker while recompute_total reduces the gathered submatrix
        # in a single pass. Same state, different association; the drift
        # check must tolerate it.
        from repro.core.baselines.random_assign import solve_random
        from repro.utils.rng import ensure_rng

        instance, _ = load_corpus_entry(
            DEFAULT_CORPUS_DIR / "shard_halo_two_moves.json"
        )
        assignment = solve_random(instance, seed=ensure_rng(1))
        total = assignment.total_score()
        recomputed = assignment.recompute_total()
        assert abs(total - recomputed) <= 1e-9 * max(1.0, abs(recomputed))
        assert audit_assignment(assignment) == []

    def test_b_threshold_violation_is_flagged(self):
        instance = make_dense_instance(seed=3)
        assignment = Assignment(instance)
        assignment.assign(0, 0)  # one member < B = 3
        assignment.revenue_cache.revenues[0] = 1.0  # forged revenue
        checks = {finding.check for finding in assignment.audit()}
        assert "b-threshold" in checks

    def test_invalid_pair_is_flagged(self):
        instance = make_dense_instance(seed=5)
        pairs = compute_valid_pairs(instance)
        invalid = next(
            (worker, task)
            for worker in range(instance.worker_count)
            for task in range(instance.task_count)
            if not pairs.is_valid(worker, task)
        )
        assignment = Assignment(instance)  # no ValidPairs guard attached
        assignment.assign(*invalid)
        checks = {finding.check for finding in assignment.audit()}
        assert "definition3" in checks

    def test_capacity_violation_is_flagged(self):
        instance = make_dense_instance(seed=7)
        pairs = compute_valid_pairs(instance)
        assignment = Assignment(instance, pairs, allow_overflow=True)
        task = 0
        workers = [w for w in pairs.workers_for_task[task]]
        capacity = instance.tasks[task].capacity
        assert len(workers) > capacity
        for worker in workers[: capacity + 1]:
            assignment.assign(worker, task)
        # Overflow states are exempt; final assignments are not.
        assert "definition4-capacity" not in {
            f.check for f in assignment.audit()
        }
        assignment.allow_overflow = False
        assert "definition4-capacity" in {f.check for f in assignment.audit()}

    def test_disjointness_violation_is_flagged(self):
        instance = make_dense_instance(seed=9)
        assignment, _ = _solved(instance)
        worker = next(
            w
            for w in range(instance.worker_count)
            if assignment.is_assigned(w)
        )
        other_task = (assignment.task_of(worker) + 1) % instance.task_count
        # Corrupt the internals: list the worker on a second task.
        assignment.revenue_cache._members[other_task].append(worker)
        checks = {finding.check for finding in assignment.audit()}
        assert "definition4-disjoint" in checks

    def test_oracle_matches_recompute_total_on_fuzz_corpus(self):
        for index in range(25):
            instance = fuzz_instance((404, index))
            assignment, _ = _solved(instance, "PGREEDY")
            oracle = oracle_total(assignment)
            recomputed = assignment.recompute_total()
            assert oracle == pytest.approx(recomputed, rel=1e-9, abs=1e-12)
            assert assignment.audit() == []


class TestDifferentialRunner:
    def test_clean_instance_has_no_findings(self):
        findings = run_differential(fuzz_instance((1, 1)))
        assert findings == []

    def test_backend_divergence_is_flagged(self, monkeypatch):
        from repro.core.quality_store import SparseQualityStore
        from repro.experiments import config

        def evil_factory(epsilon, seed):
            def solver(instance, valid_pairs):
                assignment = make_solver("PGREEDY")(instance, valid_pairs)
                if isinstance(instance.quality, SparseQualityStore):
                    # Backend-dependent behaviour: drop one assignment.
                    for worker in range(instance.worker_count):
                        if assignment.is_assigned(worker):
                            assignment.unassign(worker)
                            break
                return assignment

            return solver

        monkeypatch.setitem(config.APPROACHES, "EVIL", evil_factory)
        # (2, 4) is a seed where PGREEDY assigns workers, so the evil
        # sparse-backend drop actually diverges from the dense reference.
        instance = fuzz_instance((2, 4))
        findings = run_differential(instance, approaches=("EVIL",))
        assert any(f.check == "differential" for f in findings)
        assert any("backend=sparse" in f.context for f in findings)

    def test_solver_crash_becomes_finding(self, monkeypatch):
        from repro.experiments import config

        def crashing_factory(epsilon, seed):
            def solver(instance, valid_pairs):
                raise RuntimeError("boom")

            return solver

        monkeypatch.setitem(config.APPROACHES, "CRASH", crashing_factory)
        findings = run_differential(
            fuzz_instance((3, 3)), approaches=("CRASH",)
        )
        assert findings
        assert all(f.check == "crash" for f in findings)
        assert any("boom" in f.detail for f in findings)

    def test_sharded_check_survives_a_crashing_solver(self, monkeypatch):
        # Regression: the sharded check ran the monolithic solve outside
        # its try, so a raising GT or TPG solver ended the whole audit
        # session instead of giving a shrinkable finding.
        from repro.experiments import config

        def crashing_factory(epsilon, seed):
            def solver(instance, valid_pairs):
                raise RuntimeError("boom")

            return solver

        monkeypatch.setitem(config.APPROACHES, "TPG", crashing_factory)
        outcome = run_audit(budget=30, seed=0, corpus_dir=None, max_instances=1)
        assert outcome.instances_fuzzed == 1
        assert any(
            finding.check == "crash" and "boom" in finding.detail
            for _, finding in outcome.findings
        )

    def test_axis_crash_becomes_finding(self, monkeypatch):
        # A parity axis whose fast path raises yields a crash finding
        # naming the axis, and an audit session goes on to shrink it.
        from repro.core import validity
        from repro.core.quality_store import SparseTaskBlocks

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        real_join = validity._grid_join

        def boom_on_retile(instance, max_remaining, cell_size=None):
            # The fresh build (no cell size) still works; only the
            # axis's second tiling raises.
            if cell_size is not None:
                raise RuntimeError("boom")
            return real_join(instance, max_remaining)

        for owner, method, broken, axis, context in (
            (validity, "_grid_join", boom_on_retile, "validity-parity",
             "validity=mean-radius cells vs reference"),
            (SparseTaskBlocks, "_build_task", boom, "block-parity",
             "backend=sparse"),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(owner, method, broken)
                findings = run_differential(make_dense_instance(seed=1))
                assert any(
                    f.check == "crash" and f.context == context
                    and f.detail == f"{axis}: RuntimeError: boom"
                    for f in findings
                )
                outcome = run_audit(
                    budget=60.0, seed=0, corpus_dir=None, max_instances=3
                )
                assert outcome.instances_fuzzed == 3
                assert not outcome.ok

    def test_validity_parity_divergence_is_flagged(self, monkeypatch):
        # Corrupt the grid join (drop one valid pair from its output);
        # the brute-force reference must flag it at both of the axis's
        # cell tilings, which share the join. Then
        # corrupt the task side alone (one task's watchers reversed, the
        # worker side intact): TPG, the block readers and LUB read that
        # side, so the audit must flag it too.
        from repro.audit import differential
        from repro.core import validity

        real = validity._grid_join

        def dropped(*args, **kwargs):
            pairs = real(*args, **kwargs)
            rows = [list(tasks) for tasks in pairs.tasks_for_worker]
            next(row for row in rows if row).pop()
            return validity.ValidPairs.from_worker_lists(
                rows, len(pairs.workers_for_task)
            )

        def reversed_watchers(*args, **kwargs):
            pairs = real(*args, **kwargs)
            task = int(np.flatnonzero(np.diff(pairs.task_ptr) >= 2)[0])
            start, end = pairs.task_ptr[task], pairs.task_ptr[task + 1]
            task_workers = pairs.task_workers.copy()
            task_workers[start:end] = task_workers[start:end][::-1]
            return validity.ValidPairs(
                pairs.worker_ptr, pairs.worker_tasks, pairs.task_ptr, task_workers
            )

        instance = make_dense_instance(seed=1)
        for broken in (dropped, reversed_watchers):
            monkeypatch.setattr(validity, "_grid_join", broken)
            findings = differential.run_differential(
                instance, approaches=("PGREEDY",), backends=("dense",)
            )
            flagged = {
                f.context for f in findings if f.check == "validity-parity"
            }
            assert flagged == {
                "validity=grid vs reference",
                "validity=mean-radius cells vs reference",
            }, broken.__name__

    def test_stage_one_divergence_is_flagged(self, monkeypatch):
        # Send every stage-1 evaluation down the greedy selection; the
        # from-scratch loop still enumerates small candidate sets, so the
        # groups (selection order vs lexicographic) diverge on every
        # backend and under both call sites' flags.
        from repro.audit import differential
        from repro.core import tpg

        monkeypatch.setattr(tpg, "EXACT_SEED_THRESHOLD", 0)
        instance = make_dense_instance(seed=1)
        findings = differential.run_differential(instance, approaches=())
        flagged = {
            f.context for f in findings if f.check == "stage1-parity"
        }
        assert flagged == {
            f"stage1={site} backend={backend}"
            for site in ("tpg", "border")
            for backend in differential.BACKENDS
        }

    def test_stage_two_divergence_is_flagged(self):
        # One ulp on stage 2's initial running sums moves its gains off
        # the per-pair loop's on every backend, with negative gains
        # allowed or not.
        from repro.audit import differential

        instance = make_dense_instance(seed=1)
        assert differential.run_differential(instance, approaches=()) == []
        with injected_stage_two_bug():
            findings = differential.run_differential(instance, approaches=())
        flagged = {
            f.context for f in findings if f.check == "stage2-parity"
        }
        assert flagged == {
            f"stage2 allow_negative_gain={allow} backend={backend}"
            for allow in (False, True)
            for backend in differential.BACKENDS
        }

    def test_validity_reference_parity_on_boundary_instances(self):
        # The range query is pruned to min(r_i, v_i * max_remaining);
        # parity of the grid with the brute-force reference on
        # boundary-heavy instances is the regression net.
        for index in range(30):
            instance = fuzz_instance((7, index))
            findings = run_differential(
                instance, approaches=(), backends=("dense",)
            )
            assert findings == []


class TestFuzzerAndShrink:
    def test_fuzzing_is_deterministic(self):
        from repro.datasets.io import instance_to_dict

        first = fuzz_instance((5, 7))
        second = fuzz_instance((5, 7))
        assert instance_to_dict(first) == instance_to_dict(second)

    def test_stream_mixes_dyadic_and_noisy_qualities(self):
        # Half the regular instances leave the 1/8 grid, so a one-ulp
        # divergence in a running sum is not always rounded away.
        dyadic = set()
        for index in range(20):
            values = fuzz_instance((5, index)).quality.to_dense().values
            dyadic.add(bool(np.all(values * 8 == np.round(values * 8))))
        assert dyadic == {True, False}

    def test_boundaries_are_exercised(self):
        saw_zero_speed = saw_tight_capacity = False
        saw_expired = saw_colocated = False
        for index in range(60):
            instance = fuzz_instance((99, index))
            if any(w.speed == 0.0 for w in instance.workers):
                saw_zero_speed = True
            if any(
                t.capacity == instance.min_group_size for t in instance.tasks
            ):
                saw_tight_capacity = True
            if any(t.deadline < instance.now for t in instance.tasks):
                saw_expired = True
            worker_points = {
                (w.location.x, w.location.y) for w in instance.workers
            }
            if any(
                (t.location.x, t.location.y) in worker_points
                for t in instance.tasks
            ):
                saw_colocated = True
        assert saw_zero_speed and saw_tight_capacity
        assert saw_expired and saw_colocated

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FuzzConfig(min_workers=1)
        with pytest.raises(ValueError):
            FuzzConfig(min_tasks=0)

    def test_shrink_reaches_predicate_minimum(self):
        # Seed (8, 0) draws the fully random recipe (the kernel-boundary
        # shapes ignore the size bounds, so a boundary draw could not
        # satisfy the predicate in the first place).
        instance = fuzz_instance(
            (8, 0), FuzzConfig(min_workers=8, max_workers=8, min_tasks=3, max_tasks=3)
        )
        shrunk = shrink_instance(
            instance,
            lambda i: i.worker_count >= 3 and i.task_count >= 2,
        )
        assert shrunk.worker_count == 3
        assert shrunk.task_count == 2
        # Quality store was carved down consistently.
        assert shrunk.quality.size == 3

    def test_shrink_returns_input_when_not_failing(self):
        instance = fuzz_instance((12, 0))
        assert shrink_instance(instance, lambda i: False) is instance


class TestCorpus:
    def test_round_trip(self, tmp_path):
        from repro.datasets.io import instance_to_dict

        instance = fuzz_instance((21, 0))
        finding = AuditFinding(check="equation2", detail="demo")
        path = save_corpus_entry(
            tmp_path / "entry.json",
            instance,
            description="round trip",
            seed=(21, 0),
            findings=[finding],
        )
        loaded, metadata = load_corpus_entry(path)
        assert instance_to_dict(loaded) == instance_to_dict(instance)
        assert metadata["description"] == "round trip"
        assert metadata["seed"] == [21, 0]
        assert metadata["findings"] == [str(finding)]

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"corpus_version": 999}))
        with pytest.raises(ValueError, match="corpus version"):
            load_corpus_entry(path)

    def test_iter_missing_directory_is_empty(self, tmp_path):
        assert list(iter_corpus(tmp_path / "nope")) == []

    def test_committed_corpus_is_readable(self):
        entries = list(iter_corpus(DEFAULT_CORPUS_DIR))
        assert len(entries) >= 3
        for path, instance, metadata in entries:
            assert instance.worker_count >= 1
            assert metadata["description"]


@pytest.fixture(scope="module")
def self_test():
    return run_self_test(seed=0)


def _killed(result, axis):
    """Whether ``axis``'s mutation row clears the kill-rate floor."""
    [(kills, tried)] = [(k, t) for name, k, t in result.kill_rows if name == axis]
    return kills >= KILL_RATE_FLOOR * tried


class TestMutationSelfTest:
    def test_injected_bug_is_detected_and_shrunk(self, self_test):
        result = self_test
        assert result.ok
        assert result.detected
        assert result.shrunk_workers <= 6
        assert result.shrunk_tasks <= 3
        checks = {finding.check for finding in result.findings}
        assert "equation2" in checks or "revenue-drift" in checks

    def test_corrupted_task_block_is_flagged_and_restored(self, self_test):
        from repro.core.quality_store import SparseTaskBlocks

        assert _killed(self_test, "block-parity")
        original = SparseTaskBlocks._build_task
        with injected_block_bug():
            assert SparseTaskBlocks._build_task is not original
        assert SparseTaskBlocks._build_task is original

    def test_shifted_join_kernel_is_flagged_and_restored(self, self_test):
        from repro.core import kernels, revenue

        assert _killed(self_test, "round-parity")
        original = kernels.fit_join_gains
        with injected_join_gain_bug():
            assert kernels.fit_join_gains is not original
            assert revenue.fit_join_gains is kernels.fit_join_gains
        assert kernels.fit_join_gains is original
        assert revenue.fit_join_gains is original

    def test_shifted_stage_two_sums_are_flagged_and_restored(self, self_test):
        from repro.core import tpg

        assert _killed(self_test, "stage2-parity")
        original = tpg._slot_sums
        with injected_stage_two_bug():
            assert tpg._slot_sums is not original
        assert tpg._slot_sums is original

    @pytest.mark.parametrize(
        "entry, mutation, check",
        [
            ("join_gain_mutation_minimal.json", injected_join_gain_bug, "round-parity"),
            ("stage_two_mutation_minimal.json", injected_stage_two_bug, "stage2-parity"),
        ],
    )
    def test_corpus_catches_rare_mutation(self, entry, mutation, check):
        # Few fuzzed instances show a one-ulp shift, so the corpus keeps
        # a shrunk one per mutation and replay alone catches it.
        instance, _ = load_corpus_entry(DEFAULT_CORPUS_DIR / entry)
        assert run_differential(instance, approaches=()) == []
        with mutation():
            findings = run_differential(instance, approaches=())
        assert any(f.check == check for f in findings)

    def test_mutation_restores_join(self):
        from repro.core.revenue import RevenueCache

        original = RevenueCache.join
        with injected_pair_sum_bug():
            assert RevenueCache.join is not original
        assert RevenueCache.join is original

    def test_audit_session_writes_shrunk_repro(self, tmp_path):
        with injected_pair_sum_bug():
            outcome = run_audit(
                budget=60.0,
                seed=0,
                corpus_dir=None,
                out_dir=tmp_path,
                approaches=("PGREEDY",),
                backends=("dense",),
                max_instances=20,
            )
        assert not outcome.ok
        assert outcome.repro_paths
        shrunk, metadata = load_corpus_entry(outcome.repro_paths[0])
        assert shrunk.worker_count <= 6
        assert shrunk.task_count <= 3
        assert metadata["findings"]


class TestZeroFindings:
    def test_corpus_replay_is_clean(self):
        outcome = run_audit(budget=0.0, seed=0, corpus_dir=DEFAULT_CORPUS_DIR)
        assert outcome.ok, [str(f) for _, f in outcome.findings]
        assert outcome.corpus_replayed >= 3
        assert outcome.instances_fuzzed == 0

    def test_seeded_fuzz_is_clean(self):
        # The acceptance run: a fresh seeded fuzz session over the full
        # approach x backend cross-product must come back
        # clean now that the known bugs are fixed.
        outcome = run_audit(
            budget=FUZZ_BUDGET, seed=2026, corpus_dir=None, out_dir=None
        )
        assert outcome.ok, [str(f) for _, f in outcome.findings]
        assert outcome.instances_fuzzed > 0


class TestCli:
    def test_audit_subcommand_clean(self, capsys):
        from repro.cli import main

        code = main(
            [
                "audit",
                "--budget",
                "1",
                "--seed",
                "1",
                "--corpus",
                str(DEFAULT_CORPUS_DIR),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "no findings" in out

    def test_audit_self_test_subcommand(self, capsys):
        from repro.cli import main

        code = main(["audit", "--self-test", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "self-test passed" in out
