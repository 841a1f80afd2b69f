"""Tests for the extension baselines: WFLOW and PGREEDY."""

import pytest

from repro.core.baselines.mflow import solve_mflow
from repro.core.baselines.pair_greedy import solve_pair_greedy
from repro.core.baselines.wflow import solve_wflow
from repro.core.tpg import solve_tpg
from repro.core.validity import compute_valid_pairs
from repro.datasets.synthetic import generate_instance

from tests.conftest import make_dense_instance


class TestWFlow:
    def test_feasible(self):
        instance = make_dense_instance(30, 6, seed=1)
        pairs = compute_valid_pairs(instance)
        assignment = solve_wflow(instance, pairs)
        assignment.check_feasible()

    def test_assigns_like_mflow_in_cardinality(self):
        """WFLOW keeps maximum cardinality (the bonus term dominates)."""
        instance = make_dense_instance(40, 6, seed=2)
        pairs = compute_valid_pairs(instance)
        wflow = solve_wflow(instance, pairs)
        mflow = solve_mflow(instance, pairs)
        # Both dissolve sub-B groups, so compare within a small slack.
        assert (
            abs(wflow.assigned_worker_count() - mflow.assigned_worker_count())
            <= instance.min_group_size
        )

    def test_usually_beats_mflow_on_score(self):
        """Preferring high-q_hat workers should help (or at least not
        hurt) the cooperation score versus quality-blind MFLOW."""
        wins = 0
        for seed in range(6):
            instance = make_dense_instance(40, 6, seed=seed)
            pairs = compute_valid_pairs(instance)
            if (
                solve_wflow(instance, pairs).total_score()
                >= solve_mflow(instance, pairs).total_score() - 1e-9
            ):
                wins += 1
        assert wins >= 3

    def test_below_tpg(self):
        """Flow methods cannot express pairwise cooperation: TPG should
        dominate WFLOW on community instances."""
        wins = 0
        for seed in range(5):
            instance = make_dense_instance(40, 6, seed=seed)
            pairs = compute_valid_pairs(instance)
            if (
                solve_tpg(instance, pairs).total_score()
                >= solve_wflow(instance, pairs).total_score() - 1e-9
            ):
                wins += 1
        assert wins >= 4

    def test_empty(self):
        instance = generate_instance(0, 0, seed=0)
        assert solve_wflow(instance).total_score() == 0.0


class TestPairGreedy:
    def test_feasible(self):
        instance = make_dense_instance(30, 6, seed=3)
        pairs = compute_valid_pairs(instance)
        assignment = solve_pair_greedy(instance, pairs)
        assignment.check_feasible()

    def test_no_sub_b_groups_remain(self):
        instance = make_dense_instance(25, 5, seed=4)
        pairs = compute_valid_pairs(instance)
        assignment = solve_pair_greedy(instance, pairs)
        for task in range(instance.task_count):
            count = assignment.assigned_count(task)
            assert count == 0 or count >= instance.min_group_size

    def test_tpg_stage1_adds_value(self):
        """The ablation's purpose: full TPG should match or beat the
        stage-2-only greedy on most instances."""
        wins = 0
        for seed in range(6):
            instance = make_dense_instance(36, 6, seed=seed)
            pairs = compute_valid_pairs(instance)
            if (
                solve_tpg(instance, pairs).total_score()
                >= solve_pair_greedy(instance, pairs).total_score() - 1e-9
            ):
                wins += 1
        assert wins >= 4

    def test_empty(self):
        instance = generate_instance(0, 0, seed=0)
        assert solve_pair_greedy(instance).total_score() == 0.0


class TestWFlowKuhnEquivalence:
    def test_matches_min_cost_flow_formulation(self):
        """The weight-ordered Kuhn greedy must match the min-cost
        max-flow formulation in both cardinality and summed proxy weight
        (solutions may differ, the objective values may not)."""
        from repro.core.bounds import highest_average_quality
        from tests.mincost import MinCostFlowNetwork, min_cost_max_flow
        import repro.core.baselines.wflow as wflow_module

        for seed in range(5):
            instance = generate_instance(
                22, 5, speed_range=(0.1, 0.4), radius_range=(0.2, 0.6), seed=seed
            )
            pairs = compute_valid_pairs(instance)
            q_hat = [
                highest_average_quality(
                    instance.quality, w, instance.min_group_size
                )
                for w in range(instance.worker_count)
            ]

            # Reference: explicit min-cost max-flow with a bonus making
            # cardinality dominate.
            source, first_worker = 0, 1
            first_task = first_worker + instance.worker_count
            sink = first_task + instance.task_count
            network = MinCostFlowNetwork(sink + 1)
            bonus = 2.0 * max(q_hat, default=0.0) * instance.worker_count + 1.0
            for worker in range(instance.worker_count):
                network.add_edge(source, first_worker + worker, 1, 0.0)
            pair_edges = []
            for worker, tasks in enumerate(pairs.tasks_for_worker):
                for task in tasks:
                    pair_edges.append(
                        (
                            network.add_edge(
                                first_worker + worker,
                                first_task + task,
                                1,
                                -(bonus + q_hat[worker]),
                            ),
                            worker,
                        )
                    )
            for task in range(instance.task_count):
                network.add_edge(
                    first_task + task, sink, instance.tasks[task].capacity, 0.0
                )
            flow = min_cost_max_flow(network, source, sink)
            flow_weight = sum(
                q_hat[worker]
                for edge, worker in pair_edges
                if network.edges[edge].flow > 0
            )

            # Kuhn version, with sub-B dissolution disabled to compare
            # the raw matchings.
            original = wflow_module.Assignment.drop_incomplete_groups
            wflow_module.Assignment.drop_incomplete_groups = lambda self: []
            try:
                kuhn = solve_wflow(instance, pairs)
            finally:
                wflow_module.Assignment.drop_incomplete_groups = original
            kuhn_weight = sum(q_hat[w] for w, _ in kuhn.to_pairs())

            assert kuhn.assigned_worker_count() == flow.flow_value
            assert kuhn_weight == pytest.approx(flow_weight)
