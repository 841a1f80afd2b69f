"""Tests for the seeded process-chaos layer (``repro.chaos``).

The contract under test: injection decisions are a pure function of
``(policy, scope, index, attempt)`` — reproducible across processes and
runs — activation travels through the environment to pool children of
either start method, the supervising process is never killed or hung by
its own injector, and the :class:`~repro.utils.procpool.FanoutPool`
supervisor recovers from injected SIGKILLs (rebuild + re-enqueue) while
quarantining provably poisonous items instead of looping forever.
"""

from __future__ import annotations

import os

import pytest

from repro.chaos import policy as chaos_policy
from repro.chaos.policy import (
    CHAOS_ACTIONS,
    CHAOS_ENV_VAR,
    ChaosInjector,
    ChaosPolicy,
    ChaosUnpickleError,
    activate,
    attach_checkpoint,
    chaos_context,
    current_injector,
)
from repro.utils.procpool import FanoutPool, RetryPolicy


def _double(item, submitted_at):
    """Module-level pool worker (pools pickle workers by reference)."""
    return item * 2


class TestPolicyValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError, match="kill_rate"):
            ChaosPolicy(kill_rate=-0.1)
        with pytest.raises(ValueError, match="raise_rate"):
            ChaosPolicy(raise_rate=1.5)

    def test_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError, match="sum"):
            ChaosPolicy(kill_rate=0.6, hang_rate=0.6)
        # Exactly 1.0 is allowed — every attempt draws some action.
        ChaosPolicy(kill_rate=0.5, raise_rate=0.5)

    def test_hang_seconds_and_max_attempt(self):
        with pytest.raises(ValueError, match="hang_seconds"):
            ChaosPolicy(hang_seconds=0.0)
        with pytest.raises(ValueError, match="max_attempt"):
            ChaosPolicy(max_attempt=0)

    def test_enabled_property(self):
        assert not ChaosPolicy().enabled  # the default policy is inert
        assert ChaosPolicy(kill_rate=0.01).enabled
        assert ChaosPolicy(attach_exit_rate=0.01).enabled

    def test_spec_round_trips_exactly(self):
        policy = ChaosPolicy(
            kill_rate=0.125,
            hang_rate=0.0625,
            raise_rate=0.25,
            attach_exit_rate=0.03125,
            hang_seconds=12.5,
            max_attempt=3,
            only_indices=(2, 5),
            seed=42,
        )
        assert ChaosPolicy.from_spec(policy.to_spec()) == policy
        assert ChaosPolicy.from_spec(ChaosPolicy().to_spec()) == ChaosPolicy()


class TestInjectorDeterminism:
    def test_rate_one_always_fires_rate_zero_never(self):
        always = ChaosInjector(ChaosPolicy(kill_rate=1.0, max_attempt=1))
        never = ChaosInjector(ChaosPolicy())
        for index in range(8):
            assert always.decide("cell", index, 1) == "kill"
            assert never.decide("cell", index, 1) is None

    def test_decisions_are_pure_functions_of_the_key(self):
        policy = ChaosPolicy(
            kill_rate=0.25, hang_rate=0.25, raise_rate=0.25,
            attach_exit_rate=0.25, max_attempt=5, seed=7,
        )
        a, b = ChaosInjector(policy), ChaosInjector(policy)
        decisions = set()
        for index in range(32):
            decision = a.decide("cell", index, 1)
            assert b.decide("cell", index, 1) == decision
            decisions.add(decision)
        # Rates sum to 1.0: every draw lands in some band, and over 32
        # indices all four actions show up.
        assert decisions == set(CHAOS_ACTIONS)

    def test_scopes_draw_independent_schedules(self):
        policy = ChaosPolicy(kill_rate=0.5, seed=0)
        injector = ChaosInjector(policy)
        cell = [injector.decide("cell", i, 1) for i in range(64)]
        shard = [injector.decide("shard", i, 1) for i in range(64)]
        assert cell != shard

    def test_max_attempt_bounds_injection(self):
        injector = ChaosInjector(ChaosPolicy(kill_rate=1.0, max_attempt=2))
        assert injector.decide("pool", 0, 1) == "kill"
        assert injector.decide("pool", 0, 2) == "kill"
        assert injector.decide("pool", 0, 3) is None

    def test_only_indices_pins_the_victims(self):
        injector = ChaosInjector(
            ChaosPolicy(kill_rate=1.0, only_indices=(1, 3), max_attempt=99)
        )
        decisions = [injector.decide("pool", i, 1) for i in range(5)]
        assert decisions == [None, "kill", None, "kill", None]


class TestActivation:
    def test_activate_sets_and_restores_the_env_spec(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        assert current_injector() is None
        policy = ChaosPolicy(raise_rate=0.5, seed=3)
        with activate(policy):
            assert os.environ[CHAOS_ENV_VAR] == policy.to_spec()
            injector = current_injector()
            assert injector is not None
            assert injector.policy == policy
        assert CHAOS_ENV_VAR not in os.environ
        assert current_injector() is None

    def test_activate_restores_a_previous_spec(self, monkeypatch):
        outer = ChaosPolicy(kill_rate=0.1)
        monkeypatch.setenv(CHAOS_ENV_VAR, outer.to_spec())
        with activate(ChaosPolicy(raise_rate=0.9)):
            assert current_injector().policy.raise_rate == 0.9
        assert os.environ[CHAOS_ENV_VAR] == outer.to_spec()


class TestInlineChaos:
    """The supervising process only ever honors "raise" on itself."""

    def test_inline_raise_fires(self):
        with activate(ChaosPolicy(raise_rate=1.0, max_attempt=99)):
            with pytest.raises(ChaosUnpickleError, match="cell\\[0\\]"):
                with chaos_context("cell", 0, 1, inline=True):
                    pass

    def test_inline_kill_and_hang_are_suppressed(self):
        ran = False
        with activate(
            ChaosPolicy(kill_rate=0.5, hang_rate=0.5, max_attempt=99)
        ):
            with chaos_context("cell", 0, 1, inline=True):
                ran = True  # the process survived its own injector
        assert ran

    def test_attach_exit_arms_and_disarms_the_checkpoint(self):
        with activate(ChaosPolicy(attach_exit_rate=1.0, max_attempt=99)):
            with chaos_context("cell", 0, 1):
                assert chaos_policy._PENDING_ATTACH_EXIT
            assert not chaos_policy._PENDING_ATTACH_EXIT

    def test_attach_checkpoint_is_a_noop_when_disarmed(self):
        attach_checkpoint()  # must not os._exit


class TestFanoutPoolSupervision:
    """Injected SIGKILLs: rebuild + re-enqueue, quarantine true killers.

    ``fork`` start method so the children inherit this test module
    without import-path gymnastics; the supervision code is start-method
    agnostic.
    """

    def test_killed_child_recovers_on_the_clean_reattempt(self):
        policy = ChaosPolicy(kill_rate=1.0, only_indices=(0,), max_attempt=1)
        pool = FanoutPool(
            n_jobs=2,
            retries=1,
            mp_context="fork",
            retry_policy=RetryPolicy(backoff_base=0.0),
        )
        with activate(policy):
            outcomes = pool.run(_double, [1, 2, 3])
        assert [o.payload for o in outcomes] == [2, 4, 6]
        assert all(o.succeeded for o in outcomes)
        assert pool.last_rebuilds >= 1

    def test_always_killing_item_is_quarantined_not_looped(self):
        # max_attempt=99: item 0 kills every pool it touches, including
        # its solo retrial — proof of guilt, quarantined as poison.
        policy = ChaosPolicy(kill_rate=1.0, only_indices=(0,), max_attempt=99)
        pool = FanoutPool(
            n_jobs=2,
            retries=0,
            mp_context="fork",
            retry_policy=RetryPolicy(backoff_base=0.0),
        )
        with activate(policy):
            outcomes = pool.run(_double, [1, 2, 3])
        assert not outcomes[0].succeeded
        assert outcomes[0].kind == "poison"
        assert "quarantined" in outcomes[0].error
        # The bystanders were re-run to completion, not lost.
        assert [o.payload for o in outcomes[1:]] == [4, 6]
        assert pool.last_rebuilds >= 3  # two shared breaks + the solo one

    def test_twice_blamed_bystander_completes_in_its_solo_retrial(self):
        # max_attempt=2: item 0 kills the shared pool on its first two
        # attempts, so it is blamed twice and re-tried alone; the third
        # (solo) attempt runs clean and clears it.
        policy = ChaosPolicy(kill_rate=1.0, only_indices=(0,), max_attempt=2)
        pool = FanoutPool(
            n_jobs=2,
            retries=1,
            mp_context="fork",
            retry_policy=RetryPolicy(backoff_base=0.0),
        )
        with activate(policy):
            outcomes = pool.run(_double, [1, 2, 3])
        assert outcomes[0].kind == "ok"
        assert outcomes[0].payload == 2
        assert outcomes[0].attempts == 3
        assert [o.payload for o in outcomes] == [2, 4, 6]

    def test_injected_raise_consumes_a_retry(self):
        policy = ChaosPolicy(raise_rate=1.0, only_indices=(1,), max_attempt=1)
        pool = FanoutPool(
            n_jobs=2,
            retries=1,
            mp_context="fork",
            retry_policy=RetryPolicy(backoff_base=0.0),
        )
        with activate(policy):
            outcomes = pool.run(_double, [1, 2, 3])
        assert [o.payload for o in outcomes] == [2, 4, 6]
        assert outcomes[1].attempts == 2
        assert pool.last_rebuilds == 0  # a raise never breaks the pool


class TestCampaign:
    def test_raise_only_campaign_passes_and_counts_recoveries(self, tmp_path):
        from repro.chaos import run_campaign

        report = run_campaign(
            seed=0,
            sweeps=1,
            n_jobs=2,
            kill_rate=0.0,
            hang_rate=0.0,
            raise_rate=1.0,
            attach_exit_rate=0.0,
            timeout=60.0,
            workdir=tmp_path,
            approaches=("RAND", "GT"),
            values=(30,),
            mp_context="fork",
        )
        assert report.ok
        assert report.parity == [True]
        assert report.resume_parity == [True]
        assert report.failed_cells == 0
        assert report.retried_cells == 2  # every cell raised once
        assert report.journal_recovered_lines >= 1  # the torn-tail drill
        payload = report.to_dict()
        assert payload["ok"] is True
        assert payload["cells_per_sweep"] == 2

    def test_report_rendering(self):
        from repro.chaos import ChaosCampaignReport
        from repro.experiments.reporting import format_chaos_report

        good = ChaosCampaignReport(
            seed=0, sweeps=1, cells_per_sweep=4,
            parity=[True], resume_parity=[True], retried_cells=3,
        )
        text = format_chaos_report(good)
        assert "chaos campaign PASS" in text
        assert "3 retried cell(s)" in text
        bad = ChaosCampaignReport(
            seed=0, sweeps=1, cells_per_sweep=4,
            parity=[False], resume_parity=[True],
            leaked_segments=["psm_dead"],
        )
        text = format_chaos_report(bad)
        assert "chaos campaign FAIL" in text
        assert "MISMATCH" in text
        assert "LEAKED" in text and "psm_dead" in text


class TestChaosCli:
    def test_reap_subcommand(self, capsys, monkeypatch, tmp_path):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SHM_REGISTRY", str(tmp_path))
        assert main(["chaos", "--reap"]) == 0
        out = capsys.readouterr().out
        assert "scanned 0 registered segment(s)" in out
