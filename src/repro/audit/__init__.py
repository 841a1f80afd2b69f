"""Differential audit harness — correctness tooling for the solver stack.

Quality-store backends, the grid validity path, solvers and fallback
tiers all promise either repr-identical results or Definition-3/4
feasibility; this package is the machinery that *hunts* for the places
they disagree:

* :mod:`repro.audit.invariants` — re-derives Definition 3/4 feasibility,
  the B-threshold and Equation-2/3 revenue for any
  :class:`~repro.core.assignment.Assignment` against a from-scratch pure
  Python oracle (catching :class:`~repro.core.revenue.RevenueCache`
  drift);
* :mod:`repro.audit.differential` — checks the grid's valid pairs
  against the brute-force Definition 3 oracle, runs the cross-product
  {approaches} x {quality backends} on one instance and flags any
  divergence between combinations documented as identical;
* :mod:`repro.audit.reference` — the bit-exact scalar evaluations the
  batched kernels replaced (greedy counted-subset peel, per-candidate
  ``join_gain`` scan), kept as oracles for the kernel unit tests;
* :mod:`repro.audit.fuzzer` — seeded boundary-biased instance generation
  (capacity == B, zero-speed workers, expired deadlines, duplicate
  locations, tie-heavy dyadic qualities);
* :mod:`repro.audit.shrink` — greedy minimization of a failing instance
  to a small repro;
* :mod:`repro.audit.corpus` — JSON serialization of shrunk repros under
  ``tests/data/audit_corpus/``;
* :mod:`repro.audit.runner` — the ``repro audit`` session: corpus replay
  followed by budgeted fuzzing, plus the mutation-style self-test that
  proves the harness catches an injected pair-sum off-by-one.

See docs/AUDIT.md for the harness design and the corpus triage workflow.
"""

from repro.audit.corpus import (
    iter_corpus,
    load_corpus_entry,
    save_corpus_entry,
)
from repro.audit.differential import run_differential
from repro.audit.fuzzer import FuzzConfig, fuzz_instance
from repro.audit.invariants import AuditFinding, audit_assignment, oracle_total
from repro.audit.runner import (
    AuditOutcome,
    SelfTestResult,
    audit_instance,
    injected_pair_sum_bug,
    run_audit,
    run_self_test,
)
from repro.audit.shrink import shrink_instance

__all__ = [
    "AuditFinding",
    "AuditOutcome",
    "FuzzConfig",
    "SelfTestResult",
    "audit_assignment",
    "audit_instance",
    "fuzz_instance",
    "injected_pair_sum_bug",
    "iter_corpus",
    "load_corpus_entry",
    "oracle_total",
    "run_audit",
    "run_differential",
    "run_self_test",
    "save_corpus_entry",
    "shrink_instance",
]
