"""Command-line interface for the CA-SC toolkit.

Eight subcommands cover the generate -> solve -> evaluate loop a
downstream user needs without writing Python, plus a multi-round
simulation driver, a figure-sweep runner, a correctness auditor, a
process-chaos campaign driver and a hot-path profiler::

    python -m repro.cli generate --workers 200 --tasks 40 --out batch.json
    python -m repro.cli solve batch.json --approach GT+ALL --out assignment.json
    python -m repro.cli evaluate batch.json assignment.json
    python -m repro.cli simulate --approach GT+ALL --rounds 10 --csv rounds.csv
    python -m repro.cli sweep --figure fig7 --scale 0.2 --jobs 4
    python -m repro.cli audit --budget 60 --seed 0
    python -m repro.cli chaos --sweeps 2 --kill-rate 0.1 --seed 0
    python -m repro.cli profile --workers 2000 --tasks 500 --out hotspots.json

``generate`` writes an instance as JSON (see ``repro.datasets.io``);
``solve`` runs any registered approach and prints score, upper bound and
timing; ``evaluate`` re-checks a saved assignment's feasibility and score
(e.g. one produced by an external solver); ``simulate`` runs Algorithm
1's batch framework over a synthetic or Meetup-like population and can
export per-round metrics as CSV/JSONL; ``sweep`` regenerates one paper
figure, optionally fanned out over ``--jobs`` worker processes with
bit-identical results (see docs/PERFORMANCE.md, "Parallel execution");
``audit`` replays the committed repro corpus and then fuzzes fresh
boundary-biased instances through the differential harness, shrinking
any failure to a minimal repro (see docs/AUDIT.md); ``chaos`` runs a
seeded process-chaos campaign — pool children killed, hung, or crashed
mid-attach — asserting results stay repr-identical to a clean run and
no shared-memory segment leaks (see docs/ROBUSTNESS.md), and its
``--reap`` flag scans the shared-memory registry for orphaned segments;
``profile`` runs validity construction and one solve under
:mod:`cProfile` and reports the top functions per phase alongside the
solver's own phase timings (see docs/PERFORMANCE.md, "Profiling").
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.core.assignment import Assignment
from repro.core.bounds import upper_bound
from repro.core.validity import compute_valid_pairs
from repro.datasets.io import load_instance, save_instance
from repro.datasets.synthetic import generate_instance
from repro.experiments.config import APPROACHES, make_solver
from repro.utils.errors import ReproError

__all__ = ["main"]


def _cmd_generate(args: argparse.Namespace) -> int:
    instance = generate_instance(
        worker_count=args.workers,
        task_count=args.tasks,
        capacity=args.capacity,
        remaining_time=args.remaining_time,
        speed_range=(args.speed_min, args.speed_max),
        radius_range=(args.radius_min, args.radius_max),
        min_group_size=args.min_group_size,
        distribution=args.distribution,
        quality_kind=args.quality,
        seed=args.seed,
    )
    save_instance(instance, args.out)
    pairs = compute_valid_pairs(instance)
    print(
        f"wrote {args.out}: {instance.worker_count} workers, "
        f"{instance.task_count} tasks, {pairs.pair_count} valid pairs"
    )
    return 0


def _wrap_budget(solver, args: argparse.Namespace):
    """Run a solver under an anytime deadline when a budget is set.

    Without ``--solver-budget`` the raw solver is returned unchanged, so
    assignments stay bit-identical to earlier releases.
    """
    budget = getattr(args, "solver_budget", None)
    if budget is None:
        return solver
    from repro.core.fallback import FallbackSolver

    return FallbackSolver(
        solver, budget=budget, label=args.approach, seed=args.seed
    )


def _print_degradations(solver) -> None:
    """Print one line per degraded call of a FallbackSolver (if any)."""
    log = getattr(solver, "degradation_log", None)
    if not log:
        return
    degraded = [record for record in log if record.degraded]
    for record in degraded:
        print(f"degradation: {record.summary()}")
    if degraded:
        print(
            f"degraded {len(degraded)}/{len(log)} solve(s) under the "
            f"{log[0].budget_seconds:g}s budget"
        )


def _parse_faults(spec: str):
    """``--faults`` spec -> :class:`~repro.simulation.faults.FaultModel`.

    Comma-separated ``key=value`` pairs: ``no_show``, ``dropout``,
    ``cancel`` (rates in [0, 1]), ``noise`` (location sigma), ``release``
    (dropout busy fraction), ``retries`` (max per task), ``repair``
    (0/1). Example: ``no_show=0.1,dropout=0.05,repair=1``.
    """
    from repro.simulation.faults import FaultModel

    keys = {
        "no_show": ("no_show_rate", float),
        "dropout": ("dropout_rate", float),
        "cancel": ("cancellation_rate", float),
        "noise": ("location_noise_sigma", float),
        "release": ("dropout_release", float),
        "retries": ("max_task_retries", int),
        "repair": ("repair", lambda raw: bool(int(raw))),
    }
    kwargs = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, raw = part.partition("=")
        if name not in keys:
            raise ValueError(
                f"unknown fault key {name!r}; expected one of "
                f"{', '.join(sorted(keys))}"
            )
        field, convert = keys[name]
        kwargs[field] = convert(raw)
    return FaultModel(**kwargs)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    pairs = compute_valid_pairs(instance)
    solver = make_solver(
        args.approach,
        epsilon=args.epsilon,
        seed=args.seed,
        shards=args.shards,
        halo_rounds=args.halo_rounds,
        shard_timeout=args.shard_timeout,
    )
    solver = _wrap_budget(solver, args)

    started = time.perf_counter()
    assignment = solver(instance, pairs)
    elapsed = time.perf_counter() - started

    assignment.check_feasible()
    bound = upper_bound(instance, pairs).value
    score = assignment.total_score()
    ratio = score / bound if bound else 0.0
    print(
        f"{args.approach}: score={score:.4f} ({ratio:.1%} of UPPER={bound:.4f}), "
        f"completed {assignment.completed_task_count()} tasks, "
        f"assigned {assignment.assigned_worker_count()} workers, "
        f"{elapsed:.3f}s"
    )
    _print_stats(solver)
    _print_degradations(solver)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"pairs": assignment.to_pairs()}, handle)
        print(f"wrote assignment to {args.out}")
    return 0


def _print_stats(solver) -> None:
    """Print the merged SolverStats line of an instrumented solver.

    TPG and the GT variants expose ``stats_log`` (one entry per solve);
    baselines do not, and print nothing extra.
    """
    from repro.core.stats import SolverStats

    log = getattr(solver, "stats_log", None)
    if not log:
        return
    merged = SolverStats.merged(log)
    prefix = f"stats[{merged.solver}]"
    if merged.runs > 1:
        prefix += f" over {merged.runs} solves"
    print(f"{prefix}: {merged.summary()}")


def _cmd_evaluate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    with open(args.assignment, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    pairs = compute_valid_pairs(instance)
    assignment = Assignment(instance, pairs)
    try:
        for worker, task in payload["pairs"]:
            assignment.assign(int(worker), int(task))
        assignment.check_feasible()
    except Exception as error:  # surfaced as a clean CLI failure
        print(f"INFEASIBLE: {error}", file=sys.stderr)
        return 1
    print(
        f"feasible: score={assignment.total_score():.4f}, "
        f"completed {assignment.completed_task_count()} tasks"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.experiments.config import ExperimentSettings
    from repro.experiments.reporting import format_fault_summary
    from repro.experiments.runner import build_population
    from repro.simulation.batch import BatchConfig, BatchSimulator
    from repro.simulation.metrics import aggregate, write_csv, write_jsonl

    settings = ExperimentSettings(
        rounds=args.rounds,
        workers_per_round=args.workers,
        tasks_per_round=args.tasks,
        capacity=args.capacity,
        dataset=args.dataset,
        quality_backend=args.quality_backend,
        shards=args.shards,
        halo_rounds=args.halo_rounds,
        shard_timeout=args.shard_timeout,
    )
    population = build_population(settings, seed=args.seed)
    config: BatchConfig = settings.to_batch_config()
    if args.faults:
        config = replace(config, faults=_parse_faults(args.faults))
    solver = make_solver(
        args.approach,
        epsilon=args.epsilon,
        seed=args.seed,
        shards=settings.shards,
        halo_rounds=settings.halo_rounds,
        shard_timeout=settings.shard_timeout,
    )
    solver = _wrap_budget(solver, args)
    report = BatchSimulator(population, config, solver, seed=args.seed).run()

    stats = aggregate(report)
    print(
        f"{args.approach} over {stats.rounds} rounds: "
        f"total score {stats.total_score:.2f}, "
        f"{stats.total_completed_tasks} tasks completed "
        f"({stats.completion_rate:.1%} of offered), "
        f"assignment rate {stats.assignment_rate:.1%}, "
        f"mean batch {stats.mean_batch_seconds * 1e3:.1f} ms"
    )
    _print_stats(solver)
    _print_degradations(solver)
    fault_line = format_fault_summary(report)
    if fault_line:
        print(fault_line)
    if args.csv:
        write_csv(report, args.csv)
        print(f"wrote per-round metrics to {args.csv}")
    if args.jsonl:
        write_jsonl(report, args.jsonl)
        print(f"wrote per-round metrics to {args.jsonl}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import run_figures

    journals = {args.figure: args.resume} if args.resume else {}
    return run_figures([args.figure], args, journals)


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit.runner import run_audit, run_self_test
    from repro.experiments.reporting import format_audit_outcome

    if args.self_test:
        result = run_self_test(seed=args.seed)
        print(result.summary())
        return 0 if result.ok else 1

    approaches = args.approaches.split(",") if args.approaches else None
    outcome = run_audit(
        budget=args.budget,
        seed=args.seed,
        corpus_dir=args.corpus,
        out_dir=args.out_dir,
        approaches=approaches,
        log=print if args.verbose else None,
    )
    print(format_audit_outcome(outcome))
    return 0 if outcome.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.core.quality_store import reap_orphans
    from repro.experiments.reporting import format_chaos_report

    if args.reap:
        report = reap_orphans(force=args.force)
        print(report.summary())
        return 0

    from repro.chaos import run_campaign

    campaign = run_campaign(
        seed=args.seed,
        sweeps=args.sweeps,
        n_jobs=args.jobs,
        kill_rate=args.kill_rate,
        hang_rate=args.hang_rate,
        raise_rate=args.raise_rate,
        attach_exit_rate=args.attach_exit_rate,
        timeout=args.timeout,
        workdir=args.workdir,
    )
    print(format_chaos_report(campaign))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(campaign.to_dict(), handle, indent=2)
        print(f"wrote campaign report to {args.out}")
    return 0 if campaign.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.experiments.profiling import profile_solve

    if args.instance:
        instance = load_instance(args.instance)
    else:
        instance = generate_instance(
            worker_count=args.workers,
            task_count=args.tasks,
            seed=args.seed,
        )
    report = profile_solve(
        instance,
        approach=args.approach,
        epsilon=args.epsilon,
        seed=args.seed,
        top=args.top,
    )
    for line in report.summary_lines(top=args.top):
        print(line)
    if args.out:
        report.write_json(args.out)
        print(f"wrote hotspot report to {args.out}")
    return 0


def _add_shard_arguments(parser: argparse.ArgumentParser) -> None:
    """The geo-sharding knobs, shared by solve/simulate/sweep."""
    parser.add_argument(
        "--shards",
        default="1",
        metavar="{auto,N}",
        help="geo-sharded solving for the GT/TPG family: 'auto' targets "
        "~2500 workers per spatial shard, N pins the shard count, 1 "
        "(default) keeps the monolithic solver with repr-identical "
        "results (see docs/PERFORMANCE.md, 'Geo-sharded solving')",
    )
    parser.add_argument(
        "--halo-rounds",
        type=int,
        default=2,
        help="bound on the boundary-reconcile best-response passes over "
        "border workers after the per-shard solves (default 2)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per shard solve: a shard that exceeds it "
        "(or whose worker process crashes) is re-solved inline under the "
        "same budget instead of aborting the batch, counted "
        "in the stats line as shard_failures/failovers (default: "
        "unbounded; see docs/ROBUSTNESS.md)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro.cli", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a synthetic instance as JSON"
    )
    generate.add_argument("--workers", type=int, default=200)
    generate.add_argument("--tasks", type=int, default=40)
    generate.add_argument("--capacity", type=int, default=4)
    generate.add_argument("--min-group-size", type=int, default=3)
    generate.add_argument("--remaining-time", type=float, default=3.0)
    generate.add_argument("--speed-min", type=float, default=0.01)
    generate.add_argument("--speed-max", type=float, default=0.05)
    generate.add_argument("--radius-min", type=float, default=0.05)
    generate.add_argument("--radius-max", type=float, default=0.10)
    generate.add_argument(
        "--distribution", choices=("uniform", "skewed"), default="uniform"
    )
    generate.add_argument(
        "--quality", choices=("community", "uniform"), default="community"
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_cmd_generate)

    solve = commands.add_parser("solve", help="solve a JSON instance")
    solve.add_argument("instance")
    solve.add_argument(
        "--approach", choices=sorted(APPROACHES), default="GT+ALL"
    )
    solve.add_argument("--epsilon", type=float, default=0.05)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--solver-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="anytime wall-clock budget: the solver stops at the deadline "
        "with its state so far (see docs/ROBUSTNESS.md)",
    )
    solve.add_argument("--out", default=None, help="write assignment JSON here")
    _add_shard_arguments(solve)
    solve.set_defaults(handler=_cmd_solve)

    evaluate = commands.add_parser(
        "evaluate", help="check a saved assignment against an instance"
    )
    evaluate.add_argument("instance")
    evaluate.add_argument("assignment")
    evaluate.set_defaults(handler=_cmd_evaluate)

    simulate = commands.add_parser(
        "simulate", help="run the multi-round batch framework"
    )
    simulate.add_argument(
        "--approach", choices=sorted(APPROACHES), default="GT+ALL"
    )
    simulate.add_argument("--rounds", type=int, default=10)
    simulate.add_argument("--workers", type=int, default=300)
    simulate.add_argument("--tasks", type=int, default=80)
    simulate.add_argument("--capacity", type=int, default=4)
    simulate.add_argument(
        "--dataset", choices=("unif", "skew", "meetup"), default="unif"
    )
    simulate.add_argument("--epsilon", type=float, default=0.05)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--solver-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="anytime per-batch budget: the solver stops at the deadline "
        "with its state so far (see docs/ROBUSTNESS.md)",
    )
    simulate.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject worker/task faults, e.g. "
        "'no_show=0.1,dropout=0.05,cancel=0.02,noise=0.01' "
        "(see docs/ROBUSTNESS.md for all keys)",
    )
    simulate.add_argument(
        "--quality-backend",
        choices=("dense", "sparse"),
        default="dense",
        help="cooperation-store backend: 'sparse' keeps the synthetic "
        "community matrix as prior + CSR deviations in O(nnz) memory "
        "('unif'/'skew' datasets only; see docs/PERFORMANCE.md)",
    )
    simulate.add_argument("--csv", default=None, help="per-round CSV output")
    simulate.add_argument("--jsonl", default=None, help="per-round JSONL output")
    _add_shard_arguments(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    sweep = commands.add_parser(
        "sweep", help="regenerate one paper-figure sweep, optionally parallel"
    )
    from repro.experiments.figures import ALL_FIGURES

    sweep.add_argument(
        "--figure", choices=sorted(ALL_FIGURES), default="fig7"
    )
    sweep.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale in (0, 1]; 1.0 reproduces Table II sizes",
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial; results are bit-identical "
        "either way)",
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help="checkpoint JSONL path: finished cells are journaled there "
        "and a re-run with the same path skips them (safe to pass on "
        "the first run too)",
    )
    sweep.add_argument(
        "--quality-backend",
        choices=("dense", "sparse", "shared"),
        default="dense",
        help="cooperation-store backend: 'sparse' builds the synthetic "
        "population as prior + CSR deviations in O(nnz) memory "
        "(synthetic figures only); 'shared' keeps a dense matrix but "
        "serves it to --jobs workers from one shared-memory segment "
        "instead of per-process copies (see docs/PERFORMANCE.md)",
    )
    sweep.add_argument(
        "--out", default=None, help="markdown output file (appended)"
    )
    _add_shard_arguments(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    audit = commands.add_parser(
        "audit",
        help="differential correctness audit: corpus replay + seeded fuzz",
    )
    audit.add_argument(
        "--budget",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="wall-clock budget for the fuzzing phase (0 = corpus replay "
        "only; default 30)",
    )
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument(
        "--corpus",
        default="tests/data/audit_corpus",
        help="directory of committed repros to replay first "
        "(missing directory = nothing to replay)",
    )
    audit.add_argument(
        "--out-dir",
        default="audit_failures",
        help="where shrunk repros of new failures are written "
        "(CI uploads this directory as an artifact)",
    )
    audit.add_argument(
        "--approaches",
        default=None,
        metavar="A,B,...",
        help="comma-separated approaches to cross-check (default: the "
        "DIFFERENTIAL_APPROACH_ORDER representatives)",
    )
    audit.add_argument(
        "--self-test",
        action="store_true",
        help="inject a deliberate pair-sum off-by-one and verify the "
        "harness detects and shrinks it (mutation self-test)",
    )
    audit.add_argument(
        "--verbose", action="store_true", help="per-entry progress lines"
    )
    audit.set_defaults(handler=_cmd_audit)

    chaos = commands.add_parser(
        "chaos",
        help="seeded process-chaos campaign: crash children, prove "
        "recovery is exact; or --reap orphaned shared memory",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--sweeps",
        type=int,
        default=2,
        help="chaotic sweeps to run against the clean oracle (default 2)",
    )
    chaos.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="worker processes per chaotic sweep (default 2)",
    )
    chaos.add_argument(
        "--kill-rate",
        type=float,
        default=0.1,
        help="per-attempt probability a pool child SIGKILLs itself "
        "mid-cell (default 0.1)",
    )
    chaos.add_argument(
        "--hang-rate",
        type=float,
        default=0.05,
        help="per-attempt probability a child sleeps past the cell "
        "timeout (default 0.05)",
    )
    chaos.add_argument(
        "--raise-rate",
        type=float,
        default=0.1,
        help="per-attempt probability a child raises a poison-pill "
        "unpickle error (default 0.1)",
    )
    chaos.add_argument(
        "--attach-exit-rate",
        type=float,
        default=0.05,
        help="per-attempt probability a child exits hard inside the "
        "shared-memory attach (default 0.05)",
    )
    chaos.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-cell timeout the hang injection must exceed (default 30)",
    )
    chaos.add_argument(
        "--workdir",
        default=None,
        help="directory for the per-sweep checkpoint journals "
        "(default: a fresh temp directory)",
    )
    chaos.add_argument(
        "--out", default=None, help="write the campaign report JSON here"
    )
    chaos.add_argument(
        "--reap",
        action="store_true",
        help="skip the campaign: scan the shared-memory registry and "
        "unlink segments whose owner process is dead",
    )
    chaos.add_argument(
        "--force",
        action="store_true",
        help="with --reap: unlink registered segments even when their "
        "owner is still alive",
    )
    chaos.set_defaults(handler=_cmd_chaos)

    profile = commands.add_parser(
        "profile",
        help="cProfile the validity + solve hot path, report top functions "
        "per phase (see docs/PERFORMANCE.md, 'Profiling')",
    )
    profile.add_argument(
        "--instance",
        default=None,
        help="JSON instance to profile (default: generate one from "
        "--workers/--tasks/--seed)",
    )
    profile.add_argument("--workers", type=int, default=2000)
    profile.add_argument("--tasks", type=int, default=500)
    profile.add_argument(
        "--approach", choices=sorted(APPROACHES), default="GT+ALL"
    )
    profile.add_argument("--epsilon", type=float, default=0.05)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--top",
        type=int,
        default=15,
        help="functions to keep per phase, sorted by self time (default 15)",
    )
    profile.add_argument(
        "--out", default=None, help="write the hotspot report JSON here"
    )
    profile.set_defaults(handler=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, ValueError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
