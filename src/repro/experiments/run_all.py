"""Regenerate every paper experiment.

Usage::

    python -m repro.experiments.run_all                # full Table II scale
    python -m repro.experiments.run_all --scale 0.2    # quick pass
    python -m repro.experiments.run_all --jobs 4       # process-pool fan-out
    python -m repro.experiments.run_all --figures fig2 fig6 --out results.md

With ``--out`` the tables are also written as markdown (the format
EXPERIMENTS.md embeds); stdout always gets the plain-text tables.
``--jobs N`` fans each sweep's (value, approach) cells over ``N`` worker
processes with bit-identical results (see docs/PERFORMANCE.md,
"Parallel execution"); the default 1 preserves the serial path.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments.config import ExperimentSettings
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.parallel import SweepExecutor
from repro.experiments.reporting import (
    figure_to_markdown,
    format_failures,
    format_figure,
    format_telemetry,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.run_all", description=__doc__
    )
    parser.add_argument(
        "--figures",
        nargs="*",
        default=sorted(ALL_FIGURES),
        choices=sorted(ALL_FIGURES),
        help="which figures to regenerate (default: all)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale in (0, 1]; 1.0 reproduces Table II sizes",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per sweep (1 = serial; results are "
        "bit-identical either way)",
    )
    parser.add_argument(
        "--out", type=str, default=None, help="markdown output file (appended)"
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        help="journal finished sweep cells to <dir>/<figure>.jsonl so an "
        "interrupted run resumes where it stopped (see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--quality-backend",
        choices=("dense", "sparse", "shared"),
        default="dense",
        help="cooperation-store backend: 'sparse' builds synthetic "
        "populations in O(nnz) memory (synthetic figures only); 'shared' "
        "serves the dense matrix to --jobs workers from shared memory "
        "(see docs/PERFORMANCE.md, 'Memory scaling')",
    )
    parser.add_argument(
        "--charts",
        action="store_true",
        help="also print unicode sparkline charts of both panels",
    )
    args = parser.parse_args(argv)
    journals = {}
    if args.checkpoint_dir:
        directory = Path(args.checkpoint_dir)
        journals = {name: str(directory / f"{name}.jsonl") for name in args.figures}
    return run_figures(args.figures, args, journals)


def run_figures(names, args: argparse.Namespace, journals: dict[str, str]) -> int:
    """Run each named figure and report it; the loop of both shells.

    ``args`` holds either shell's parsed flags (this module's or
    ``repro.cli sweep``'s). The shard knobs it lacks keep their
    :class:`ExperimentSettings` defaults. ``--quality-backend`` splits
    here: ``sparse`` is a settings choice (an O(nnz) population),
    ``shared`` an executor one (the pool's transport). ``journals`` maps
    a figure to its checkpoint file. Prints both panels (plus charts,
    telemetry when a pool or journal is in play, and failures on
    stderr), appends the markdown to ``args.out`` when set, and returns
    1 if any cell failed.
    """
    settings = {
        knob: getattr(args, knob)
        for knob in ("shards", "halo_rounds", "shard_timeout")
        if hasattr(args, knob)
    }
    if args.quality_backend == "sparse":
        settings["quality_backend"] = "sparse"
    markdown_chunks: list[str] = []
    failed_cells = 0
    for name in names:
        figure = ALL_FIGURES[name]
        journal = journals.get(name)
        executor = SweepExecutor(
            n_jobs=args.jobs, checkpoint=journal, quality_backend=args.quality_backend
        )
        started = time.perf_counter()
        result = figure(
            base=ExperimentSettings(dataset=figure.dataset, **settings),
            scale=args.scale,
            seed=args.seed,
            executor=executor,
        )
        elapsed = time.perf_counter() - started
        print(format_figure(result))
        if getattr(args, "charts", False):
            from repro.experiments.plotting import render_figure_charts

            print()
            print(render_figure_charts(result))
        if args.jobs > 1 or journal:
            print(format_telemetry(result.telemetry))
        if result.failures:
            failed_cells += len(result.failures)
            print(format_failures(result.failures), file=sys.stderr)
        print(f"[{name} regenerated in {elapsed:.1f}s]\n")
        sys.stdout.flush()
        markdown_chunks.append(f"### {result.figure}\n\n" + figure_to_markdown(result))

    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write("\n\n".join(markdown_chunks) + "\n")
        print(f"wrote markdown tables to {args.out}")
    return 1 if failed_cells else 0


if __name__ == "__main__":
    raise SystemExit(main())
