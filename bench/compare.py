"""Compare benchmark result sets by the benchmark's bounds.

    python3 bench/compare.py BASE.json              # spread of one set
    python3 bench/compare.py BASE.json CHANGE.json  # change against base

Each file is the ``--out`` of ``bench/run.py --runs N``; runs pair up by
workload and seed. For every workload and end-to-end metric the report
gives each side's median and quartiles, the share of pairs the change
wins (ties count for neither side) and a verdict:

* ``unresolved``: the base's own quartile spread exceeds the bound, and
  not every change run is better than every base run;
* ``regression``: the change's median is worse than the base's by more
  than the bound;
* ``gain``: the change wins at least 9 in 10 pairs and the medians differ
  by more than the base's quartile spread;
* ``same``: otherwise.

One set alone gets its spread per metric, the quartile distance as a
share of the median, against the bound. Exit status 1 on a regression,
an unresolved metric, or (one set) a spread wider than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> dict[tuple[str, str], dict[int, float]]:
    """``{(workload, metric): {seed: value}}`` of one result set."""
    values: dict[tuple[str, str], dict[int, float]] = {}
    for record in json.loads(Path(path).read_text())["records"]:
        for name, metric in record["end_to_end"].items():
            values.setdefault((record["workload"], name), {})[record["seed"]] = metric["value"]
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def worse_by(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def verdict(base: list[float], change: list[float], wins: int, pairs: int, metric: dict) -> str:
    bound, better = metric["bound"], metric["better"]
    b_q1, b_med, b_q3 = quartiles(base)
    c_med = statistics.median(change)
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    if better == "lower":
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by(b_med, c_med, better) > bound:
        return "regression"
    if pairs and wins >= 0.9 * pairs and abs(c_med - b_med) > b_q3 - b_q1 \
            and worse_by(b_med, c_med, better) < 0:
        return "gain"
    return "same"


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def spread_report(base) -> int:
    print(f"{'workload':<10} {'metric':<16} {'median [q1, q3]':<40} {'spread':>8} {'bound':>6}  verdict")
    too_wide = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            values = list(base.get((workload, metric["name"]), {}).values())
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / abs(median) if median else 0.0
            if spread <= metric["bound"] / 3:
                label = "steady"
            elif spread <= metric["bound"]:
                label = "within bound"
            else:
                label = "too wide"
                too_wide += metric["name"] != "setup_s"
            print(f"{workload:<10} {metric['name']:<16} {_cell(values):<40} "
                  f"{spread:>8.2%} {metric['bound']:>6.0%}  {label} (n={len(values)})")
    return 1 if too_wide else 0


def compare_report(base, change) -> int:
    print(f"{'workload':<10} {'metric':<16} {'base median [q1, q3]':<40} "
          f"{'change median [q1, q3]':<40} {'worse':>8} {'wins':>7} {'bound':>6}  verdict")
    flagged = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in change:
                continue
            seeds = sorted(base[key].keys() & change[key].keys())
            wins = sum(
                worse_by(base[key][seed], change[key][seed], metric["better"]) < 0
                for seed in seeds
            )
            a, b = list(base[key].values()), list(change[key].values())
            outcome = verdict(a, b, wins, len(seeds), metric)
            flagged += outcome in ("regression", "unresolved")
            worse = worse_by(statistics.median(a), statistics.median(b), metric["better"])
            print(f"{workload:<10} {metric['name']:<16} {_cell(a):<40} {_cell(b):<40} "
                  f"{worse:>+8.2%} {wins:>3}/{len(seeds):<3} {metric['bound']:>6.0%}  {outcome}")
    return 1 if flagged else 0


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        return spread_report(load(argv[0]))
    if len(argv) == 2:
        return compare_report(load(argv[0]), load(argv[1]))
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
