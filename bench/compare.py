"""Compare benchmark runs of two commits, end-to-end metric by workload.

    python3 bench/compare.py BASE.json... -- NEW.json...

Each file is a document written by ``bench/run.py --out`` (one per run;
take at least ten, alternating base and new).  For every end-to-end metric
of ``BENCHMARK.json``, and for failed queries, each workload gets one row
with each side's median and quartiles and a verdict:

* ``improved``   -- every new run beats every base run; or the new median is
  better by more than the base runs' quartile distance and the new side wins
  at least nine tenths of all (base, new) pairs;
* ``regressed``  -- the new median is worse by more than the metric's bound,
  or a new run failed more queries than any base run;
* ``unresolved`` -- either side's run-to-run spread (quartile distance over
  median) is wider than the bound, or a side has fewer than three runs;
* ``unchanged``  -- otherwise.

Exit status 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fewer runs than this on either side cannot resolve a verdict.
MIN_RUNS = 3

#: Share of (base, new) pairs the new side must win to claim a gain.
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    """The verdict for one metric on one workload; see the module docstring."""
    if len(base) < MIN_RUNS or len(new) < MIN_RUNS:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0  # sign * (new - base) > 0 means worse

    def new_wins(n: float, b: float) -> bool:
        return sign * (n - b) < 0

    pairs = [new_wins(n, b) for n in new for b in base]
    if all(pairs):
        return "improved"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    base_median, new_median = statistics.median(base), statistics.median(new)
    worse = sign * (new_median - base_median)
    if worse > bound * base_median:
        return "regressed"
    q1, _, q3 = quartiles(base)
    if -worse > q3 - q1 and sum(pairs) >= WIN_SHARE * len(pairs):
        return "improved"
    return "unchanged"


def failed_verdict(base: list[int], new: list[int]) -> str:
    return "regressed" if max(new) > max(base) else "unchanged"


def collect(paths: list[Path]) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per document (untraced runs only)."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        for name, entry in json.loads(path.read_text())["workloads"].items():
            if "untraced" not in entry:
                continue
            values = out.setdefault(name, {})
            for metric, value in entry["untraced"]["end_to_end"].items():
                values.setdefault(metric, []).append(float(value))
            values.setdefault("failed_queries", []).append(float(entry["failed"]))
    return out


def _describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g} (1 run)"
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(base_paths: list[Path], new_paths: list[Path]) -> list[dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = collect(base_paths), collect(new_paths)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            continue
        for metric in spec["end_to_end"]:
            b, n = base[workload].get(metric["name"]), new[workload].get(metric["name"])
            if not b or not n:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "base": _describe(b),
                    "new": _describe(n),
                    "change": f"{statistics.median(n) / statistics.median(b) - 1:+.1%}",
                    "bound": f"{metric['bound']:.0%}",
                    "verdict": verdict(b, n, metric["bound"], metric["better"]),
                }
            )
        b, n = base[workload]["failed_queries"], new[workload]["failed_queries"]
        rows.append(
            {
                "workload": workload,
                "metric": "failed_queries",
                "base": f"max {max(b):.0f}",
                "new": f"max {max(n):.0f}",
                "change": "",
                "bound": "no increase",
                "verdict": failed_verdict(b, n),
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description="Compare benchmark runs of two commits.")
    parser.add_argument("files", nargs="+", type=Path)
    base_paths = parser.parse_args(argv[:split]).files
    new_paths = parser.parse_args(argv[split + 1 :]).files
    rows = compare(base_paths, new_paths)
    columns = ("workload", "metric", "base", "new", "change", "bound", "verdict")
    widths = {c: max([len(c)] + [len(row[c]) for row in rows]) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(row[c].ljust(widths[c]) for c in columns))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
