"""Regenerate the paper's tables and figures through the matrix orchestrator.

Each artifact is a matrix spec under ``benchmarks/matrices/``; this loop
runs them with :func:`repro.experiments.run_matrix`, exactly as
``python -m repro experiments run --matrix benchmarks/matrices/<name>.json``
does.  The specs pin the reproduction scale; all of them take a few
minutes.  A cell whose measurement breaks the paper's claim fails, and
the script exits non-zero.

Usage:
    python examples/reproduce_paper.py                  # every table and figure
    python examples/reproduce_paper.py table3 fig8      # selected artifacts
    python examples/reproduce_paper.py fig8 --output=results/paper
"""

import sys
from pathlib import Path

from repro.experiments import MatrixSpec, run_matrix
from repro.utils.tables import format_table

MATRICES = Path(__file__).resolve().parents[1] / "benchmarks" / "matrices"

PAPER = {
    "table3": "Table 3 - datasets",
    "fig3": "Figure 3 - Jaccard overlap (IC)",
    "fig4": "Figure 4 - Jaccard overlap (WC)",
    "fig5": "Figure 5 - competitive spread (hep)",
    "fig6": "Figure 6 - competitive spread (phy)",
    "fig7": "Figure 7 - competitive spread (wiki)",
    "fig8": "Figure 8 - mixed vs random (hep, wc)",
    "fig9": "Figure 9 - profile spreads (hep, wc)",
    "table4": "Table 4 - NE search response time",
    "fig10": "Figure 10 - coefficients",
}


def main(argv: list[str]) -> int:
    output = None
    requested = []
    for arg in argv:
        if arg.startswith("--output="):
            output = Path(arg.split("=", 1)[1])
        else:
            requested.append(arg)
    requested = requested or list(PAPER)
    unknown = [name for name in requested if name not in PAPER]
    if unknown:
        print(f"unknown experiment(s): {unknown}")
        print(f"available: {', '.join(PAPER)}")
        return 2
    failed = 0
    for name in requested:
        spec = MatrixSpec.from_file(MATRICES / f"{name}.json")
        result = run_matrix(
            spec,
            output_dir=None if output is None else output / name,
            append=False,
        )
        print(format_table(result.results_rows, title=PAPER[name]))
        print()
        failed += len(result.failed)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
