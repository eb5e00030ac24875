"""Command-line interface: ``python -m repro <command>``.

Subcommands cover the everyday workflows:

* ``stats``    — summarize a dataset surrogate or a SNAP edge-list file;
* ``seeds``    — run one IM algorithm and print its seed set;
* ``spread``   — Monte-Carlo spread of an algorithm's seeds (optionally
  against a competing algorithm);
* ``compete``  — two algorithms head-to-head: per-group spreads + overlap;
* ``getreal``  — run the full GetReal pipeline and print the equilibrium;
* ``overlap``  — Jaccard overlap of two algorithms' seed sets;
* ``block``    — place blocker seeds against a rival campaign;
* ``experiments`` — declarative scenario-matrix orchestrator:
  ``run`` executes a matrix spec and appends to its ``BENCH_*`` trajectory,
  ``gate`` diffs the newest entry against the stored history and exits
  non-zero on regressions, ``list`` shows registered scenario plugins
  (and, with ``--matrix``, the expanded cells);
* ``journal``  — run-journal report: runs, per-profile timing/variance,
  execution batches, span totals and cache hits per namespace;
* ``obs trace`` — per-run span waterfall (self vs child time) from a journal.

Every graph-taking command accepts the observability flags
``--log-level``/``--log-json`` (structured logging on stderr) and
``--journal PATH`` (append typed JSONL events to *PATH*), plus the
execution flags ``--backend {serial,process}`` / ``--workers N``
selecting the simulation backend (defaults come from ``REPRO_BACKEND`` /
``REPRO_WORKERS``; results are bit-identical across backends for a fixed
seed).  ``getreal`` additionally accepts
``--profile-symmetry {full,reduce}`` (default ``REPRO_SYMMETRY`` or
``full``) selecting full-profile vs symmetric-reduced payoff estimation.

Examples::

    python -m repro stats hep --scale 0.1
    python -m repro seeds hep --algorithm ddic --k 10
    python -m repro spread hep --algorithm mgic --k 20 --rounds 50
    python -m repro compete hep --first mgic --second ddic --k 20
    python -m repro getreal hep --strategies mgic,ddic --k 20 --rounds 30 \
        --journal run.jsonl --log-level info
    python -m repro journal run.jsonl
    python -m repro obs trace run.jsonl
    python -m repro overlap hep --first ddic --second mgic --k 20
    python -m repro block hep --rival ddic --k 5 --rival-k 10
    python -m repro experiments run --matrix benchmarks/matrices/smoke.json
    python -m repro experiments gate
    python -m repro experiments list --matrix benchmarks/matrices/smoke.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.algorithms import get_algorithm, registered_algorithms
from repro.cascade import IndependentCascade, LinearThreshold, WeightedCascade
from repro.core.getreal import get_real
from repro.core.metrics import jaccard
from repro.core.strategy import StrategySpace
from repro.errors import JournalError
from repro.core.payoff import SYMMETRY_MODES
from repro.exec.backends import BACKENDS
from repro.exec.executor import Executor, build_executor
from repro.graphs.datasets import DATASETS, get_dataset
from repro.graphs.digraph import DiGraph
from repro.graphs.loaders import load_edge_list
from repro.graphs.store import GraphStore, is_store_entry
from repro.graphs.stats import summarize
from repro.obs import (
    RunJournal,
    attach_journal,
    configure_logging,
    detach_journal,
    read_journal,
    render_journal_report,
    render_trace_tree,
)
from repro.utils.tables import format_table


def _load_graph(target: str, scale: float | None, directed: bool) -> DiGraph:
    """A dataset name (hep/phy/wiki), a graph-store entry dir, or an edge list.

    Graph-store entries (directories written by
    :class:`repro.graphs.store.GraphStore`) open as memory-mapped CSR
    arrays, so million-node graphs load in milliseconds without touching
    ``--undirected`` (direction was fixed at ingest time), and their jobs
    pickle as O(1) :class:`~repro.graphs.store.GraphRef` handles on the
    process backend.
    """
    if target in DATASETS:
        return get_dataset(target, scale=scale)
    path = Path(target)
    if not path.exists():
        raise SystemExit(
            f"unknown dataset/path {target!r}; datasets: {sorted(DATASETS)}"
        )
    if is_store_entry(path):
        return GraphStore(path.parent).open(path.name)
    graph, _ = load_edge_list(path, directed=directed)
    return graph


def _model(name: str, probability: float):
    if name == "ic":
        return IndependentCascade(probability)
    if name == "wc":
        return WeightedCascade()
    if name == "lt":
        return LinearThreshold()
    raise SystemExit(f"unknown model {name!r}; use ic, wc, or lt")


def _algorithm(name: str, probability: float):
    kwargs = {}
    if name in ("mgic", "ddic"):
        kwargs["probability"] = probability
    try:
        return get_algorithm(name, **kwargs)
    except Exception as exc:
        raise SystemExit(
            f"unknown algorithm {name!r}; registered: {registered_algorithms()}"
        ) from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "graph",
        help="dataset name (hep/phy/wiki), graph-store entry dir, or edge-list path",
    )
    parser.add_argument("--scale", type=float, default=None, help="surrogate scale")
    parser.add_argument(
        "--undirected", action="store_true", help="treat an edge-list file as undirected"
    )
    parser.add_argument("--seed", type=int, default=2015, help="RNG seed")
    parser.add_argument(
        "--log-level",
        default="warning",
        help="logging threshold (debug/info/warning/error)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON lines",
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="append typed JSONL run events to PATH",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=None,
        help="simulation backend (default: $REPRO_BACKEND or serial)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the process backend (default: $REPRO_WORKERS)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GetReal: IM strategy selection in competitive networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="summarize a graph")
    _add_common(stats)

    seeds = sub.add_parser("seeds", help="run one IM algorithm")
    _add_common(seeds)
    seeds.add_argument("--algorithm", default="ddic")
    seeds.add_argument("--k", type=int, default=10)
    seeds.add_argument("--probability", type=float, default=0.05, help="IC p")

    getreal = sub.add_parser("getreal", help="run the GetReal pipeline")
    _add_common(getreal)
    getreal.add_argument(
        "--strategies", default="mgic,ddic", help="comma-separated algorithm names"
    )
    getreal.add_argument("--model", default="ic", choices=["ic", "wc", "lt"])
    getreal.add_argument("--groups", type=int, default=2)
    getreal.add_argument("--k", type=int, default=20)
    getreal.add_argument("--rounds", type=int, default=20)
    getreal.add_argument("--probability", type=float, default=0.05, help="IC p")
    getreal.add_argument(
        "--profile-symmetry",
        dest="profile_symmetry",
        choices=sorted(SYMMETRY_MODES),
        default=None,
        help=(
            "payoff-table symmetry mode: 'reduce' simulates only canonical "
            "sorted profiles and fills the rest by player permutation "
            "(default: $REPRO_SYMMETRY or full)"
        ),
    )

    overlap = sub.add_parser("overlap", help="seed overlap of two algorithms")
    _add_common(overlap)
    overlap.add_argument("--first", default="ddic")
    overlap.add_argument("--second", default="mgic")
    overlap.add_argument("--k", type=int, default=20)
    overlap.add_argument("--probability", type=float, default=0.05, help="IC p")

    spread = sub.add_parser("spread", help="Monte-Carlo spread of an algorithm")
    _add_common(spread)
    spread.add_argument("--algorithm", default="ddic")
    spread.add_argument("--model", default="ic", choices=["ic", "wc", "lt"])
    spread.add_argument("--k", type=int, default=20)
    spread.add_argument("--rounds", type=int, default=50)
    spread.add_argument("--probability", type=float, default=0.05, help="IC p")

    compete = sub.add_parser("compete", help="two algorithms head-to-head")
    _add_common(compete)
    compete.add_argument("--first", default="mgic")
    compete.add_argument("--second", default="ddic")
    compete.add_argument("--model", default="ic", choices=["ic", "wc", "lt"])
    compete.add_argument("--k", type=int, default=20)
    compete.add_argument("--rounds", type=int, default=50)
    compete.add_argument("--probability", type=float, default=0.05, help="IC p")

    block = sub.add_parser("block", help="place blockers against a rival campaign")
    _add_common(block)
    block.add_argument("--rival", default="ddic", help="rival's algorithm")
    block.add_argument("--rival-k", type=int, default=10, dest="rival_k")
    block.add_argument("--k", type=int, default=5, help="blocker budget")
    block.add_argument("--model", default="ic", choices=["ic", "wc", "lt"])
    block.add_argument("--rounds", type=int, default=10)
    block.add_argument("--pool", type=int, default=60, help="candidate pool size")
    block.add_argument("--probability", type=float, default=0.05, help="IC p")

    journal = sub.add_parser(
        "journal", help="summarize a JSONL run journal written by --journal"
    )
    journal.add_argument("file", help="path to a .jsonl run journal")

    obs = sub.add_parser("obs", help="observability tooling (trace)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    trace = obs_sub.add_parser(
        "trace", help="render per-run span trees from a journal's span events"
    )
    trace.add_argument("file", help="path to a .jsonl run journal")
    trace.add_argument(
        "--max-children",
        type=int,
        default=20,
        dest="max_children",
        help="per-span child rows before elision",
    )

    experiments = sub.add_parser(
        "experiments",
        help="scenario-matrix orchestrator: run/gate/list (docs/experiments.md)",
    )
    exp_sub = experiments.add_subparsers(dest="experiments_command", required=True)

    exp_run = exp_sub.add_parser(
        "run", help="expand a matrix spec, run every cell, append the trajectory"
    )
    exp_run.add_argument(
        "--matrix", required=True, metavar="SPEC",
        help="path to a JSON matrix spec (see docs/experiments.md)",
    )
    exp_run.add_argument(
        "--output", default="results/experiments", metavar="DIR",
        help="manifest/journal/cells output directory (default: %(default)s)",
    )
    exp_run.add_argument(
        "--no-append", action="store_true",
        help="skip appending the run's entry to the spec's trajectory file "
        "(specs without a 'trajectory' never append)",
    )
    exp_run.add_argument(
        "--log-level", default="warning",
        help="logging threshold (debug/info/warning/error)",
    )

    exp_gate = exp_sub.add_parser(
        "gate",
        help="diff the newest trajectory entry against the stored history",
    )
    exp_gate.add_argument(
        "--matrix", default=None, metavar="SPEC",
        help="matrix spec naming the trajectory (default: read the manifest "
        "written by the last 'experiments run' under --output)",
    )
    exp_gate.add_argument(
        "--trajectory", default=None, metavar="PATH",
        help="gate this trajectory file directly (overrides --matrix)",
    )
    exp_gate.add_argument(
        "--output", default="results/experiments", metavar="DIR",
        help="output directory of the run to gate (default: %(default)s)",
    )
    exp_gate.add_argument(
        "--tolerance", type=float, default=0.2,
        help="allowed fractional speedup regression (default: %(default)s)",
    )
    exp_gate.add_argument(
        "--sigmas", type=float, default=3.0,
        help="pooled-stderr multiplier for equivalence drift (default: %(default)s)",
    )
    exp_gate.add_argument(
        "--time-tolerance", type=float, default=None, dest="time_tolerance",
        help="also gate wall-clock keys at this fractional ceiling "
        "(off by default: CI timing is noisy)",
    )
    exp_gate.add_argument(
        "--log-level", default="warning",
        help="logging threshold (debug/info/warning/error)",
    )

    exp_list = exp_sub.add_parser(
        "list", help="list registered scenario plugins (and a matrix's cells)"
    )
    exp_list.add_argument(
        "--matrix", default=None, metavar="SPEC",
        help="also expand and print this matrix spec's cells",
    )

    # Listed for --help only: main() hands `lint` to repro.lint.cli before
    # parsing, so the linter is imported only when it runs.
    sub.add_parser(
        "lint",
        help="run the reprolint static-analysis rules (see 'repro lint --help')",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])

    args = build_parser().parse_args(argv)

    if args.command == "journal":
        try:
            events = read_journal(args.file)
        except JournalError as exc:
            raise SystemExit(str(exc)) from exc
        print(render_journal_report(events))
        return 0

    if args.command == "obs":
        return _run_obs(args)

    if args.command == "experiments":
        return _run_experiments(args)

    try:
        configure_logging(args.log_level, json=args.log_json)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    journal = RunJournal(args.journal) if args.journal else None
    if journal is None:
        return _run_command(args)
    # get_real journals its own run span; for every other command the CLI
    # brackets the invocation so the journal is never event-less.
    wrap_run = args.command != "getreal"
    attach_journal(journal)
    started = time.perf_counter()
    if wrap_run:
        journal.run_start(
            args.command, argv=[str(a) for a in (argv or sys.argv[1:])]
        )
    try:
        code = _run_command(args)
    except BaseException as exc:
        if wrap_run:
            journal.run_end(
                status="error",
                duration_seconds=time.perf_counter() - started,  # reprolint: disable=RP009
                error=f"{type(exc).__name__}: {exc}",
            )
        raise
    else:
        if wrap_run:
            journal.run_end(
                status="ok",
                duration_seconds=time.perf_counter() - started,  # reprolint: disable=RP009
            )
        return code
    finally:
        detach_journal(journal)
        journal.close()


def _run_obs(args: argparse.Namespace) -> int:
    """``repro obs trace`` — journal-driven, no graph loading."""
    try:
        events = read_journal(args.file, strict=False)
    except JournalError as exc:
        raise SystemExit(str(exc)) from exc
    print(render_trace_tree(events, max_children=args.max_children))
    return 0


def _run_experiments(args: argparse.Namespace) -> int:
    """``repro experiments run|gate|list`` — orchestrator + regression gate."""
    from repro.errors import ExperimentError, GateError, TrajectoryError
    from repro.experiments.gate import gate_trajectory
    from repro.experiments.orchestrator import MatrixSpec, run_matrix
    from repro.experiments.scenarios import registered_scenarios

    if getattr(args, "log_level", None):
        try:
            configure_logging(args.log_level)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc

    if args.experiments_command == "list":
        print(format_table(registered_scenarios(), title="registered scenarios"))
        if args.matrix:
            spec = MatrixSpec.from_file(args.matrix)
            rows = [{"cell": cell.cell_id} for cell in spec.expand()]
            print()
            print(
                format_table(
                    rows,
                    title=f"matrix {spec.name} [{spec.scenario}] "
                    f"({len(rows)} cells)",
                )
            )
        return 0

    if args.experiments_command == "run":
        try:
            spec = MatrixSpec.from_file(args.matrix)
            result = run_matrix(
                spec,
                output_dir=args.output,
                append=not args.no_append and spec.trajectory is not None,
            )
        except (ExperimentError, TrajectoryError) as exc:
            raise SystemExit(str(exc)) from exc
        print(
            format_table(
                result.results_rows,
                title=f"matrix {spec.name} [{spec.scenario}]",
            )
        )
        print(
            f"\n{len(result.results) - len(result.failed)}/"
            f"{len(result.results)} cells ok in "
            f"{result.manifest['total_seconds']}s; manifest: "
            f"{Path(args.output) / 'manifest.json'}"
        )
        if not args.no_append and spec.trajectory is not None:
            print(f"trajectory appended: {spec.trajectory}")
        if result.failed:
            for cell in result.failed:
                print(f"FAILED {cell.cell.cell_id}: {cell.error}")
            return 1
        return 0

    # gate
    trajectory = args.trajectory
    if trajectory is None and args.matrix is not None:
        spec = MatrixSpec.from_file(args.matrix)
        if spec.trajectory is None:
            raise SystemExit(
                f"matrix {spec.name!r} declares no 'trajectory' to gate"
            )
        trajectory = spec.trajectory
    if trajectory is None:
        manifest_path = Path(args.output) / "manifest.json"
        if not manifest_path.exists():
            raise SystemExit(
                "nothing to gate: pass --matrix/--trajectory or run "
                f"'repro experiments run' first (no {manifest_path})"
            )
        manifest = json.loads(manifest_path.read_text())
        trajectory = (manifest.get("matrix") or {}).get("trajectory")
        if not trajectory:
            raise SystemExit(
                f"{manifest_path} records no trajectory; pass --trajectory"
            )
    try:
        report = gate_trajectory(
            trajectory,
            tolerance=args.tolerance,
            sigmas=args.sigmas,
            time_tolerance=args.time_tolerance,
        )
    except (GateError, TrajectoryError) as exc:
        raise SystemExit(str(exc)) from exc
    print(report.render())
    return 0 if report.passed else 1


def _run_command(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, args.scale, directed=not args.undirected)
    # The with-block shuts pooled workers down before interpreter exit;
    # leaking a live ProcessPoolExecutor into atexit races its own
    # cleanup hook (OSError on the wakeup pipe under fork).
    with build_executor(args.backend, args.workers) as executor:
        return _dispatch(args, graph, executor)


def _dispatch(args: argparse.Namespace, graph: DiGraph, executor: Executor) -> int:
    if args.command == "stats":
        print(format_table([summarize(graph).as_row()], title=f"graph: {args.graph}"))
        return 0

    if args.command == "seeds":
        algo = _algorithm(args.algorithm, args.probability)
        selected = algo.select(graph, args.k, rng=args.seed)
        print(f"{algo.name} seeds (k={args.k}): {selected}")
        return 0

    if args.command == "overlap":
        first = _algorithm(args.first, args.probability)
        second = _algorithm(args.second, args.probability)
        s1 = first.select(graph, args.k, rng=args.seed)
        s2 = second.select(graph, args.k, rng=args.seed + 1)
        print(f"Jaccard({first.name}, {second.name}) @k={args.k}: "
              f"{jaccard(s1, s2):.4f}")
        return 0

    if args.command == "spread":
        from repro.cascade.simulate import estimate_spread

        algo = _algorithm(args.algorithm, args.probability)
        model = _model(args.model, args.probability)
        selected = algo.select(graph, args.k, rng=args.seed)
        est = estimate_spread(
            graph,
            model,
            selected,
            args.rounds,
            rng=args.seed,
            executor=executor,
        )
        print(
            f"{algo.name} @k={args.k} under {args.model}: "
            f"{est.mean:.2f} +/- {est.stderr:.2f} "
            f"({args.rounds} simulations)"
        )
        return 0

    if args.command == "compete":
        from repro.cascade.simulate import estimate_competitive_spread

        first = _algorithm(args.first, args.probability)
        second = _algorithm(args.second, args.probability)
        model = _model(args.model, args.probability)
        s1 = first.select(graph, args.k, rng=args.seed)
        s2 = second.select(graph, args.k, rng=args.seed + 1)
        ests = estimate_competitive_spread(
            graph,
            model,
            [s1, s2],
            args.rounds,
            rng=args.seed,
            executor=executor,
        )
        print(
            format_table(
                [
                    {
                        "group": "p1",
                        "strategy": first.name,
                        "spread": ests[0].mean,
                        "stderr": ests[0].stderr,
                    },
                    {
                        "group": "p2",
                        "strategy": second.name,
                        "spread": ests[1].mean,
                        "stderr": ests[1].stderr,
                    },
                ],
                title=f"head-to-head under {args.model} (k={args.k})",
            )
        )
        print(f"seed overlap: {jaccard(s1, s2):.4f}")
        return 0

    if args.command == "block":
        from repro.core.blocking import select_blockers

        rival_algo = _algorithm(args.rival, args.probability)
        model = _model(args.model, args.probability)
        rival_seeds = rival_algo.select(graph, args.rival_k, rng=args.seed)
        result = select_blockers(
            graph,
            model,
            rival_seeds,
            k=args.k,
            rounds=args.rounds,
            candidate_pool=args.pool,
            rng=args.seed,
            executor=executor,
        )
        print(f"rival ({rival_algo.name}, k={args.rival_k}) spread without "
              f"blockers: {result.rival_spread_before:.2f}")
        print(f"rival spread against {args.k} blockers: "
              f"{result.rival_spread_after:.2f} "
              f"({result.reduction:.1%} blocked)")
        print(f"blockers: {result.blockers}")
        return 0

    # getreal
    names = [n.strip() for n in args.strategies.split(",") if n.strip()]
    if len(names) < 2:
        raise SystemExit("--strategies needs at least two algorithm names")
    space = StrategySpace([_algorithm(n, args.probability) for n in names])
    model = _model(args.model, args.probability)
    result = get_real(
        graph,
        model,
        space,
        num_groups=args.groups,
        k=args.k,
        rounds=args.rounds,
        rng=args.seed,
        executor=executor,
        symmetry=args.profile_symmetry,
    )
    print(format_table(result.payoff_table.rows(), title="estimated payoffs"))
    print()
    print(f"equilibrium : {result.describe()}")
    print(f"regret      : {result.regret:.4f}")
    print(f"NE search   : {result.solve_seconds * 1000:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
