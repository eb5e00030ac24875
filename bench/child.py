"""One workload in one fresh process: set up, warm up, then time or trace.

``bench/run.py`` starts this script with a clean environment and reads the
JSON object it prints as the last line of stdout.  Modes:

* ``setup``     -- set up and exit (extra set-up samples);
* ``timed``     -- time queries 0, 1, ... with tracing off until the next
  query would overrun ``--seconds`` (at least ``MIN_QUERIES``);
* ``reference`` -- run the traced queries' rngs untraced, for the
  bit-identity check and the untraced wall times;
* ``traced``    -- wrap the layer callables and report per-layer metrics.

Every query's result is checked (``checks.py``); a query that raises or
fails a check is reported, never fatal.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import TRACED_QUERIES, WARMUP_OFFSET, Workload, build, resolve

#: The checkout's sources: the benchmark measures this copy of repro only.
SRC = Path(__file__).resolve().parent.parent / "src"

#: A timed run always measures at least this many queries.
MIN_QUERIES = 3

#: Timed queries in smoke mode, whatever ``--seconds`` says.
SMOKE_QUERIES = 2


def _max_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Session:
    """A set-up workload: graph, model, strategies and executor."""

    def __init__(self, workload: Workload, launched: float) -> None:
        started = time.monotonic()
        # Imported here, not at module top, so that import_s covers numpy.
        import numpy
        import repro
        from repro.exec import Executor
        from repro.graphs.datasets import get_dataset

        import checks
        import tracer

        imported = time.monotonic()
        if SRC not in Path(repro.__file__).resolve().parents:
            raise SystemExit(f"repro was imported from {repro.__file__}, not from {SRC}")
        self.graph = get_dataset(workload.dataset, workload.scale)
        built = time.monotonic()
        self.executor = Executor(workload.backend, workload.workers)
        self.model, self.strategies = build(workload, self.executor)
        ready = time.monotonic()
        self.workload = workload
        self.repro, self.checks, self.tracer = repro, checks, tracer
        self.setup = {
            "ready_s": ready - launched,
            "import_s": imported - started,
            "graph_s": built - imported,
            "executor_s": ready - built,
            "nodes": self.graph.num_nodes,
            "arcs": self.graph.num_edges,
            "backend": self.executor.backend_name,
            "workers": self.executor.workers,
        }
        self.versions = {"python": platform.python_version(), "numpy": numpy.__version__}

    def query(self, rng: int) -> dict[str, object]:
        """Run and check one GetReal query; the record never raises."""
        checks, tracer = self.checks, self.tracer
        w = self.workload
        z, r = len(self.strategies), w.num_groups
        before = tracer.registry_totals()
        started = time.perf_counter()
        try:
            # Looked up on the module at call time, so a traced run goes
            # through the tracer's wrapper.
            result = self.repro.get_real(
                self.graph,
                self.model,
                self.strategies,
                num_groups=r,
                k=w.k,
                rounds=w.rounds,
                rng=rng,
                executor=self.executor,
            )
        except Exception:
            return {
                "rng": rng,
                "seconds": time.perf_counter() - started,
                "problems": ["query raised: " + traceback.format_exc(limit=8)],
                "digest": None,
                "registry": tracer.registry_delta(before, tracer.registry_totals()),
            }
        seconds = time.perf_counter() - started
        delta = tracer.registry_delta(before, tracer.registry_totals())
        problems = checks.check_query(
            result, num_nodes=self.graph.num_nodes, z=z, r=r, rounds=w.rounds
        )
        if delta.get("cache.hits", 0) > 0:
            problems.append(f"{delta['cache.hits']:.0f} selection cache hits in a timed query")
        try:
            digest = checks.tensor_digest(checks.payoff_tensor(result.payoff_table.estimates, z, r))
        except KeyError:
            digest = None
        return {
            "rng": rng,
            "seconds": seconds,
            "kind": result.kind,
            "problems": problems,
            "digest": digest,
            "registry": delta,
        }

    def warm_up(self, seed: int) -> float:
        """The untimed first query: lazy imports, pools and caches settle."""
        return float(self.query(self.workload.warmup_rng(seed))["seconds"])

    def close(self) -> None:
        self.executor.close()


def run_timed(session: Session, seed: int, seconds: float, smoke: bool) -> list[dict[str, object]]:
    records: list[dict[str, object]] = []
    started = time.perf_counter()
    for index in range(WARMUP_OFFSET):
        records.append(session.query(session.workload.query_rng(seed, index)))
        if smoke:
            if len(records) == SMOKE_QUERIES:
                break
            continue
        typical = statistics.median(float(r["seconds"]) for r in records)
        if len(records) >= MIN_QUERIES and time.perf_counter() - started + typical > seconds:
            break
    return records


def run_traced(session: Session, seed: int) -> tuple[list[dict[str, object]], dict[str, object]]:
    tracer = session.tracer
    traced = tracer.Tracer()
    traced.install()
    try:
        warmup_s = session.warm_up(seed)
        span_cost = tracer.span_cost_seconds()
        records, per_query = [], []
        for index in range(TRACED_QUERIES):
            traced.take()
            record = session.query(session.workload.query_rng(seed, index))
            spans = traced.take()
            per_query.append(
                {
                    **tracer.layer_metrics(
                        spans, record["registry"], session.executor.workers, traced.installed
                    ),
                    "trace.overhead_frac": len(spans) * span_cost / float(record["seconds"]),
                }
            )
            record["spans"] = len(spans)
            records.append(record)
    finally:
        traced.uninstall()
    layers = tracer.median_metrics(per_query)
    layers["warmup_s"] = warmup_s
    return records, {"layers": layers, "missing_targets": traced.missing, "span_cost_s": span_cost}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "timed", "reference", "traced"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--launched", type=float, required=True, help="parent's time.monotonic()")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    session = Session(resolve(args.workload, args.smoke), args.launched)
    out: dict[str, object] = {"setup": session.setup, "versions": session.versions}
    try:
        if args.mode == "timed":
            out["warmup_s"] = session.warm_up(args.seed)
            out["queries"] = run_timed(session, args.seed, args.seconds, args.smoke)
        elif args.mode == "reference":
            out["warmup_s"] = session.warm_up(args.seed)
            out["queries"] = [
                session.query(session.workload.query_rng(args.seed, i))
                for i in range(TRACED_QUERIES)
            ]
        elif args.mode == "traced":
            out["queries"], out["trace"] = run_traced(session, args.seed)
    finally:
        session.close()
    for record in out.get("queries", []):
        record["cache_hits"] = record.pop("registry").get("cache.hits", 0.0)
    out["peak_rss_mb"] = _max_rss_mb(resource.RUSAGE_SELF)
    # Pool workers have exited and been reaped once the executor is closed.
    out["worker_peak_rss_mb"] = _max_rss_mb(resource.RUSAGE_CHILDREN)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
