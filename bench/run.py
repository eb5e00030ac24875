"""GetReal query benchmark: end-to-end metrics per workload, plus a traced per-layer split.

Run from the repository root (the script sets ``PYTHONPATH=src`` for its
child processes itself):

    python3 bench/run.py                      # every workload, untraced then traced
    python3 bench/run.py --workload hep-ic-r2 --seed 7 --seconds 24 --trace 0
    python3 bench/run.py --smoke              # quick self-test, never for comparisons

Each workload runs in fresh child processes (``bench/child.py``): set-up
samples, then one untraced process that times GetReal queries
(``--trace 0``), or an untraced reference and a traced process on the same
query rngs (``--trace 1``).  Every query is checked; a failed check counts
against the run instead of aborting it.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full document, with provenance, goes to ``--out``.
Exit status: 0 when every query passed, 1 when a query failed, 2 when the
benchmark could not run (for example when ``src/repro`` is absent).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED, WORKLOADS, resolve  # noqa: E402

#: Wall-clock budget of one workload's untraced or traced measurement.
WORKLOAD_BUDGET_S = 170.0

#: Thread pools of numeric libraries are pinned, so the executor's workers
#: are the only parallelism the benchmark measures.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    """The environment of every child: no ``REPRO_*`` switch reaches it."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(dict.fromkeys(_THREAD_VARS, "1"))
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(mode: str, workload: str, seed: int, seconds: float, smoke: bool, deadline: float) -> dict:
    """Run ``child.py`` in its own process group and return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: time budget exhausted before the {mode} run")
    cmd = [
        sys.executable, str(BENCH / "child.py"), "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--seconds", repr(float(seconds)),
    ]
    if smoke:
        cmd.append("--smoke")
    launched = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--launched", repr(launched)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: the {mode} run exceeded its time budget") from None
    finally:
        # Also stops executor workers a crashed child left behind.
        _kill_group(proc.pid)
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: the {mode} run exited with status {proc.returncode}")
    return json.loads(lines[-1])


def digest_mismatches(reference: dict[int, str | None], traced: dict[int, str | None]) -> list[int]:
    """Rngs whose traced payoff tensor is not bit-identical to the untraced one."""
    return sorted(rng for rng, digest in traced.items() if digest is None or reference.get(rng) != digest)


def _failures(queries: list[dict]) -> list[str]:
    return [f"rng {q['rng']}: {problem}" for q in queries for problem in q["problems"]]


def measure_untraced(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S

    def setup_sample() -> float:
        return run_child("setup", name, seed, seconds, smoke, deadline)["setup"]["ready_s"]

    # setup_s is the median of three set-up samples taken before, by and
    # after the timed child, so that one slow phase of a shared machine
    # rarely covers two of them.
    before = setup_sample()
    timed = run_child("timed", name, seed, seconds, smoke, deadline)
    ready = [before, timed["setup"]["ready_s"], setup_sample()]
    queries = timed["queries"]
    times = [q["seconds"] for q in queries]
    return {
        "end_to_end": {
            # The lower quartile, not the median: neighbours on a shared host
            # slow whole stretches of a run down, never speed it up, so the
            # faster queries of a run are the steadier estimate of its cost.
            "query_s": statistics.quantiles(times, n=4, method="inclusive")[0],
            "setup_s": statistics.median(ready),
            "peak_rss_mb": timed["peak_rss_mb"],
        },
        "attempted": len(queries),
        "failed": sum(1 for q in queries if q["problems"]),
        "failures": _failures(queries),
        "setup": timed["setup"],
        "setup_samples_s": ready,
        "query_median_s": statistics.median(times),
        "warmup_s": timed["warmup_s"],
        "queries": queries,
        "versions": timed["versions"],
    }


def measure_traced(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    reference = run_child("reference", name, seed, seconds, smoke, deadline)
    traced = run_child("traced", name, seed, seconds, smoke, deadline)
    failures = _failures(reference["queries"]) + _failures(traced["queries"])
    mismatched = digest_mismatches(
        {q["rng"]: q["digest"] for q in reference["queries"]},
        {q["rng"]: q["digest"] for q in traced["queries"]},
    )
    failures += [f"rng {rng}: traced payoff tensor differs from the untraced one" for rng in mismatched]
    failed = sum(1 for q in reference["queries"] if q["problems"]) + sum(
        1 for q in traced["queries"] if q["problems"] or q["rng"] in mismatched
    )
    setup = traced["setup"]
    layers = {
        **traced["trace"]["layers"],
        "setup.import_s": setup["import_s"],
        "setup.graph_s": setup["graph_s"],
        "setup.executor_s": setup["executor_s"],
        "exec.worker_peak_rss_mb": traced["worker_peak_rss_mb"],
    }
    untraced_s = statistics.median(q["seconds"] for q in reference["queries"])
    traced_s = statistics.median(q["seconds"] for q in traced["queries"])
    return {
        "per_layer": layers,
        "attempted": len(reference["queries"]) + len(traced["queries"]),
        "failed": failed,
        "failures": failures,
        "missing_targets": traced["trace"]["missing_targets"],
        "span_cost_s": traced["trace"]["span_cost_s"],
        "traced_over_untraced_wall": traced_s / untraced_s,
        "setup": setup,
        "queries": {"reference": reference["queries"], "traced": traced["queries"]},
        "versions": traced["versions"],
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree itself.

    Checking for ``.git`` first keeps git from searching the directories
    above the checkout.
    """
    if not (ROOT / ".git").exists():
        return None
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def render(section: dict, units: dict[str, str], samples: int | None) -> list[str]:
    """One line per metric, in BENCHMARK.json order."""
    lines = []
    for metric in sorted(section, key=list(units).index):
        value = section[metric]
        note = f"  (lower quartile of {samples} queries)" if metric == "query_s" and samples else ""
        lines.append(f"  {metric:<34} {value:>14.6g} {units[metric]}{note}")
    return lines


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all, in order")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both")
    parser.add_argument("--out", type=Path, default=BENCH / "results" / "latest.json")
    parser.add_argument("--smoke", action="store_true", help="2 cheap queries; not for comparisons")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}

    results: dict[str, dict] = {}
    try:
        for name in names:
            entry: dict = {
                "params": resolve(name, args.smoke).params(),
                "attempted": 0,
                "failed": 0,
                "failures": [],
            }
            for mode in modes:
                measure = measure_traced if mode else measure_untraced
                part = measure(name, args.seed, args.seconds, args.smoke)
                for total in ("attempted", "failed", "failures"):
                    entry[total] += part.pop(total)
                entry["traced" if mode else "untraced"] = part
            results[name] = entry
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    metrics: dict[str, dict[str, object]] = {}
    report = []
    for name, entry in results.items():
        report.append(f"== {name} (seed {args.seed}) ==")
        for mode, key, section in ((0, "untraced", "end_to_end"), (1, "traced", "per_layer")):
            if key not in entry:
                continue
            values = entry[key][section]
            samples = len(entry[key]["queries"]) if mode == 0 else None
            report += render(values, units, samples)
            for metric in wanted[mode]:
                if metric not in values:
                    print(f"bench: {name} did not report {metric}", file=sys.stderr)
                    continue
                label = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[label] = {"value": values[metric], "unit": units[metric]}
        report += [f"  FAILED {failure}" for failure in entry["failures"]]

    versions = next(iter(results.values()))[("untraced" if 0 in modes else "traced")]["versions"]
    document = {
        "provenance": {
            "commit": git_commit(),
            **versions,
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
        },
        "workloads": results,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=1) + "\n")

    attempted = sum(entry["attempted"] for entry in results.values())
    failed = sum(entry["failed"] for entry in results.values())
    print("\n".join(report))
    print(f"full results: {args.out}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
