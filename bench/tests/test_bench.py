"""Tests of the GetReal query benchmark.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import repro  # noqa: E402
from repro.cascade.simulate import SpreadEstimate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_query(rng: int = 3) -> object:
    graph = repro.hep(scale=0.02)
    model = repro.IndependentCascade(0.05)
    strategies = [repro.MixGreedy(model, 8), repro.DegreeDiscount(0.05)]
    return repro.get_real(graph, model, strategies, num_groups=2, k=5, rounds=6, rng=rng)


# --------------------------------------------------------------------------- #
# smoke mode: every metric of BENCHMARK.json, with its unit
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory: pytest.TempPathFactory) -> tuple[dict, dict]:
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


def test_smoke_emits_every_metric_with_its_unit(smoke_run: tuple[dict, dict]) -> None:
    result, _ = smoke_run
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in WORKLOADS:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            reported = result["metrics"][f"{workload}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert math.isfinite(reported["value"])
        assert result["metrics"][f"{workload}.cache.hits"]["value"] == 0


def test_smoke_document_records_provenance(smoke_run: tuple[dict, dict]) -> None:
    _, document = smoke_run
    provenance = document["provenance"]
    for key in ("commit", "python", "numpy", "nproc", "seed"):
        assert key in provenance
    for name, entry in document["workloads"].items():
        assert entry["params"]["name"] == name
        assert entry["untraced"]["setup"]["workers"] <= provenance["nproc"]
        assert entry["traced"]["missing_targets"] == []


def test_benchmark_names_the_driver_workloads() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_child_environment_is_clean(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    env = run.child_env()
    assert not [key for key in env if key.startswith("REPRO_")]
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert env["OMP_NUM_THREADS"] == env["OPENBLAS_NUM_THREADS"] == env["MKL_NUM_THREADS"] == "1"


def test_fails_without_the_program(tmp_path: Path) -> None:
    """Only BENCHMARK.json and bench/: non-zero exit and no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hep-ic-r2", "--smoke", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --------------------------------------------------------------------------- #
# correctness checks fire on hand-corrupted results
# --------------------------------------------------------------------------- #


def _game(
    means: dict[tuple[int, int], tuple[float, float]],
    kind: str,
    probabilities: list[float],
    pure_index: int | None = None,
    samples: int = 6,
) -> SimpleNamespace:
    return SimpleNamespace(
        kind=kind,
        pure_index=pure_index,
        mixture=SimpleNamespace(probabilities=probabilities),
        payoff_table=SimpleNamespace(
            estimates={
                profile: tuple(SpreadEstimate(mean=m, std=1.0, samples=samples) for m in pair)
                for profile, pair in means.items()
            }
        ),
    )


#: Strategy 1 strictly dominates strategy 0 (n = 100).
DOMINANT = {(0, 0): (10.0, 10.0), (0, 1): (5.0, 50.0), (1, 0): (50.0, 5.0), (1, 1): (30.0, 30.0)}


def _corrupt_estimates(result: object, profile: tuple[int, int], **changes: object) -> SimpleNamespace:
    estimates = dict(result.payoff_table.estimates)
    estimates[profile] = tuple(dataclasses.replace(est, **changes) for est in estimates[profile])
    return SimpleNamespace(
        kind=result.kind,
        pure_index=result.pure_index,
        mixture=result.mixture,
        payoff_table=SimpleNamespace(estimates=estimates),
    )


@pytest.fixture(scope="module")
def real_result() -> object:
    return _tiny_query()


def _problems(result: object, n: int = 100, rounds: int = 6) -> list[str]:
    return checks.check_query(result, num_nodes=n, z=2, r=2, rounds=rounds)


def test_real_result_passes(real_result: object) -> None:
    n = repro.hep(scale=0.02).num_nodes
    assert _problems(real_result, n=n) == []


def test_consistent_synthetic_answers_pass() -> None:
    assert _problems(_game(DOMINANT, "pure", [0.0, 1.0], pure_index=1)) == []


@pytest.mark.parametrize(
    ("make", "expected"),
    [
        (lambda r: _game(DOMINANT, "pure", [0.7, 0.7], pure_index=1), "distribution"),
        (lambda r: _game({p: m for p, m in DOMINANT.items() if p != (0, 1)}, "pure", [0.0, 1.0], 1),
         "missing"),
        (lambda r: _corrupt_estimates(r, (0, 0), mean=1e9), "outside"),
        (lambda r: _game({**DOMINANT, (0, 0): (60.0, 60.0)}, "pure", [0.0, 1.0], 1), "ownership"),
        (lambda r: _corrupt_estimates(r, (1, 1), samples=2), "samples"),
        (lambda r: _game(DOMINANT, "pure", [1.0, 0.0], pure_index=0), "profitable deviation"),
        (lambda r: _game(DOMINANT, "pure", [0.0, 1.0], pure_index=0), "does not match"),
        (lambda r: _game(DOMINANT, "mixed", [0.5, 0.5]), "regret"),
        (lambda r: _game(DOMINANT, "correlated", [0.0, 1.0]), "unknown equilibrium kind"),
    ],
)
def test_each_check_fires(real_result: object, make, expected: str) -> None:
    n = repro.hep(scale=0.02).num_nodes if expected in {"outside", "samples"} else 100
    problems = _problems(make(real_result), n=n)
    assert any(expected in problem for problem in problems), problems


def test_traced_tensor_must_match_bit_for_bit() -> None:
    reference = {1: "aa", 2: "bb", 3: "cc"}
    assert run.digest_mismatches(reference, {1: "aa", 2: "bb", 3: "cc"}) == []
    assert run.digest_mismatches(reference, {1: "aa", 2: "bx", 3: None}) == [2, 3]


def test_symmetric_regret_is_zero_at_a_mixed_equilibrium() -> None:
    # Hawk-dove: against a 1/2-1/2 rival both actions earn 1.
    tensor = checks.payoff_tensor(
        _game({(0, 0): (0.0, 0.0), (0, 1): (2.0, 1.0), (1, 0): (1.0, 2.0), (1, 1): (1.0, 1.0)},
              "mixed", [0.5, 0.5]).payoff_table.estimates,
        2,
        2,
    )
    assert checks.symmetric_regret(tensor, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)


# --------------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------------- #


def _traced_query(targets: dict[str, str], rng: int) -> tuple[tracer.Tracer, list[tracer.Span], dict]:
    """One tiny query through *targets*; each test passes its own *rng*, so no
    selection is served from the process-wide selection cache."""
    traced = tracer.Tracer()
    original = repro.get_real
    traced.install(targets)
    try:
        before = tracer.registry_totals()
        _tiny_query(rng=rng)
        delta = tracer.registry_delta(before, tracer.registry_totals())
    finally:
        traced.uninstall()
    assert repro.get_real is original
    return traced, traced.take(), delta


def test_child_spans_never_exceed_their_parent() -> None:
    _, spans, _ = _traced_query(tracer.LAYER_TARGETS, rng=11)
    assert {s.name for s in spans} == set(tracer.LAYER_TARGETS.values())
    for span in spans:
        assert span.self_seconds >= -1e-9
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    roots = [s for s in spans if s.parent < 0]
    assert [s.name for s in roots] == ["getreal"]


def test_missing_wrap_target_drops_only_its_own_metrics() -> None:
    targets = {
        ("repro.cascade.snapshots:SnapshotOracle.no_such_method" if span == "cascade.oracle" else t): span
        for t, span in tracer.LAYER_TARGETS.items()
    }
    traced, spans, delta = _traced_query(targets, rng=12)
    assert traced.missing == ["cascade.oracle"]
    metrics = tracer.layer_metrics(spans, delta, 1, traced.installed)
    dropped = set(tracer.METRICS) - set(metrics)
    assert dropped == {name for name, (needs, _, _) in tracer.METRICS.items() if "cascade.oracle" in needs}
    assert "cascade.oracle_s" in dropped and "algorithms.select_s" in metrics


def test_every_per_layer_metric_has_a_source() -> None:
    produced = set(tracer.METRICS) | {
        "setup.import_s", "setup.graph_s", "setup.executor_s", "warmup_s",
        "exec.worker_peak_rss_mb", "trace.overhead_frac",
    }
    assert {m["name"] for m in SPEC["per_layer"]} == produced


# --------------------------------------------------------------------------- #
# compare tool
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    ("base", "new", "expected"),
    [
        ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "improved"),
        ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "regressed"),
        ([1.0, 1.01, 0.99, 1.0], [1.01, 1.0, 0.99, 1.02], "unchanged"),
        ([1.0, 1.5, 0.7, 1.2], [1.0, 1.4, 0.8, 1.1], "unresolved"),
        ([1.0, 1.0], [0.5, 0.5], "unresolved"),
    ],
)
def test_compare_verdicts(base: list[float], new: list[float], expected: str) -> None:
    assert compare.verdict(base, new, 0.1, "lower") == expected


def test_compare_reads_run_documents(tmp_path: Path) -> None:
    def document(query_s: float, failed: int) -> dict:
        return {
            "workloads": {
                "hep-ic-r2": {
                    "failed": failed,
                    "untraced": {"end_to_end": {"query_s": query_s, "setup_s": 0.5, "peak_rss_mb": 80.0}},
                }
            }
        }

    paths = []
    for i, (query_s, failed) in enumerate([(3.0, 0), (3.1, 0), (2.9, 0), (3.0, 0), (3.05, 1), (2.95, 0)]):
        path = tmp_path / f"run{i}.json"
        path.write_text(json.dumps(document(query_s, failed)))
        paths.append(path)
    rows = {row["metric"]: row["verdict"] for row in compare.compare(paths[:3], paths[3:])}
    assert rows == {
        "query_s": "unchanged",
        "setup_s": "unchanged",
        "peak_rss_mb": "unchanged",
        "failed_queries": "regressed",
    }
