"""Meta tests: documentation, packaging, and public-API hygiene."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def _all_modules() -> list[str]:
    names = []
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        # __main__ calls sys.exit(cli.main()) on import, by design.
        if module_info.name.endswith("__main__"):
            continue
        names.append(module_info.name)
    return names


class TestModuleHygiene:
    def test_every_module_imports(self):
        for name in _all_modules():
            importlib.import_module(name)

    def test_every_module_has_docstring(self):
        for name in _all_modules():
            module = importlib.import_module(name)
            assert module.__doc__, f"{name} lacks a module docstring"

    def test_public_classes_and_functions_documented(self):
        import inspect

        for name in _all_modules():
            module = importlib.import_module(name)
            for attr_name in getattr(module, "__all__", []) or []:
                obj = getattr(module, attr_name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    assert obj.__doc__, f"{name}.{attr_name} lacks a docstring"

    def test_top_level_all_is_sorted_into_sections(self):
        # Every __all__ entry resolves and is importable from the package.
        for name in repro.__all__:
            assert hasattr(repro, name)

    def test_py_typed_marker_present(self):
        assert (Path(repro.__file__).parent / "py.typed").exists()


class TestDocumentationFiles:
    @pytest.mark.parametrize(
        "relative",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "docs/architecture.md",
            "docs/algorithms.md",
            "docs/game_theory.md",
            "docs/competitive_model.md",
            "docs/api.md",
            "docs/datasets.md",
            "CONTRIBUTING.md",
            "CHANGELOG.md",
        ],
    )
    def test_doc_exists_and_nontrivial(self, relative):
        path = REPO_ROOT / relative
        assert path.exists(), f"missing {relative}"
        assert len(path.read_text()) > 500

    def test_design_references_existing_benchmarks(self):
        text = (REPO_ROOT / "DESIGN.md").read_text()
        for token in text.split("`"):
            if token.startswith("benchmarks/") and " " not in token:
                assert (REPO_ROOT / token).exists(), token

    def test_readme_examples_exist(self):
        text = (REPO_ROOT / "README.md").read_text()
        for line in text.splitlines():
            if "examples/" in line and ".py" in line:
                for token in line.replace("`", " ").split():
                    if token.startswith("examples/") and token.endswith(".py"):
                        assert (REPO_ROOT / token).exists(), token


MATRICES = REPO_ROOT / "benchmarks" / "matrices"

#: The paper's evaluation artifacts (Section 6), one matrix spec each.
PAPER_ARTIFACTS = [
    "table3", "table4", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
]


class TestBenchmarkCoverage:
    """Every table and figure of the paper has a matrix spec, and its
    scenario is registered; ``benchmarks/`` holds specs, not scripts."""

    @pytest.mark.parametrize("artifact", PAPER_ARTIFACTS)
    def test_paper_experiment_bench_exists(self, artifact):
        from repro.experiments import MatrixSpec, get_scenario

        # from_file validates every axis and that the scenario is registered
        spec = MatrixSpec.from_file(MATRICES / f"{artifact}.json")
        assert spec.name == artifact
        assert callable(get_scenario(spec.scenario))
        assert spec.trajectory is None

    def test_ablation_and_extension_benches_exist(self):
        from repro.experiments import MatrixSpec

        ablations = sorted(MATRICES.glob("ablation_*.json"))
        extensions = sorted(MATRICES.glob("ext_*.json"))
        assert len(ablations) >= 4
        assert len(extensions) >= 6
        for path in ablations + extensions:
            assert MatrixSpec.from_file(path).name == path.stem

    def test_specs_pin_the_reproduction_scale(self):
        from repro.experiments import MatrixSpec

        for path in sorted(MATRICES.glob("*.json")):
            if path.stem in ("smoke", "payoff_sharing"):
                continue
            spec = MatrixSpec.from_file(path)
            pinned = (spec.nodes, spec.rounds, spec.snapshots, spec.seed)
            assert pinned == (1200, 20, 120, 2015), path.name
            assert spec.ic_probability == 0.08, path.name

    def test_table3_covers_the_papers_networks(self):
        from repro.experiments import MatrixSpec

        spec = MatrixSpec.from_file(MATRICES / "table3.json")
        assert spec.datasets == ("hep", "phy", "wiki")

    def test_benchmarks_holds_no_scripts(self):
        assert not list((REPO_ROOT / "benchmarks").rglob("*.py"))
