"""Meta tests: documentation, packaging, and public-API hygiene."""

import ast
import importlib
import pkgutil
import re
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


def _resolve(package: str, dotted: str) -> object:
    """``package.dotted`` as an object: attributes first, then submodules."""
    obj = importlib.import_module(package)
    path = package
    for part in dotted.split("."):
        path = f"{path}.{part}"
        if not hasattr(obj, part):
            importlib.import_module(path)  # ModuleNotFoundError if neither
        obj = getattr(obj, part)
    return obj


def _api_table_names() -> list[tuple[str, str]]:
    """``(package, name)`` for every backticked name in the first column of
    docs/api.md's tables; a strategy's registry names are left out."""
    pairs = []
    package = None
    for line in (REPO_ROOT / "docs" / "api.md").read_text().splitlines():
        if line.startswith("## "):
            match = re.search(r"\(`(repro[\w.]*)`\)", line)
            package = match.group(1) if match else None
        elif line.startswith("|") and package is not None:
            first = line.split("|")[1]
            first = re.sub(r"\((`[a-z]+`/?)+\)", "", first)
            for token in re.findall(r"`([^`]+)`", first):
                pairs.append((package, re.sub(r"\(.*\)$", "", token)))
    return pairs


#: Flags whose value is a strategy name (or a comma-separated list of them).
STRATEGY_FLAG = re.compile(
    r"--(?:strategies|algorithm|first|second|rival)[ =]([a-z][a-z0-9_,]*)"
)


class TestApiReferenceMatchesPackage:
    """docs/api.md lists only names the package has, and the docs give the
    CLI only strategy names the registry knows."""

    def test_table_names_resolve_in_their_package(self):
        pairs = _api_table_names()
        assert len({package for package, _ in pairs}) >= 6
        missing = []
        for package, name in pairs:
            try:
                if name.startswith("repro."):
                    importlib.import_module(name)
                else:
                    _resolve(package, name)
            except (AttributeError, ImportError):
                missing.append(f"{package}: {name}")
        assert not missing, missing

    def test_registry_names_in_api_tables_are_registered(self):
        from repro.algorithms import registered_algorithms

        text = (REPO_ROOT / "docs" / "api.md").read_text()
        groups = re.findall(r"\(((?:`[a-z]+`/?)+)\)", text)
        names = {name for group in groups for name in re.findall(r"`(\w+)`", group)}
        assert names, "api.md lists no registry names"
        assert names <= set(registered_algorithms()), names - set(registered_algorithms())

    def test_cli_strategy_names_in_docs_are_registered(self):
        from repro.algorithms import registered_algorithms

        registered = set(registered_algorithms())
        paths = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
        used = {}
        for path in paths:
            for match in STRATEGY_FLAG.finditer(path.read_text()):
                for name in match.group(1).split(","):
                    used.setdefault(name, path.name)
        assert used, "no --strategies/--algorithm example found"
        unknown = {name: where for name, where in used.items() if name not in registered}
        assert not unknown, unknown


def _repro_references(tree: ast.AST) -> list[tuple[str, str, int]]:
    """``(package, dotted name, line)`` for every name an example takes from
    :mod:`repro`: ``from repro... import x`` and ``repro.a.b`` chains."""
    aliases = {}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    # ``import repro.x`` binds ``repro``; ``as y`` binds ``repro.x``.
                    aliases[alias.asname or "repro"] = alias.name if alias.asname else "repro"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            for alias in node.names:
                refs.append((node.module, alias.name, node.lineno))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = []
        inner = node
        while isinstance(inner, ast.Attribute):
            chain.append(inner.attr)
            inner = inner.value
        if isinstance(inner, ast.Name) and inner.id in aliases:
            refs.append((aliases[inner.id], ".".join(reversed(chain)), node.lineno))
    return refs


class TestExamplesUseLiveNames:
    """Every ``repro`` name an example uses exists, so an example that no
    smoke test runs cannot fall behind a deleted or renamed name."""

    @pytest.mark.parametrize(
        "script", sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py"))
    )
    def test_example_names_resolve(self, script):
        tree = ast.parse((REPO_ROOT / "examples" / script).read_text())
        refs = _repro_references(tree)
        assert refs, f"{script} uses nothing from repro"
        missing = []
        for package, name, line in refs:
            try:
                _resolve(package, name)
            except (AttributeError, ImportError):
                missing.append(f"line {line}: {package}.{name}")
        assert not missing, missing

    def test_scan_catches_a_dead_name(self):
        tree = ast.parse(
            "import repro\nfrom repro.game import gone_solver\nrepro.GoneSelector()\n"
        )
        refs = _repro_references(tree)
        assert ("repro.game", "gone_solver", 2) in refs
        assert ("repro", "GoneSelector", 3) in refs
        with pytest.raises(ImportError):
            _resolve("repro", "GoneSelector")


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
