"""True-positive and true-negative fixtures for each project rule (RP010–RP013)."""

from repro.lint.project.callgraph import CallGraph
from repro.lint.project.facts import extract_facts
from repro.lint.project.rules import (
    NondeterminismSources,
    PickleSafety,
    Project,
    RngProvenance,
    SharedStateMutation,
)
from repro.lint.project.symbols import SymbolTable


def build_project(sources: dict[str, str]) -> Project:
    modules = {
        mod: extract_facts(src, mod, f"{mod.replace('.', '/')}.py")
        for mod, src in sources.items()
    }
    symbols = SymbolTable(modules)
    return Project(
        modules=modules, symbols=symbols, callgraph=CallGraph(symbols)
    )


class TestRP010RngProvenance:
    def test_ambient_rng_reachable_from_job(self):
        project = build_project(
            {
                "pkg.util": (
                    "def helper():\n"
                    "    return default_rng()\n"
                ),
                "pkg.jobs": (
                    "from pkg.util import helper\n"
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        return helper()\n"
                ),
            }
        )
        findings = RngProvenance().check(project)
        assert len(findings) == 1
        assert findings[0].code == "RP010"
        assert "helper" in findings[0].message
        assert "pkg.jobs:SpreadJob.run" in findings[0].trace
        assert "pkg.util:helper" in findings[0].trace

    def test_seeded_default_rng_is_clean(self):
        project = build_project(
            {
                "pkg.jobs": (
                    "class SpreadJob:\n"
                    "    def run(self, seq):\n"
                    "        return default_rng(seq)\n"
                )
            }
        )
        assert RngProvenance().check(project) == []

    def test_unreachable_ambient_rng_is_clean(self):
        project = build_project(
            {
                "pkg.util": "def helper():\n    return default_rng()\n",
                "pkg.jobs": (
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        return 1\n"
                ),
            }
        )
        assert RngProvenance().check(project) == []

    def test_module_level_ambient_rng_flagged(self):
        project = build_project(
            {"pkg.mod": "import numpy as np\n_R = np.random.default_rng()\n"}
        )
        findings = RngProvenance().check(project)
        assert len(findings) == 1
        assert "import time" in findings[0].message

    def test_suppression_honoured(self):
        project = build_project(
            {
                "pkg.jobs": (
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        return default_rng()  # reprolint: disable=RP010\n"
                )
            }
        )
        assert RngProvenance().check(project) == []


class TestRP011NondeterminismSources:
    def test_wall_clock_feeding_key_builder(self):
        project = build_project(
            {
                "pkg.keys": (
                    "import time\n"
                    "def params_token(params):\n"
                    "    return (tuple(params), time.time())\n"
                )
            }
        )
        findings = NondeterminismSources().check(project)
        assert [f.code for f in findings] == ["RP011"]
        assert "time.time" in findings[0].message

    def test_wall_clock_off_sensitive_paths_is_clean(self):
        project = build_project(
            {
                "pkg.mod": (
                    "import time\n"
                    "def banner():\n"
                    "    return time.time()\n"
                )
            }
        )
        assert NondeterminismSources().check(project) == []

    def test_id_key_flagged_anywhere(self):
        project = build_project(
            {
                "pkg.mod": (
                    "def memo(cache, obj):\n"
                    "    cache[id(obj)] = obj\n"
                )
            }
        )
        findings = NondeterminismSources().check(project)
        assert len(findings) == 1
        assert "id(...)" in findings[0].message

    def test_bare_id_call_is_clean(self):
        project = build_project(
            {"pkg.mod": "def label(obj):\n    return id(obj)\n"}
        )
        assert NondeterminismSources().check(project) == []

    def test_set_iteration_on_job_path(self):
        project = build_project(
            {
                "pkg.jobs": (
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        touched = set()\n"
                    "        for v in touched:\n"
                    "            generator.random()\n"
                ),
            }
        )
        findings = NondeterminismSources().check(project)
        assert len(findings) == 1
        assert "unordered set" in findings[0].message

    def test_sorted_set_iteration_is_clean(self):
        project = build_project(
            {
                "pkg.jobs": (
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        touched = set()\n"
                    "        for v in sorted(touched):\n"
                    "            generator.random()\n"
                ),
            }
        )
        assert NondeterminismSources().check(project) == []


class TestRP012PickleSafety:
    def test_lambda_into_job_payload(self):
        project = build_project(
            {
                "pkg.mod": (
                    "class SpreadJob:\n"
                    "    def run(self):\n"
                    "        return 1\n"
                    "def submit():\n"
                    "    return SpreadJob(fn=lambda x: x)\n"
                )
            }
        )
        findings = PickleSafety().check(project)
        assert len(findings) == 1
        assert "lambda" in findings[0].message

    def test_local_closure_into_job_payload(self):
        project = build_project(
            {
                "pkg.mod": (
                    "def submit():\n"
                    "    def local_fn(x):\n"
                    "        return x\n"
                    "    return SpreadJob(fn=local_fn)\n"
                )
            }
        )
        findings = PickleSafety().check(project)
        assert len(findings) == 1
        assert "closure" in findings[0].message

    def test_live_generator_into_job_payload(self):
        project = build_project(
            {
                "pkg.mod": (
                    "def submit(seed):\n"
                    "    rng = default_rng(seed)\n"
                    "    return SpreadJob(rng=rng)\n"
                )
            }
        )
        findings = PickleSafety().check(project)
        assert len(findings) == 1
        assert "Generator" in findings[0].message

    def test_plain_data_payload_is_clean(self):
        project = build_project(
            {
                "pkg.mod": (
                    "def fn(x):\n"
                    "    return x\n"
                    "def submit(seed_seq):\n"
                    "    return SpreadJob(fn=fn, data=[1, 2], seq=seed_seq)\n"
                )
            }
        )
        assert PickleSafety().check(project) == []

    def test_unpicklable_field_annotation(self):
        project = build_project(
            {
                "pkg.mod": (
                    "class BadJob:\n"
                    "    rng: Generator\n"
                    "    def run(self):\n"
                    "        return 1\n"
                )
            }
        )
        findings = PickleSafety().check(project)
        assert len(findings) == 1
        assert "rng" in findings[0].message

    def test_plain_field_annotations_are_clean(self):
        project = build_project(
            {
                "pkg.mod": (
                    "class GoodJob:\n"
                    "    n: int\n"
                    "    name: str\n"
                    "    def run(self):\n"
                    "        return 1\n"
                )
            }
        )
        assert PickleSafety().check(project) == []


class TestRP013SharedStateMutation:
    def test_unlocked_write_reachable_from_job(self):
        project = build_project(
            {
                "pkg.mod": (
                    "_CACHE = {}\n"
                    "def remember(key, value):\n"
                    "    _CACHE[key] = value\n"
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        remember(1, 2)\n"
                )
            }
        )
        findings = SharedStateMutation().check(project)
        assert len(findings) == 1
        assert "_CACHE" in findings[0].message
        assert "SpreadJob.run" in findings[0].trace

    def test_locked_write_is_clean(self):
        project = build_project(
            {
                "pkg.mod": (
                    "import threading\n"
                    "_CACHE = {}\n"
                    "_LOCK = threading.Lock()\n"
                    "def remember(key, value):\n"
                    "    with _LOCK:\n"
                    "        _CACHE[key] = value\n"
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        remember(1, 2)\n"
                )
            }
        )
        assert SharedStateMutation().check(project) == []

    def test_write_off_job_paths_is_clean(self):
        project = build_project(
            {
                "pkg.mod": (
                    "_CACHE = {}\n"
                    "def configure(key, value):\n"
                    "    _CACHE[key] = value\n"
                )
            }
        )
        assert SharedStateMutation().check(project) == []

    def test_mutator_method_on_shared_list(self):
        project = build_project(
            {
                "pkg.mod": (
                    "_SEEN = []\n"
                    "class SpreadJob:\n"
                    "    def run(self, generator):\n"
                    "        _SEEN.append(1)\n"
                )
            }
        )
        findings = SharedStateMutation().check(project)
        assert len(findings) == 1
        assert "_SEEN" in findings[0].message

