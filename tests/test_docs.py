"""The documentation layer stays present and internally consistent."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(name, module)
    spec.loader.exec_module(module)
    return module


def _load_check_links():
    return _load_tool("check_links")


class TestDocsExist:
    def test_readme_present_with_required_sections(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for required in (
            "pip install -e",
            "python -m pytest -x -q",
            "python -m repro sweep",
            "src/repro/core/",
            "baselines",
        ):
            assert required in readme, f"README.md is missing {required!r}"

    def test_benchmarks_doc_present(self):
        text = (REPO_ROOT / "docs" / "BENCHMARKS.md").read_text()
        for required in (
            "Phase-offset dedup",
            "lcm early-stop",
            "Memory cap",
            "BENCH_kernel_sweep.json",
            "lower bounds",
            "446",
            "BENCH_store_sweep.json",
            "BENCH_service_cache.json",
            "BENCH_network_discovery.json",
            "network-discovery scaling curve",
            "cohort",
            "result cache",
            "API.md",
        ):
            assert required in text, f"docs/BENCHMARKS.md is missing {required!r}"

    def test_architecture_doc_present(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        for required in (
            "Layer map",
            "data flow",
            "ScheduleStore",
            "_BUILDERS",
            "The serving layer",
            "ResultStore",
            "read_roots",
            "The network simulator",
            "cohort reduction",
            "bit-identical",
            "Extension recipe",
            "Deviations from the paper",
            "One kernel, one reference",
            "SCALAR_JOINT_LIMIT",
            "_scan_block",
            "differential harness",
        ):
            assert required in text, f"docs/ARCHITECTURE.md is missing {required!r}"

    def test_api_doc_present(self):
        text = (REPO_ROOT / "docs" / "API.md").read_text()
        for required in (
            "build_schedule",
            "ttr_sweep",
            "verify_guarantee",
            "SweepRunner",
            "ScheduleStore",
            "ResultStore",
            "SweepCheckpoint",
            "pair_query",
            "read_roots",
            "repro serve",
            "repro netsim",
            "netcore",
            "simulate_population",
            "summarize_discovery",
            "Workloads",
            "Theorem 3",
            "SCALAR_JOINT_LIMIT",
            "plan_tiles",
            "effective_workers",
            "has_warm_table",
        ):
            assert required in text, f"docs/API.md is missing {required!r}"

    def test_tuning_doc_present(self):
        text = (REPO_ROOT / "docs" / "TUNING.md").read_text()
        for required in (
            "Sweep dispatch",
            "auto-tuned tile plan",
            "One lane",
            "Sparse-tile cap",
            "Worker budgeting",
            "sweep shape",
            "SCALAR_JOINT_LIMIT",
            "results-dir",
            "checkpoint-dir",
            "crossover",
            "bit-identical",
            "Worked invocations",
            "BENCHMARKS.md",
            "mmap threshold",
            "64 KiB tile",
            "BENCH_stream_sweep.json",
            "no warm-table branch",
        ):
            assert required in text, f"docs/TUNING.md is missing {required!r}"

    def test_observability_doc_present(self):
        text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text()
        for required in (
            "Span taxonomy",
            "stream.tile_assembly",
            "runner.worker_task",
            "store.schedule",
            "store.result",
            "netsim.assemble",
            "Zero overhead when disabled",
            "bit-identical",
            "PYTHONHASHSEED",
            "final stdout line",
            "merged worker roots overlap",
            "netsim.simulate",
            "test_telemetry_overhead",
            "TUNING.md",
            "sweep.kernel",
            "sweep.classes",
            "sweep.block_rows",
        ):
            assert required in text, f"docs/OBSERVABILITY.md is missing {required!r}"

    def test_tuning_doc_links_observability(self):
        text = (REPO_ROOT / "docs" / "TUNING.md").read_text()
        assert "OBSERVABILITY.md" in text, (
            "docs/TUNING.md does not link OBSERVABILITY.md"
        )

    def test_architecture_doc_links_observability(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        assert "OBSERVABILITY.md" in text, (
            "docs/ARCHITECTURE.md does not link OBSERVABILITY.md"
        )

    def test_benchmarks_doc_links_tuning(self):
        text = (REPO_ROOT / "docs" / "BENCHMARKS.md").read_text()
        assert "TUNING.md" in text, "docs/BENCHMARKS.md does not link TUNING.md"

    def test_readme_links_docs_pages(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for page in (
            "docs/ARCHITECTURE.md",
            "docs/API.md",
            "docs/BENCHMARKS.md",
            "docs/TUNING.md",
            "docs/OBSERVABILITY.md",
        ):
            assert page in readme, f"README.md does not link {page}"


class TestLinkChecker:
    def test_repo_docs_have_no_broken_links(self, capsys):
        module = _load_check_links()
        assert module.main() == 0, capsys.readouterr().err

    def test_detects_broken_link(self, tmp_path):
        module = _load_check_links()
        page = tmp_path / "page.md"
        page.write_text(
            "[ok](page.md) [gone](missing.md) [web](https://example.com) "
            "[anchor](#here)\n"
        )
        broken = module.broken_links(page)
        assert [target for _, target in broken] == ["missing.md"]

    def test_titled_links_still_checked(self, tmp_path):
        module = _load_check_links()
        page = tmp_path / "page.md"
        page.write_text('[methodology](MISSING.md "how tables regenerate")\n')
        broken = module.broken_links(page)
        assert [target for _, target in broken] == ["MISSING.md"]

    def test_whitespace_only_target_ignored(self, tmp_path):
        module = _load_check_links()
        page = tmp_path / "page.md"
        page.write_text("[empty]( ) and [fine](page.md)\n")
        assert module.broken_links(page) == []

    def test_anchor_suffix_stripped(self, tmp_path):
        module = _load_check_links()
        (tmp_path / "other.md").write_text("x\n")
        page = tmp_path / "page.md"
        page.write_text("[sect](other.md#part)\n")
        assert module.broken_links(page) == []


class TestDocstringCoverage:
    def test_core_and_sim_fully_documented(self, capsys):
        module = _load_tool("check_docstrings")
        assert module.main([]) == 0, capsys.readouterr().err

    def test_detects_missing_docstrings(self, tmp_path):
        module = _load_tool("check_docstrings")
        page = tmp_path / "mod.py"
        page.write_text(
            '"""Documented module."""\n'
            "def documented():\n"
            '    """Yes."""\n'
            "def bare():\n"
            "    pass\n"
            "def _private():\n"
            "    pass\n"
            "class Thing:\n"
            '    """Yes."""\n'
            "    def method(self):\n"
            "        pass\n"
        )
        gaps = module.missing_docstrings(page)
        assert [q for _, q in gaps] == ["bare", "Thing.method"]

    def test_missing_module_docstring_reported(self, tmp_path):
        module = _load_tool("check_docstrings")
        page = tmp_path / "mod.py"
        page.write_text("x = 1\n")
        assert [q for _, q in module.missing_docstrings(page)] == ["<module>"]
