"""Sanity tests of the public API surface and the shipped documentation."""

import importlib
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    "repro.graphs",
    "repro.sim",
    "repro.exploration",
    "repro.core",
    "repro.lower_bounds",
    "repro.baselines",
    "repro.analysis",
    "repro.runtime",
    "repro.experiments",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_exist(package_name):
    """Every name in a package's __all__ must actually be importable."""
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", ()):
        assert hasattr(package, name), f"{package_name}.__all__ lists missing {name}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_packages_have_docstrings(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and len(package.__doc__) > 40


class TestShippedDocs:
    def test_design_doc_covers_all_experiments(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for exp in range(1, 13):
            assert f"EXP-{exp:02d}" in design

    def test_experiments_doc_records_verdicts(self):
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        assert "reproduced" in experiments
        assert "Thm 3.1" in experiments or "Theorem 3.1" in experiments

    def test_readme_quickstart_is_current(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "simulate_rendezvous" in readme
        assert "pip install -e ." in readme

    def test_examples_exist(self):
        examples = list((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 3
