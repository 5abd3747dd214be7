"""Documentation guarantees: runnable doctests + drift checks.

Two promises made by the docs satellite are enforced here (and again in the
CI ``docs`` job, which also runs ``tools/check_docs.py`` standalone):

* the usage examples in the public package docstrings (``repro.engine``,
  ``repro.sweep``, ``repro.backend``, ``repro.layout`` and the reader
  classes) actually run, and
* ``docs/cli.md`` matches the live CLI ``--help`` output in both
  directions, documents every ``REPRO_*`` env var, no markdown link in
  ``README.md`` / ``docs/`` is broken, and every backticked ``repro.…`` name
  there resolves.
"""

import doctest
import importlib
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))

import check_docs  # noqa: E402  (tools/ is not a package)

DOCTEST_MODULES = [
    "repro.backend",
    "repro.engine",
    "repro.sweep",
    "repro.layout",
    "repro.layout.reader",
    "repro.layout.indexed",
]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_public_docstring_examples_run(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False,
                             optionflags=doctest.NORMALIZE_WHITESPACE)
    assert result.attempted > 0, f"{module_name} has no doctest examples"
    assert result.failed == 0, (
        f"{result.failed}/{result.attempted} doctest example(s) in "
        f"{module_name} failed — run `python -m doctest` on it for details")


class TestDocsDrift:
    def test_cli_reference_matches_help_output(self):
        assert check_docs.check_cli_docs(REPO_ROOT) == []

    def test_every_env_var_documented(self):
        assert check_docs.check_env_vars(REPO_ROOT) == []

    def test_markdown_links_resolve(self):
        assert check_docs.check_links(REPO_ROOT) == []

    def test_documented_api_names_resolve(self):
        assert check_docs.check_api_names(REPO_ROOT) == []

    def test_checker_detects_missing_flag(self, tmp_path):
        """The drift check itself must actually bite."""
        docs = tmp_path / "docs"
        docs.mkdir()
        (tmp_path / "src" / "repro").mkdir(parents=True)
        (docs / "cli.md").write_text(
            "## campaign-report\n\nonly `--store` documented\n")
        errors = check_docs.check_cli_docs(str(tmp_path))
        assert any("--thumbnail-width" in error for error in errors)
        assert any("no '## generate' section" in error for error in errors)

    def test_checker_detects_phantom_flag(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "cli.md").write_text("## experiments\n\n`--no-such-flag` "
                                     "`--skip-ablations` `--preset` `--seed`\n")
        errors = check_docs.check_cli_docs(str(tmp_path))
        assert any("--no-such-flag" in error and "does not report" in error
                   for error in errors)

    def test_checker_detects_an_env_row_nothing_reads(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "cli.md").write_text(
            "| variable | meaning |\n|---|---|\n"
            "| `REPRO_READ` | read by the product |\n"
            "| `REPRO_SEED` | read by the benchmarks |\n"
            "| `REPRO_GONE` | read by nothing |\n")
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "mod.py").write_text(
            '"""Mentions REPRO_GONE."""\nimport os\n'
            "os.environ.get('REPRO_READ')\n")
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "conftest.py").write_text(
            "import os\nos.environ.get('REPRO_SEED')\n")
        errors = check_docs.check_env_vars(str(tmp_path))
        assert len(errors) == 1 and "REPRO_GONE" in errors[0], errors

    def test_checker_detects_broken_link(self, tmp_path):
        (tmp_path / "README.md").write_text("[gone](docs/missing.md)\n")
        errors = check_docs.check_links(str(tmp_path))
        assert any("broken link" in error for error in errors)

    def test_checker_detects_a_deleted_api_name(self, tmp_path):
        docs = tmp_path / "docs"
        docs.mkdir()
        (tmp_path / "README.md").write_text(
            "Plot with `repro.optics.bossung_curves(result)`.\n")
        (docs / "guide.md").write_text(
            "`repro.layout.load_layout_file` and `python -m repro.cli`\n")
        errors = check_docs.check_api_names(str(tmp_path))
        assert errors == ["README.md: `repro.optics.bossung_curves` does not "
                          "resolve (deleted or renamed?)"]
