#!/usr/bin/env python
"""Documentation drift checks: CLI reference, env-var table, markdown links,
API names.

The documentation suite promises four things that rot silently if nothing
enforces them; this script enforces all four and exits non-zero on any
violation (run by the CI ``docs`` job and by ``tests/test_docs.py``):

1. **CLI reference completeness** (``docs/cli.md``): every subcommand of
   ``repro.cli`` must have its own ``## <command>`` section, every flag the
   subcommand's ``--help`` output reports must appear in that section, and —
   the other direction — every ``--flag`` a section mentions must actually
   exist on that subcommand.  Flags are extracted from the *live*
   ``format_help()`` text, so adding, renaming or removing an option without
   touching the docs fails CI.
2. **Environment-variable table**: every ``REPRO_*`` variable referenced
   anywhere under ``src/repro`` must be documented in ``docs/cli.md``, and
   the other direction — every variable the table has a row for must be
   read under ``src/repro``, ``bench/`` or ``benchmarks/`` (a string
   constant there spells its exact name), so a deleted variable cannot keep
   its row.
3. **Markdown links**: every relative link in ``README.md`` and
   ``docs/*.md`` must resolve to an existing file (external http(s) links
   are not fetched — the check stays offline and deterministic).
4. **API names**: every dotted ``repro.…`` name inside a backticked span of
   ``README.md`` and ``docs/*.md`` must resolve — the longest importable
   module prefix is imported and the rest looked up with ``getattr`` — so a
   deleted or renamed function cannot stay documented.

Usage::

    PYTHONPATH=src python tools/check_docs.py [--repo-root PATH]
"""

from __future__ import annotations

import argparse
import ast
import glob
import importlib
import os
import re
import sys
from typing import Dict, List, Set

FLAG_PATTERN = re.compile(r"--[a-z][a-z0-9-]*")
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
ENV_PATTERN = re.compile(r"REPRO_[A-Z_]+")
ENV_ROW_PATTERN = re.compile(r"^\| `(REPRO_[A-Z_]+)`", re.MULTILINE)
#: Where a documented variable may be read: the product and its benchmarks.
ENV_READER_DIRS = (os.path.join("src", "repro"), "bench", "benchmarks")
CODE_SPAN_PATTERN = re.compile(r"`([^`\n]+)`")
API_NAME_PATTERN = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")
#: Help-text boilerplate that mentions flags of *other* commands (examples,
#: cross-references) is fine; these never need documenting as flags.
IGNORED_FLAGS = {"--help"}


def repo_root_default() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cli_reference() -> Dict[str, Set[str]]:
    """Subcommand -> flags, extracted from the live ``--help`` output."""
    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    reference: Dict[str, Set[str]] = {}
    for name, subparser in subparsers.choices.items():
        flags = set(FLAG_PATTERN.findall(subparser.format_help()))
        reference[name] = flags - IGNORED_FLAGS
    return reference


def documented_sections(cli_md: str) -> Dict[str, Set[str]]:
    """``## <command>`` section -> the flags its text mentions."""
    sections: Dict[str, Set[str]] = {}
    current = None
    for line in cli_md.splitlines():
        heading = re.match(r"##\s+`?([a-z][a-z0-9-]*)`?\s*$", line)
        if heading:
            current = heading.group(1)
            sections.setdefault(current, set())
        elif line.startswith("#"):
            current = None
        elif current is not None:
            sections[current].update(FLAG_PATTERN.findall(line))
    return sections


def check_cli_docs(root: str) -> List[str]:
    path = os.path.join(root, "docs", "cli.md")
    if not os.path.exists(path):
        return [f"missing {path}"]
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    sections = documented_sections(text)
    errors: List[str] = []
    for command, flags in sorted(cli_reference().items()):
        if command not in sections:
            errors.append(f"docs/cli.md: no '## {command}' section")
            continue
        for flag in sorted(flags - sections[command]):
            errors.append(
                f"docs/cli.md: section '{command}' is missing flag {flag} "
                f"(present in `repro.cli {command} --help`)")
        for flag in sorted(sections[command] - flags - IGNORED_FLAGS):
            errors.append(
                f"docs/cli.md: section '{command}' documents {flag}, which "
                f"`repro.cli {command} --help` does not report")
    return errors


def check_env_vars(root: str) -> List[str]:
    path = os.path.join(root, "docs", "cli.md")
    if not os.path.exists(path):
        return []  # already reported by check_cli_docs
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    documented = set(ENV_PATTERN.findall(text))
    used: Set[str] = set()
    for source in glob.glob(os.path.join(root, "src", "repro", "**", "*.py"),
                            recursive=True):
        with open(source, "r", encoding="utf-8") as handle:
            used.update(ENV_PATTERN.findall(handle.read()))
    read: Set[str] = set()
    for directory in ENV_READER_DIRS:
        for source in glob.glob(os.path.join(root, directory, "**", "*.py"),
                                recursive=True):
            with open(source, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=source)
            read.update(node.value for node in ast.walk(tree)
                        if isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and ENV_PATTERN.fullmatch(node.value))
    return [f"docs/cli.md: environment variable {name} (referenced under "
            f"src/repro) is undocumented"
            for name in sorted(used - documented)] + [
        f"docs/cli.md: the environment table documents {name}, which "
        f"nothing under src/repro, bench/ or benchmarks/ reads"
        for name in sorted(set(ENV_ROW_PATTERN.findall(text)) - read)]


def markdown_documents(root: str) -> List[str]:
    return [os.path.join(root, "README.md")] + sorted(
        glob.glob(os.path.join(root, "docs", "*.md")))


def check_links(root: str) -> List[str]:
    errors: List[str] = []
    for document in markdown_documents(root):
        if not os.path.exists(document):
            errors.append(f"missing {document}")
            continue
        with open(document, "r", encoding="utf-8") as handle:
            text = handle.read()
        for target in LINK_PATTERN.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = os.path.normpath(os.path.join(
                os.path.dirname(document), target.split("#")[0]))
            if not os.path.exists(resolved):
                errors.append(
                    f"{os.path.relpath(document, root)}: broken link "
                    f"-> {target}")
    return errors


def resolves(name: str) -> bool:
    """Import the longest importable module prefix of the dotted ``name``,
    then ``getattr`` the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attribute in parts[cut:]:
                value = getattr(value, attribute)
        except AttributeError:
            return False
        return True
    return False


def check_api_names(root: str) -> List[str]:
    errors: List[str] = []
    for document in markdown_documents(root):
        if not os.path.exists(document):
            continue  # already reported by check_links
        with open(document, "r", encoding="utf-8") as handle:
            text = handle.read()
        names = {name for span in CODE_SPAN_PATTERN.findall(text)
                 for name in API_NAME_PATTERN.findall(span)}
        for name in sorted(names):
            if not resolves(name):
                errors.append(
                    f"{os.path.relpath(document, root)}: `{name}` does not "
                    f"resolve (deleted or renamed?)")
    return errors


def run_all(root: str) -> List[str]:
    return (check_cli_docs(root) + check_env_vars(root) + check_links(root)
            + check_api_names(root))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo-root", default=repo_root_default())
    arguments = parser.parse_args(argv)
    errors = run_all(arguments.repo_root)
    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    if not errors:
        print("docs checks passed: CLI reference, env vars, links, "
              "API names")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
