#!/usr/bin/env python
"""Doc lint: the docs must keep up with the CLI.

Fails (exit 1) when:

- README.md is missing, or has no markdown heading mentioning one of the
  ``python -m repro.cli`` subcommands (headings must contain the
  backticked command name, e.g. ``### `sweep` — ...``);
- docs/architecture.md is missing, or does not mention every pipeline
  stage module it is supposed to document;
- the usage docstring of ``repro.cli`` itself omits a subcommand;
- a ``.py`` file under ``src/``, ``tests/``, ``benchmarks/`` or
  ``scripts/`` names a markdown file that exists neither at the repo
  root nor under ``docs/`` (a dangling doc reference);
- a relative markdown link in README.md or ``docs/*.md`` points at a
  path that does not exist (a dangling link).

Run as ``PYTHONPATH=src python scripts/check_docs.py`` (CI does).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import make_parser  # noqa: E402

#: Trees whose python files may cite markdown docs, and the pattern of a cite.
CODE_TREES = ("src", "tests", "benchmarks", "scripts")
MARKDOWN_NAME = re.compile(r"\b\w[\w./-]*\.md\b")
#: The target of an inline markdown link ``[text](target)``.
LINK_TARGET = re.compile(r"\]\(([^)\s]+)\)")

ARCHITECTURE_MUST_MENTION = [
    "repro/graphs/graph.py",
    "repro/congest/ledger.py",
    "repro/congest/topology.py",
    "repro/core/config.py",
    "repro/core/listing.py",
    "repro/analysis/verification.py",
    "repro/analysis/sweeps.py",
]


def cli_subcommands() -> list:
    parser = make_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return sorted(subparsers.choices)


def dangling_doc_references() -> list:
    """``path:line: NAME`` for each cited markdown name that resolves
    neither at the repo root nor under ``docs/``."""
    found = []
    for tree in CODE_TREES:
        for path in sorted((REPO_ROOT / tree).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), start=1):
                for name in MARKDOWN_NAME.findall(line):
                    if not any(
                        (base / name).is_file()
                        for base in (REPO_ROOT, REPO_ROOT / "docs")
                    ):
                        rel = path.relative_to(REPO_ROOT)
                        found.append(f"{rel}:{lineno}: {name}")
    return found


def dangling_links() -> list:
    """``path:line: TARGET`` for each relative link in README.md or
    ``docs/*.md`` whose target (minus any ``#anchor``) does not exist."""
    found = []
    for path in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]:
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            for target in LINK_TARGET.findall(line):
                relative = target.split("#", 1)[0]
                if not relative or re.match(r"[a-z][a-z0-9+.-]*:", relative):
                    continue  # an in-page anchor or a URL
                if not (path.parent / relative).exists():
                    rel = path.relative_to(REPO_ROOT)
                    found.append(f"{rel}:{lineno}: {target}")
    return found


def main() -> int:
    problems = []
    commands = cli_subcommands()

    readme_path = REPO_ROOT / "README.md"
    if not readme_path.is_file():
        problems.append("README.md is missing")
    else:
        readme = readme_path.read_text(encoding="utf-8")
        for command in commands:
            if not re.search(rf"^#+ .*`{re.escape(command)}`", readme, re.MULTILINE):
                problems.append(
                    f"README.md has no heading for CLI subcommand `{command}`"
                )

    architecture_path = REPO_ROOT / "docs" / "architecture.md"
    if not architecture_path.is_file():
        problems.append("docs/architecture.md is missing")
    else:
        architecture = architecture_path.read_text(encoding="utf-8")
        for module in ARCHITECTURE_MUST_MENTION:
            if module not in architecture:
                problems.append(f"docs/architecture.md does not mention {module}")

    import repro.cli

    usage = repro.cli.__doc__ or ""
    for command in commands:
        if f"``{command}``" not in usage:
            problems.append(f"repro.cli docstring does not document ``{command}``")

    for reference in dangling_doc_references():
        problems.append(f"dangling markdown reference {reference}")

    for link in dangling_links():
        problems.append(f"dangling link {link}")

    if problems:
        for problem in problems:
            print(f"doc-lint: {problem}", file=sys.stderr)
        return 1
    print(
        f"doc-lint: ok ({len(commands)} subcommands documented: {', '.join(commands)})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
