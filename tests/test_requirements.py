"""Every import the library runs at load time is declared.

CI installs only ``requirements.txt``, so a third-party module that
``src/`` imports at module level but the file does not name fails on a
clean runner at ``import repro``.  The check reads the imports from the
source (no import machinery): statements inside functions run lazily
and imports guarded by ``except ImportError`` are optional, so both are
exempt.  Everything else must be stdlib, ``repro`` itself, or declared.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_LAZY = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def declared_requirements() -> set:
    """Distribution names in requirements.txt, as import names."""
    names = set()
    for line in (ROOT / "requirements.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            name = re.split(r"[<>=!~\[; ]", line, maxsplit=1)[0]
            names.add(name.lower().replace("-", "_"))
    return names


def _guards_import_error(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    if caught is None:
        return False
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(
        isinstance(name, ast.Name) and name.id in ("ImportError", "ModuleNotFoundError")
        for name in names
    )


def _load_time_imports(body: List[ast.stmt]) -> Iterator[Tuple[str, int]]:
    """(top-level module, line) of every import ``body`` runs when loaded."""
    for node in body:
        if isinstance(node, _LAZY):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module:
                yield node.module.split(".")[0], node.lineno
        elif isinstance(node, ast.Try):
            if not any(_guards_import_error(h) for h in node.handlers):
                yield from _load_time_imports(node.body)
            for handler in node.handlers:
                yield from _load_time_imports(handler.body)
            yield from _load_time_imports(node.orelse)
            yield from _load_time_imports(node.finalbody)
        else:
            for field in ("body", "orelse", "finalbody"):
                nested = getattr(node, field, None)
                if isinstance(nested, list):
                    yield from _load_time_imports(nested)


def src_imports() -> List[Tuple[str, str, int]]:
    """(module, file, line) for every load-time import under ``src/``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module, line in _load_time_imports(tree.body):
            found.append((module, str(path.relative_to(ROOT)), line))
    return found


def test_every_load_time_import_is_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"} | declared_requirements()
    missing = [
        f"{path}:{line}: {module}"
        for module, path, line in src_imports()
        if module not in allowed
    ]
    assert not missing, "undeclared in requirements.txt:\n" + "\n".join(missing)


def test_the_walker_sees_declared_and_exempt_imports():
    modules = {module for module, _path, _line in src_imports()}
    assert {"numpy", "scipy"} <= modules
    # The guarded msgpack codec and the lazy networkx converters are
    # optional: neither may be required at load time.
    assert "msgpack" not in modules
    assert "networkx" not in modules
