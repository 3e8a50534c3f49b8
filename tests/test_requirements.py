"""Every import the library runs at load time is declared.

CI installs only ``requirements.txt``, so a third-party module that
``src/`` imports at module level but the file does not name fails on a
clean runner at ``import repro``.  The check reads the imports from the
source (no import machinery): statements inside functions run lazily
and imports guarded by ``except ImportError`` are optional, so both are
exempt.  Everything else must be stdlib, ``repro`` itself, or declared.

The same walker finds module-level imports a module never uses: they
mislead a reader about what the module depends on.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The directories whose code may import names from ``src/`` modules.
CODE = ("src", "tests", "benchmarks", "perfbench", "scripts", "examples")

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


def _load_time_import_nodes(
    body: List[ast.stmt], optional: bool = False
) -> Iterator[Tuple[ast.stmt, bool]]:
    """Every import statement ``body`` runs when loaded, with whether an
    ``except ImportError`` guards it (an optional import)."""
    for node in body:
        if isinstance(node, _LAZY):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, optional
        elif isinstance(node, ast.Try):
            guarded = optional or any(_guards_import_error(h) for h in node.handlers)
            yield from _load_time_import_nodes(node.body, guarded)
            for handler in node.handlers:
                yield from _load_time_import_nodes(handler.body, optional)
            yield from _load_time_import_nodes(node.orelse, optional)
            yield from _load_time_import_nodes(node.finalbody, optional)
        else:
            for field in ("body", "orelse", "finalbody"):
                nested = getattr(node, field, None)
                if isinstance(nested, list):
                    yield from _load_time_import_nodes(nested, optional)


def _load_time_imports(body: List[ast.stmt]) -> Iterator[Tuple[str, int]]:
    """(top-level module, line) of every required import ``body`` runs
    when loaded."""
    for node, optional in _load_time_import_nodes(body):
        if optional:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif node.level == 0 and node.module:
            yield node.module.split(".")[0], node.lineno


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
    assert "numpy" in modules
    # SciPy (expander decompositions) and the networkx converters are
    # imported inside the functions that use them: never at load time.
    assert "scipy" not in modules
    assert "networkx" not in modules


def test_listing_and_serving_never_load_scipy():
    """Only expander decompositions need SciPy; ``import repro``, a
    Theorem 1.3 run and a serve ingest with a listing read run without
    it (it would cost each of them ~25 MB of resident memory)."""
    script = textwrap.dedent(
        """
        import sys

        import repro
        from repro.graphs.generators import erdos_renyi
        from repro.serve import CliqueService
        from repro.stream import UpdateBatch

        graph = erdos_renyi(60, 0.2, seed=1)
        assert repro.list_cliques(graph, 3, model="congested-clique").num_cliques
        service = CliqueService(graph, ps=(3,))
        absent = sorted(set(range(60)) - set(graph.neighbors(0)) - {0})[:3]
        service.ingest(UpdateBatch.inserts([(0, v) for v in absent]))
        with service.read() as epoch:
            assert epoch.listing_result(3).num_cliques
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _string_annotation_names(tree: ast.AST) -> set:
    """Names inside quoted annotations (``-> "Future[Response]"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def _unused_names(
    tree: ast.Module, module: str, imported_from: set
) -> Iterator[Tuple[str, int]]:
    """(name, line) of each load-time import of ``module`` that it never
    uses and that no ``(module, name)`` of ``imported_from`` re-exports."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _string_annotation_names(tree)
    for node, _optional in _load_time_import_nodes(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and (module, name) not in imported_from:
                yield name, node.lineno


def unused_imports() -> List[str]:
    """``file:line: name`` of every unused load-time import under
    ``src/``; a name any code of the repo imports from its module counts
    as used.  A package ``__init__`` is its package's export list, so it
    is exempt."""
    imported_from = set()
    for path in (path for top in CODE for path in (ROOT / top).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                imported_from |= {(node.module, alias.name) for alias in node.names}
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for name, line in _unused_names(
            ast.parse(path.read_text(), filename=str(path)),
            _module_name(path),
            imported_from,
        )
    ]


def test_no_unused_imports():
    unused = unused_imports()
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_the_unused_scan_flags_only_unused_names():
    tree = ast.parse(
        "import os, sys\n"
        "from typing import Dict, List\n"
        "from concurrent.futures import Future\n"
        "args: Dict = sys.argv\n"
        "def submit() -> 'Future[int]': ...\n"
    )
    # os is re-exported, sys used, Dict and the quoted Future annotate.
    assert list(_unused_names(tree, "pkg.mod", {("pkg.mod", "os")})) == [("List", 2)]
