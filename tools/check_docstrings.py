"""Fail on missing docstrings in the core, sim, baselines and analysis layers.

Walks python sources and reports every public definition — module,
class, function, or method — that lacks a docstring.  "Public" means
the name does not start with ``_``; dunder methods, nested functions,
and anything under a private module are exempt.  The gate is 100%: one
missing docstring fails the run, which is what keeps ``docs/API.md``
and the code from drifting apart.

Run from the repo root (CI runs it in the docs job; the tier-1 suite
runs it via ``tests/test_docs.py``):

    python tools/check_docstrings.py                 # default targets
    python tools/check_docstrings.py src/repro/sim   # explicit targets
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The layers whose public surface docs/API.md documents.  The result
#: cache and the vectorized network core are named explicitly even
#: though the directory walks also reach them — listing them here keeps
#: the gate intact if either module ever moves out of its package.
DEFAULT_TARGETS = (
    "src/repro/core",
    "src/repro/core/environment.py",
    "src/repro/core/results.py",
    "src/repro/core/telemetry.py",
    "src/repro/sim",
    "src/repro/sim/netcore.py",
    "src/repro/baselines",
    "src/repro/analysis",
)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Public (qualname, node) pairs at module and class-body level."""
    found: list[tuple[str, ast.AST]] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _is_public(node.name):
                continue
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if _is_public(child.name):
                            found.append((f"{node.name}.{child.name}", child))
    return found


def missing_docstrings(path: Path) -> list[tuple[int, str]]:
    """(line, qualname) for every public definition lacking a docstring."""
    tree = ast.parse(path.read_text(), filename=str(path))
    missing: list[tuple[int, str]] = []
    if ast.get_docstring(tree) is None:
        missing.append((1, "<module>"))
    for qualname, node in _definitions(tree):
        if ast.get_docstring(node) is None:
            missing.append((node.lineno, qualname))
    return missing


def python_files(targets: list[str]) -> list[Path]:
    """Public ``.py`` files under each target directory (or single files).

    Deduplicated: a file named both directly and via a directory walk is
    checked (and reported) once.
    """
    files: list[Path] = []
    seen: set[Path] = set()
    for target in targets:
        root = REPO_ROOT / target
        if root.is_file():
            candidates = [root]
        else:
            candidates = [
                path
                for path in sorted(root.rglob("*.py"))
                if _is_public(path.stem) or path.name == "__init__.py"
            ]
        for path in candidates:
            if path not in seen:
                seen.add(path)
                files.append(path)
    return files


def main(argv: list[str] | None = None) -> int:
    """Check every target; exit nonzero when any docstring is missing."""
    targets = list(argv if argv is not None else sys.argv[1:]) or list(
        DEFAULT_TARGETS
    )
    files = python_files(targets)
    if not files:
        print("no python files found", file=sys.stderr)
        return 1
    checked = 0
    failures = 0
    for path in files:
        gaps = missing_docstrings(path)
        checked += 1
        for lineno, qualname in gaps:
            rel = path.relative_to(REPO_ROOT)
            print(f"{rel}:{lineno}: missing docstring on {qualname}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"{failures} missing docstring(s)", file=sys.stderr)
        return 1
    print(f"checked {checked} file(s): every public definition is documented")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
