#!/usr/bin/env python
"""Repository lint gate.

Runs ``ruff check`` (configured in ``pyproject.toml``) when ruff is
installed — that is what CI does after ``pip install ruff`` — plus a
stricter docstring pass (the pydocstyle ``D1xx`` "missing docstring"
subset) scoped to the packages whose inter-process protocols and
on-disk formats live in prose: ``repro.runtime``, ``repro.server`` and
``repro.bench``.  In offline environments
without ruff it falls back to byte-compiling every Python tree, which
still catches syntax errors, so the gate always has teeth and
``python scripts/lint.py`` passes or fails for the same code everywhere.

Either way it also enforces the lazy-import rule with the standard
library's ``ast``: no module under ``src/repro`` imports networkx or scipy
outside a function, so ``import repro`` and every compile path load
neither.
"""

from __future__ import annotations

import ast
import compileall
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Iterator, List

TARGETS = ("src", "tests", "benchmarks", "examples", "scripts")

#: Packages where every public module/class/function/method must carry a
#: docstring (ruff pydocstyle D100-D104 + D106; magic methods and
#: ``__init__`` are documented via their class docstrings instead).
DOCSTRING_TARGETS = ("src/repro/runtime", "src/repro/server", "src/repro/bench")
DOCSTRING_RULES = "D100,D101,D102,D103,D104,D106"

#: Third-party packages that ``src/repro`` may import only inside a function.
LAZY_IMPORTS = ("networkx", "scipy")


def _eager_imports(nodes: Iterable[ast.AST]) -> Iterator[ast.stmt]:
    """Import statements among ``nodes`` that run when the module is imported."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        else:
            yield from _eager_imports(ast.iter_child_nodes(node))


def lazy_import_problems(root: Path) -> List[str]:
    """One line per module-level import of a :data:`LAZY_IMPORTS` package."""
    problems = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for statement in _eager_imports(tree.body):
            if isinstance(statement, ast.Import):
                modules = [alias.name for alias in statement.names]
            else:
                modules = [statement.module or ""] if statement.level == 0 else []
            for module in modules:
                if module.split(".")[0] in LAZY_IMPORTS:
                    problems.append(
                        f"{path.relative_to(root)}:{statement.lineno}: module-level import "
                        f"of {module}; import it inside the function that needs it"
                    )
    return problems


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    problems = lazy_import_problems(root)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    targets = [str(root / target) for target in TARGETS if (root / target).exists()]
    if shutil.which("ruff"):
        status = subprocess.call(["ruff", "check", *targets], cwd=root)
        if status:
            return status
        return subprocess.call(
            [
                "ruff",
                "check",
                "--extend-select",
                DOCSTRING_RULES,
                *[str(root / target) for target in DOCSTRING_TARGETS],
            ],
            cwd=root,
        )
    print("ruff not installed; falling back to a syntax-only gate", file=sys.stderr)
    ok = all(
        compileall.compile_dir(target, quiet=1, force=False) for target in targets
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
