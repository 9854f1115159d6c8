"""Checks on the package source, the scripts, the tests and the benchmark, not on their numbers."""
import ast
import pathlib
import subprocess
import sys

import pytest

from conftest import src_env

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = [
    *sorted(p for p in (ROOT / "src" / "gopp").glob("*.py") if p.name != "__init__.py"),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "benchmark").glob("*.py")),
]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"
    ]
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nnp.eye\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def defined_names(tree: ast.Module) -> list[str]:
    """The functions, classes and constants a module defines at its top level."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [t.id for t in targets if isinstance(t, ast.Name)]
    return defined


def read_names(trees) -> set[str]:
    """Every name the modules load by name or read as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_` names (functions, classes, constants) that no module reads.

    A name counts as read where it is loaded by name or as an attribute, in
    its own module or in another one that imports it.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = read_names(trees.values())
    return [f"{name}: {d}" for name, tree in trees.items() for d in defined_names(tree)
            if d.startswith("_") and not d.startswith("__") and d not in read]


def unread_public_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """Public module-level names of the `package` modules that no source in `readers` reads."""
    read = read_names(ast.parse(source) for source in readers)
    return [f"{name}: {d}" for name, source in package.items()
            for d in defined_names(ast.parse(source)) if not d.startswith("_") and d not in read]


def test_unread_private_name_is_found():
    sources = {
        "a.py": "_A = 1\n_B: int = 2\ndef _f():\n    return _A\nclass _C:\n    pass\n",
        "b.py": "from a import _f\n_f()\n__all__ = []\n",
    }
    assert unread_private_names(sources) == ["a.py: _B", "a.py: _C"]


def test_no_unread_private_names_in_the_package():
    package = sorted((ROOT / "src" / "gopp").glob("*.py"))
    assert unread_private_names({p.name: p.read_text() for p in package}) == []


def test_unread_public_name_is_found():
    package = {"a.py": "A = 1\nB: int = 2\ndef f():\n    return A\nclass C:\n    pass\n_D = 3\n"}
    readers = [*package.values(), "import a\nfrom a import C\nC(a.B)\n"]
    assert unread_public_names(package, readers) == ["a.py: f"]
    assert unread_public_names(package, list(package.values())) == ["a.py: B", "a.py: f", "a.py: C"]


def test_no_unread_public_names_in_the_package():
    # A public leftover of a refactor: defined in src/gopp and read by no source of the repo.
    package = {p.name: p.read_text() for p in sorted((ROOT / "src" / "gopp").glob("*.py"))}
    assert unread_public_names(package, [p.read_text() for p in SOURCES]) == []


def test_import_gopp_loads_every_library_module():
    # benchmark/run.py counts `import gopp` in its set-up time as numpy and every gopp module.
    code = "import sys, gopp; print(*sorted(m for m in sys.modules if m.startswith('gopp.')))"
    done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        f"gopp.{name}" for name in ("bench", "bm", "certificate", "gpm", "linops", "model")
    ]


def test_bm_vs_gpm_script_runs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bm_vs_gpm.py"), "--n", "10", "--m", "8", "--d", "2"],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "power method:" in done.stdout
    assert "(p=5)" in done.stdout  # the ascent's default p = 2d + 1 at d = 2
