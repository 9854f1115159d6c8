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
