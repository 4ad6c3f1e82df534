"""The runtime needs numpy and the standard library, nothing else."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gmtlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gmtlab"}


def foreign_imports(source: str) -> list:
    """Top-level names of the modules that `source` imports from outside ALLOWED.

    Every import counts, also one inside a function; relative imports stay
    in the package.
    """
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_guard_sees_every_kind_of_import():
    source = ("import scipy.special\nfrom numba import njit\nfrom . import phase\n"
              "import numpy as np, os\ndef f():\n    from scipy import fft\n")
    assert foreign_imports(source) == ["scipy.special", "numba", "scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_only_stdlib_and_numpy(path):
    assert foreign_imports(path.read_text()) == []
