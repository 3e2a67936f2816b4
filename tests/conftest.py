import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from whdetect.coset import realize_presentation
from whdetect.words import make_presentation


ROOT = Path(__file__).resolve().parent.parent


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a Python child process with this checkout's ``src`` first on its path."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=300,
    )


@functools.lru_cache(maxsize=None)
def group(gen_names: tuple, relator_texts: tuple):
    """Realize a presentation, cached across the whole test session."""
    return realize_presentation(make_presentation(list(gen_names), list(relator_texts)))


def cyclic_group(m: int):
    return group(("a",), (f"a^{m}",))


def dicyclic_group(ell: int):
    return group(("a", "x"), (f"a^{2 * ell}", f"x^2 a^{-ell}", "x^-1 a x a"))


def binary_polyhedral_group(p: int):
    return group(("a", "b"), (f"a^{p} b^-3", f"a^{p} b^-1 a^-1 b^-1 a^-1"))


def dihedral_group(k: int):
    return group(("r", "s"), (f"r^{k}", "s^2", "s r s r"))


@pytest.fixture
def q8():
    return dicyclic_group(2)


@pytest.fixture
def trivial_group():
    return group((), ())
