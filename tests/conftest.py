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
    """Run a Python child process with the caller's ``PYTHONPATH`` first on its
    path and this checkout's ``src`` after it, so that a child imports the
    package the suite itself runs against (``tests/mutants.py`` runs it
    against a mutated copy)."""
    path = [os.environ.get("PYTHONPATH", ""), str(ROOT / "src")]
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


# groups of several generators that the catalog lacks: an abelian one, and
# one where the generator c is central and a and x are not
Z2_Z6 = (("a", "b"), ("a^2", "b^6", "a b a^-1 b^-1"))
Z3_Q8 = (
    ("c", "a", "x"),
    ("c^3", "a^4", "x^2 a^-2", "x^-1 a x a", "c a c^-1 a^-1", "c x c^-1 x^-1"),
)


@pytest.fixture
def q8():
    return dicyclic_group(2)


@pytest.fixture
def trivial_group():
    return group((), ())
