"""A SHA-256 digest of ``wh1_general`` outcomes over fixed coefficient systems.

Every input is a named finite group and a coefficient system, and its
outcome is either the invariant factors :func:`whdetect.whitehead.wh1_general`
returns or the message of the :class:`CoefficientError` it raises.  Each
outcome is one line ``name|CoefficientSystem repr|outcome``, the outcome
being the tuple of invariant factors or ``CoefficientError: <message>``,
and the digest is one SHA-256 over the lines, each ending in a newline.  It
is pinned here, so a change to the Wh1 route that claims the same outcomes
can be checked against it.

The inputs, in this order, every one deterministic:

- every ``builtin_groups(60)`` presentation with each of the five
  coefficient groups of the benchmark (``BENCH_GAMMAS``), under the trivial
  action and under every action of the generators by signs +-1 that is not
  trivial, consistent or not;
- the named actions of ``NON_DIAGONAL``, permutations, rotations and
  unipotent matrices, two of them inconsistent;
- ``dicyclic_4000`` with Z/2, Z and Z/2 + Z under the trivial action and
  with Z under the three sign actions that are not trivial.

Run ``PYTHONPATH=src python tests/wh1_digest.py`` to print the digest of
the full set, 1,179 inputs (under 1 s on a 2-vCPU host), and compare it
with the pin; it exits 1 when they differ.  ``--sample`` does the same for
the seeded sample of about a tenth of the inputs that
``tests/test_whitehead.py`` pins.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import random
import sys
from typing import Iterable, Iterator

from whdetect.catalog import builtin_groups, get_preset
from whdetect.coset import FiniteGroupRealization, realize_presentation
from whdetect.whitehead import CoefficientError, CoefficientSystem, wh1_general
from whdetect.words import make_presentation

FULL = "a0bdae401571e8517f58a7976418ee4cba97dc794d7048f7343d527dcb83dc6d"
SAMPLE = "459cfa07ef36b7d7722cef7a75e7e40557fe5ec1686f2bb5d3c5cd06b448a19f"
SAMPLE_SEED, SAMPLE_SHARE = 23, 0.1

BENCH_GAMMAS = ((2,), (0,), (6,), (0, 4), (2, 2))

Action = tuple[tuple[tuple[int, ...], ...], ...]
Input = tuple[str, FiniteGroupRealization, CoefficientSystem]


def _group(gens: list[str], relators: list[str]) -> FiniteGroupRealization:
    return realize_presentation(make_presentation(gens, relators))


def _dihedral(k: int) -> FiniteGroupRealization:
    return _group(["r", "s"], [f"r^{k}", "s^2", "s r s r"])


def _cyclic(n: int) -> FiniteGroupRealization:
    return _group(["a"], [f"a^{n}"])


def perm(p: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The matrix sending the i-th generator of Gamma to the p[i]-th."""
    return tuple(tuple(int(p[i] == j) for j in range(len(p))) for i in range(len(p)))


def sign_actions(n_gens: int, rank: int) -> list[Action]:
    """Every action of n_gens generators by scalars +-1 on a rank-r Gamma
    except the trivial one, in ``itertools.product`` order."""
    return [
        tuple(tuple(tuple(e * (i == j) for j in range(rank)) for i in range(rank)) for e in v)
        for v in itertools.product((1, -1), repeat=n_gens)
        if -1 in v
    ]


# (name, group, invariant factors, action): actions that are not diagonal,
# and two inputs that must be refused
NON_DIAGONAL: list[tuple[str, FiniteGroupRealization, tuple[int, ...], Action]] = [
    # S3 permuting three coordinates
    *[
        (f"S3-{name}^3", _dihedral(3), (f,) * 3, (perm((1, 2, 0)), perm((0, 2, 1))))
        for name, f in (("Z3", 3), ("Z6", 6), ("Z", 0))
    ],
    # D4 and D6 rotating the square and the hexagonal lattice
    ("D4-Z^2", _dihedral(4), (0, 0), (((0, -1), (1, 0)), ((1, 0), (0, -1)))),
    ("D6-Z^2", _dihedral(6), (0, 0), (((0, -1), (1, 1)), ((0, 1), (1, 0)))),
    # two sign characters on Z/3 + Z/4: the classes give Z/2, Z/6 and Z/4
    ("D4-Z3+Z4", _dihedral(4), (3, 4), (((1, 0), (0, -1)), ((-1, 0), (0, 1)))),
    # a unipotent automorphism of Z/2 + Z/4
    *[(f"C{n}-Z2+Z4", _cyclic(n), (2, 4), (((1, 0), (2, 1)),)) for n in (2, 4, 6)],
    # the Frobenius group of order 21 permuting seven points; a -> a^-1,
    # b -> b^-1 is no automorphism of it, so the cycle matrices must multiply
    # in the order the relations give them to match the oracle
    (
        "F21-Z2^7",
        _group(["a", "b"], ["a^7", "b^3", "b^-1 a b a^-2"]),
        (2,) * 7,
        (perm(tuple((i + 1) % 7 for i in range(7))), perm(tuple(2 * i % 7 for i in range(7)))),
    ),
    # D5 permuting the five vertices of a pentagon: its classes have tree
    # paths that mix both generators, so a tree edge multiplied on the wrong
    # side, or a product looked up for the other order, changes a summand
    (
        "D5-Z2^5",
        _dihedral(5),
        (2,) * 5,
        (perm(tuple((i + 1) % 5 for i in range(5))), perm(tuple(-i % 5 for i in range(5)))),
    ),
    # inconsistent inputs: a relator not respected, and not an endomorphism
    ("D4-bad-relator", _dihedral(4), (0, 0), (((0, -1), (1, 0)), ((0, 1), (1, 0)))),
    ("S3-not-endomorphism", _dihedral(3), (0, 3, 0), (perm((1, 2, 0)), perm((0, 2, 1)))),
]


def inputs(sample: bool = False) -> Iterator[Input]:
    """Every input of the full set in order, or the seeded sample of it:
    the inputs a generator seeded with ``SAMPLE_SEED`` keeps with
    probability ``SAMPLE_SHARE``."""
    keep = random.Random(SAMPLE_SEED)

    def every() -> Iterator[Input]:
        for entry in builtin_groups(60):
            G = realize_presentation(entry.presentation)
            for gamma in BENCH_GAMMAS:
                actions = [None, *sign_actions(len(G.generator_images), len(gamma))]
                for action in actions:
                    yield entry.name, G, CoefficientSystem(gamma, action)
        for name, G, gamma, action in NON_DIAGONAL:
            yield name, G, CoefficientSystem(gamma, action)
        G = realize_presentation(get_preset("dicyclic_4000").presentation)
        for gamma in ((2,), (0,), (2, 0)):
            yield "dicyclic_4000", G, CoefficientSystem(gamma)
        for action in sign_actions(2, 1):
            yield "dicyclic_4000", G, CoefficientSystem((0,), action)

    for item in every():
        if not sample or keep.random() < SAMPLE_SHARE:
            yield item


def outcome(G: FiniteGroupRealization, coeff: CoefficientSystem) -> str:
    try:
        return str(wh1_general(G, coeff).invariant_factors)
    except CoefficientError as exc:
        return f"CoefficientError: {exc}"


def digest(items: Iterable[Input]) -> str:
    h = hashlib.sha256()
    for name, G, coeff in items:
        h.update(f"{name}|{coeff!r}|{outcome(G, coeff)}\n".encode())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sample", action="store_true", help="the seeded sample only")
    args = parser.parse_args(argv)
    got = digest(inputs(args.sample))
    pinned = SAMPLE if args.sample else FULL
    print(f"wh1 {got}")
    if got != pinned:
        print(f"differs from the pinned {pinned}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
