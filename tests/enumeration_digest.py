"""SHA-256 digests of coset enumeration outcomes over fixed input families.

Every input is a presentation and a coset budget, and its outcome is either
the rows :func:`whdetect.coset.enumerate_cosets` returns or the type and
message of the exception it raises.  Two digests are printed: one over the
completed rows, one over the outcomes that ran out of budget.  Both are
pinned here, so a change to the enumerator that claims the same rows can be
checked against them; a change that alters only what happens at an
exhausted budget moves the second digest alone.

The families, every one deterministic:

- the 314 ``builtin_groups(240)`` presentations at budget 200,000;
- the spherical o1 genus-0 Seifert data (2,2,n) for 2 <= n <= 59, (2,3,3),
  (2,3,4) and (2,3,5), every beta 1, each with b from -2 to 1, at 20,000;
- 1,000 random power presentations (0-3 generators, relators mostly proper
  powers w^k) and 1,000 random syllable presentations (1-3 generators, each
  with a power g^N, and relators of runs g^k), drawn from fixed seeds, each
  at budgets 150, 3,000 and 20,000.

Run ``PYTHONPATH=src python tests/enumeration_digest.py`` to print the
digests of the full set, 6,558 inputs (about 20 s on a 2-vCPU host), and
compare them with the pins; it exits 1 when they differ.  ``--sample``
does the same for the seeded sample of about a tenth of the inputs that
``tests/test_coset.py`` pins.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from typing import Iterable, Iterator, NamedTuple

from whdetect.catalog import Epsilon, SeifertInvariants, builtin_groups, seifert_presentation
from whdetect.coset import EnumerationBudgetExceeded, IncompleteTableError, enumerate_cosets
from whdetect.words import Generator, Presentation, Word

BUDGETS = (150, 3_000, 20_000)
RANDOM_PRESENTATIONS = 1_000
SAMPLE_SEED, SAMPLE_SHARE = 19, 0.1


class Digest(NamedTuple):
    rows: str
    exhausted: str


FULL = Digest(
    "3b0a901647d1fb41835189f184f4c0c4cf18b87aebe3962a164842693a036254",
    "573d21673832c4363711457b5616383d930f5132e86acfdcf9ca079a447a1b46",
)
SAMPLE = Digest(
    "118d9b3f0deecc85beac23c639f87553e5d7b36db2eb275bd995b482410cacdb",
    "f97dbdc2ebb29b7429b8669fcba635959b10bbba3010e570a1c84ee854e2fab0",
)

Input = tuple[str, Presentation, int]


def _catalog() -> Iterator[Input]:
    for entry in builtin_groups(240):
        yield f"catalog {entry.name}", entry.presentation, 200_000


def _seifert() -> Iterator[Input]:
    triples = [(2, 2, n) for n in range(2, 60)] + [(2, 3, 3), (2, 3, 4), (2, 3, 5)]
    for alphas in triples:
        for b in range(-2, 2):
            s = SeifertInvariants(b, Epsilon.O1, 0, tuple((a, 1) for a in alphas))
            yield f"seifert {s.display()}", seifert_presentation(s), 20_000


def _power(rng: random.Random) -> Presentation:
    """0-3 generators; 0-4 relators, each w^k for a word w of 1-4 letters,
    with k drawn from 1-9 three times in four and 1 otherwise."""
    rank = rng.randint(0, 3)
    relators = []
    for _ in range(rng.randint(0, 4) if rank else 0):
        w = [(rng.randrange(rank), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))]
        k = rng.randint(1, 9) if rng.randrange(4) else 1
        relators.append(Word(tuple(w) * k))
    return _presentation(rank, relators)


def _syllable(rng: random.Random) -> Presentation:
    """1-3 generators, each with a power g^N (2 <= N <= 40) and the first
    with two, and 1-4 relators of up to 7 runs g^+-k (1 <= k <= 25), one of
    them a run of the first generator with k >= 4."""
    rank = rng.randint(1, 3)
    sign = (1, -1)
    relators = [
        Word(((g, rng.choice(sign)),) * rng.randint(2, 40)) for g in (0, *range(rank))
    ]
    for _ in range(rng.randint(1, 4)):
        runs = [
            (rng.randrange(rank), rng.choice(sign), rng.randint(1, 25))
            for _ in range(rng.randint(0, 6))
        ]
        runs.insert(rng.randint(0, len(runs)), (0, rng.choice(sign), rng.randint(4, 25)))
        relators.append(Word(tuple((g, s) for g, s, k in runs for _ in range(k))))
    return _presentation(rank, relators)


def _presentation(rank: int, relators: list[Word]) -> Presentation:
    gens = tuple(Generator(f"g{i}") for i in range(rank))
    return Presentation(gens, tuple(r for r in relators if r))


def _random(name: str, draw, seed: int) -> Iterator[Input]:
    rng = random.Random(seed)
    for i in range(RANDOM_PRESENTATIONS):
        p = draw(rng)
        for budget in BUDGETS:
            yield f"{name} {i}", p, budget


def inputs(sample: bool = False) -> Iterator[Input]:
    """Every input of the full set in order, or the seeded sample of it:
    the inputs a generator seeded with ``SAMPLE_SEED`` keeps with
    probability ``SAMPLE_SHARE``."""
    keep = random.Random(SAMPLE_SEED)
    families = (
        _catalog(), _seifert(), _random("power", _power, 1), _random("syllable", _syllable, 2)
    )
    for family in families:
        for item in family:
            if not sample or keep.random() < SAMPLE_SHARE:
                yield item


def digest(items: Iterable[Input]) -> Digest:
    """One SHA-256 over the rows of the inputs that complete, one over the
    exception type and message of those that run out of budget, each
    entry tagged with its input's label and budget."""
    rows, exhausted = hashlib.sha256(), hashlib.sha256()
    for label, p, budget in items:
        try:
            outcome = enumerate_cosets(p, budget)
        except (EnumerationBudgetExceeded, IncompleteTableError) as exc:
            exhausted.update(repr((label, budget, type(exc).__name__, str(exc))).encode())
        else:
            rows.update(repr((label, budget, outcome)).encode())
    return Digest(rows.hexdigest(), exhausted.hexdigest())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sample", action="store_true", help="the seeded sample only")
    args = parser.parse_args(argv)
    got = digest(inputs(args.sample))
    pinned = SAMPLE if args.sample else FULL
    print(f"rows      {got.rows}")
    print(f"exhausted {got.exhausted}")
    if got != pinned:
        print(f"differs from the pinned {pinned}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
