"""Words over a generating alphabet with inverses, and group presentations.

A word is a sequence of letters ``(generator_index, sign)`` with sign in
``{+1, -1}``.  Words are always stored freely reduced; the empty word is the
identity.  Presentations are lists of relator words over a declared alphabet;
the catalog writes its relators as text for :func:`make_presentation` too.
The free rank of a presentation's abelianization is
``pipeline.free_abelian_rank``: it needs the Smith normal form of
``whitehead``, which this module does not import.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice, repeat, takewhile
from typing import Iterable, Sequence

Letter = tuple[int, int]

# the most letters a parsed word, or all relators of a parsed presentation,
# may expand to (about 84 MiB of letters); checked before they are allocated
MAX_WORD_LETTERS = 1_000_000


class WordError(ValueError):
    """Malformed word text or a word referencing an undeclared generator."""


class PresentationError(ValueError):
    """Malformed presentation text or inconsistent presentation data."""


# a generator name, and the name part of a word token
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9']*")


@dataclass(frozen=True)
class Generator:
    """A named generator; its index is its place in the alphabet."""

    name: str

    def __post_init__(self) -> None:
        if not _NAME.fullmatch(self.name):
            raise PresentationError(
                f"generator name {self.name!r} does not match {_NAME.pattern}"
            )


def _reduce_runs(runs: Iterable[tuple[Letter, int]]) -> tuple[Letter, ...]:
    """The freely reduced word x_1^m_1 x_2^m_2 ..., given as runs (x, m), m >= 1.

    A run takes O(1) Python steps: it cancels the tail of the word reduced
    so far as far as that tail is a run of x^-1 and the run reaches, and
    what is left of it is appended.  The result holds the runs' own letter
    tuples, so a power's letters share one tuple.
    """
    out: list[Letter] = []
    for x, m in runs:
        if out:
            y = out[-1]
            if y[0] == x[0] and y[1] == -x[1]:  # y is x^-1
                if m == 1:
                    out.pop()
                    continue
                # the letters of the tail that cancel: y repeated, at most m
                c = len(list(islice(takewhile(y.__eq__, reversed(out)), m)))
                del out[-c:]
                m -= c
        if m == 1:
            out.append(x)
        else:
            out += [x] * m
    return tuple(out)


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until none remain.

    Idempotent; the result represents the same free-group element and keeps
    the given letter tuples.  Each letter is read as a run of one: splitting
    a letter sequence into runs costs more than it saves on words whose runs
    all have length 1, and :func:`parse_word` hands each power over as one
    run.
    """
    return _reduce_runs(zip(letters, repeat(1)))


@dataclass(frozen=True)
class Word:
    """A freely reduced word.  The empty word is the identity."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        reduced = free_reduce(self.letters)
        object.__setattr__(self, "letters", reduced)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def inverse(self) -> "Word":
        """Reversed letters with flipped signs."""
        return Word(tuple((g, -s) for g, s in reversed(self.letters)))

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the empty word."""
        return max((g for g, _ in self.letters), default=-1)

    def display(self, alphabet: Sequence[Generator]) -> str:
        if not self.letters:
            return "1"
        parts = []
        i = 0
        letters = self.letters
        while i < len(letters):
            g, s = letters[i]
            run = 1
            while i + run < len(letters) and letters[i + run] == (g, s):
                run += 1
            exp = s * run
            name = alphabet[g].name
            parts.append(name if exp == 1 else f"{name}^{exp}")
            i += run
        return " ".join(parts)


_TOKEN = re.compile(rf"({_NAME.pattern})(?:\s*\^\s*(-?\d+))?")


def parse_word(text: str, alphabet: Sequence[Generator]) -> Word:
    """Parse word text like ``x^-1 a x a`` over the given alphabet.

    Inverses may be written ``a^-1`` or as the uppercase of a lowercase
    generator name.  Returns the freely reduced word.  Raises
    :class:`WordError` before expanding a power that would take the word
    past ``MAX_WORD_LETTERS`` letters.
    """
    by_name = {g.name: i for i, g in enumerate(alphabet)}
    runs: list[tuple[Letter, int]] = []
    total = 0  # the letters of the powers read, before reduction
    pos = 0
    text = text.strip()
    if text in ("", "1"):
        return Word()
    while pos < len(text):
        if text[pos].isspace() or text[pos] == "*":
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise WordError(f"malformed word at {text[pos:]!r}")
        name, exp_s = m.group(1), m.group(2)
        sign = 1
        if name not in by_name:
            # uppercase convention for the inverse of a lowercase generator
            if name.lower() in by_name and name != name.lower():
                name = name.lower()
                sign = -1
            else:
                raise WordError(f"unknown generator {name!r}")
        idx = by_name[name]
        exp = sign * (1 if exp_s is None else int(exp_s))
        total += abs(exp)
        if total > MAX_WORD_LETTERS:
            raise WordError(f"word longer than {MAX_WORD_LETTERS} letters")
        if exp:
            runs.append(((idx, 1 if exp > 0 else -1), abs(exp)))
        pos = m.end()
    # each power is one run, and the word is reduced once, at the powers'
    # boundaries, not letter by letter again in Word
    word = object.__new__(Word)
    object.__setattr__(word, "letters", _reduce_runs(runs))
    return word


@dataclass(frozen=True)
class Presentation:
    """A finite group presentation: generators plus relator words."""

    generators: tuple[Generator, ...]
    relators: tuple[Word, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise PresentationError(f"duplicate generator names in {names}")
        n = len(self.generators)
        for r in self.relators:
            if r.max_generator() >= n:
                raise PresentationError(
                    f"relator references undeclared generator index {r.max_generator()}"
                )

    @property
    def rank(self) -> int:
        return len(self.generators)

    def display(self) -> str:
        gens = ", ".join(g.name for g in self.generators)
        rels = ", ".join(r.display(self.generators) for r in self.relators)
        return f"gens: {gens}; rels: {rels}"


def make_presentation(gen_names: Sequence[str], relator_texts: Sequence[str]) -> Presentation:
    """Build a presentation from generator names and relator strings.

    A relator string may be an equation ``u = v``; it is normalized to the
    relator u v^-1.  The relators may hold ``MAX_WORD_LETTERS`` letters in
    all, after free reduction.
    """
    gens = tuple(Generator(n) for n in gen_names)
    rels = []
    total = 0
    for t in relator_texts:
        if "=" in t:
            lhs, rhs = t.split("=", 1)
            w = parse_word(lhs, gens) * parse_word(rhs, gens).inverse()
        else:
            w = parse_word(t, gens)
        total += len(w)
        if total > MAX_WORD_LETTERS:
            raise PresentationError(
                f"relators longer than {MAX_WORD_LETTERS} letters in all"
            )
        rels.append(w)
    return Presentation(gens, tuple(rels))


def parse_presentation(text: str) -> Presentation:
    """Parse the text format ``gens: a, x; rels: a^4, x^2 a^-2, x^-1 a x a``.

    Whitespace-insensitive; relators comma-separated; equations allowed.
    Each section appears at most once, so a repeated ``rels:`` cannot
    silently drop the relators of the first.
    """
    parts = [p.strip() for p in text.split(";")]
    sections: dict[str, list[str]] = {}
    for part in parts:
        if not part:
            continue
        key, _, rest = part.partition(":")
        key = key.strip().lower()
        if key not in ("gens", "rels"):
            raise PresentationError(f"unknown section {key!r}")
        if key in sections:
            raise PresentationError(f"repeated section {key!r}")
        sections[key] = [t for t in (s.strip() for s in rest.split(",")) if t]
    if "gens" not in sections:
        raise PresentationError("missing 'gens:' section")
    return make_presentation(sections["gens"], sections.get("rels", []))
