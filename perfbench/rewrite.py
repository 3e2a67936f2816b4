"""Seeded Tietze rewrites of presentations, rendered to the text format that
``whdetect.parse_presentation`` reads.

A presentation here is plain data: a list of generator names and a list of
relators, each a list of letters ``(generator_index, sign)``.  Every rewrite
keeps the presented group the same, so expected orders and class data carry
over unchanged.
"""

from __future__ import annotations

import random

Letter = tuple[int, int]

KINDS = ("rotate", "invert", "shuffle", "product", "rename")

# lowercase only: an uppercase name would read as the inverse of its
# lowercase twin in whdetect's word syntax
NAME_POOL = tuple("bcdefghjkmnpqrstuvwyz") + tuple(f"g{i}" for i in range(10))


def _changes(kind: str, gens: list[str], rels: list[list[Letter]]) -> bool:
    """Whether a rewrite of this kind can change the rendered text."""
    if kind == "rotate":
        return any(len(set(r)) > 1 for r in rels)
    if kind == "shuffle":
        return len(rels) > 1
    return bool(rels) or kind == "rename"


def rewrite(
    gens: list[str],
    rels: list[list[Letter]],
    rng: random.Random,
    kinds: tuple[str, ...] = KINDS,
) -> tuple[str, list[str], list[list[Letter]]]:
    """Apply one seeded rewrite, drawn from the kinds that change the text.

    * rotate: cyclically conjugate one relator;
    * invert: replace one relator by its inverse;
    * shuffle: reorder the relators;
    * product: add the redundant relator r_i r_j;
    * rename: give the generators fresh names.
    """
    gens = list(gens)
    rels = [list(r) for r in rels]
    kind = rng.choice([k for k in kinds if _changes(k, gens, rels)])
    if kind == "rotate":
        i = rng.choice([i for i, r in enumerate(rels) if len(set(r)) > 1])
        k = rng.randrange(1, len(rels[i]))
        rels[i] = rels[i][k:] + rels[i][:k]
    elif kind == "invert":
        i = rng.randrange(len(rels))
        rels[i] = [(g, -s) for g, s in reversed(rels[i])]
    elif kind == "shuffle":
        before = list(rels)
        while rels == before:
            rng.shuffle(rels)
    elif kind == "product":
        i, j = rng.randrange(len(rels)), rng.randrange(len(rels))
        rels.insert(rng.randrange(len(rels) + 1), rels[i] + rels[j])
    else:
        gens = rng.sample(NAME_POOL, len(gens))
    return kind, gens, rels


def render_word(gens: list[str], letters: list[Letter]) -> str:
    """Word text with runs collapsed to powers, e.g. ``a^3 x^-1 a``."""
    parts = []
    i = 0
    while i < len(letters):
        run = 1
        while i + run < len(letters) and letters[i + run] == letters[i]:
            run += 1
        g, s = letters[i]
        exp = s * run
        parts.append(gens[g] if exp == 1 else f"{gens[g]}^{exp}")
        i += run
    return " ".join(parts) or "1"


def render(gens: list[str], rels: list[list[Letter]]) -> str:
    """Presentation text ``gens: a, x; rels: a^4, x^2 a^-2``."""
    return "gens: {}; rels: {}".format(
        ", ".join(gens), ", ".join(render_word(gens, r) for r in rels)
    )
