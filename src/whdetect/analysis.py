"""Conjugacy classes, the inversion map on classes, ambivalence."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .coset import FiniteGroupRealization


@dataclass(frozen=True)
class ConjugacyProfile:
    """Conjugacy classes of a finite group with the class-inversion permutation.

    Class 0 is the identity class.  ``inversion_perm`` sends the class of g
    to the class of g^-1; it is an involution fixing class 0.

    ``swapped_pairs`` lists the classes that inversion swaps, one pair
    (c, c-bar) with c < c-bar each, in increasing c; ``paired_count`` (p)
    is their number.  The other nontrivial classes are self-inverse, and
    ``self_inverse_count`` (s) counts them, so there are s + 2p nontrivial
    classes.
    """

    classes: tuple[tuple[int, ...], ...]
    inversion_perm: tuple[int, ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @cached_property
    def swapped_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (c, cbar) for c, cbar in enumerate(self.inversion_perm) if c < cbar
        )

    @property
    def paired_count(self) -> int:
        return len(self.swapped_pairs)

    @property
    def self_inverse_count(self) -> int:
        return self.n_classes - 1 - 2 * self.paired_count


@dataclass(frozen=True)
class AmbivalenceVerdict:
    """Whether every element is conjugate to its inverse.

    ``witness``, present exactly when not ambivalent, is an element g with
    g not conjugate to g^-1.
    """

    ambivalent: bool
    witness: Optional[int] = None


def conjugacy_classes(G: FiniteGroupRealization) -> ConjugacyProfile:
    """Partition G into conjugacy classes by orbit BFS under the generators.

    Conjugating by the group generators alone suffices since they generate,
    one permutation per distinct generator image; this beats the naive
    all-pairs loop, which the tests keep as an oracle.  A central generator
    conjugates every element to itself, so it gets no permutation; when
    every generator is central the group is abelian, each element is its
    own class and the inversion permutation is ``G.inv``.  Each class is
    sorted and the classes are numbered by their least elements, so the
    direction of conjugation does not matter.
    """
    central = G.central
    perms = {
        img: G.conjugation(g)
        for g, img in enumerate(G.generator_images)
        if not central[g]
    }.values()
    if not perms:
        return ConjugacyProfile(tuple(zip(range(G.order))), G.inv)
    class_of = [-1] * G.order
    classes: list[tuple[int, ...]] = []
    for start in range(G.order):
        if class_of[start] != -1:
            continue
        idx = len(classes)
        orbit = [start]
        class_of[start] = idx
        for g in orbit:  # grows while iterated: a walk over the class
            for perm in perms:
                h = perm[g]
                if class_of[h] == -1:
                    class_of[h] = idx
                    orbit.append(h)
        classes.append(tuple(sorted(orbit)))
    inv = G.inv
    inversion = tuple(class_of[inv[cls[0]]] for cls in classes)
    return ConjugacyProfile(tuple(classes), inversion)


def is_ambivalent(
    G: FiniteGroupRealization, profile: ConjugacyProfile | None = None
) -> AmbivalenceVerdict:
    """True iff inversion swaps no classes; else a representative of the
    first swapped class is the witness."""
    profile = profile or conjugacy_classes(G)
    pairs = profile.swapped_pairs
    if pairs:
        return AmbivalenceVerdict(False, witness=profile.classes[pairs[0][0]][0])
    return AmbivalenceVerdict(True)

