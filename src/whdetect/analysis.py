"""Conjugacy classes, the inversion map on classes, ambivalence, centres."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coset import FiniteGroupRealization


@dataclass(frozen=True)
class ConjugacyProfile:
    """Conjugacy classes of a finite group with the class-inversion permutation.

    Class 0 is the identity class.  ``inversion_perm`` sends the class of g
    to the class of g^-1; it is an involution fixing class 0.

    ``self_inverse_count`` (s) counts nontrivial classes with c = c-bar;
    ``paired_count`` (p) counts unordered pairs {c, c-bar} with c != c-bar.
    Every nontrivial class is one or the other, so the number of nontrivial
    classes is s + 2p.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    inversion_perm: tuple[int, ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def self_inverse_count(self) -> int:
        return sum(
            1 for c in range(1, self.n_classes) if self.inversion_perm[c] == c
        )

    @property
    def paired_count(self) -> int:
        return (
            sum(1 for c in range(1, self.n_classes) if self.inversion_perm[c] != c)
            // 2
        )


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
    all-pairs loop, which the tests keep as an oracle.
    """
    perms = {
        img: G.conjugation(g, 1) for g, img in enumerate(G.generator_images)
    }.values()
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
    inversion = tuple(class_of[G.inv[cls[0]]] for cls in classes)
    return ConjugacyProfile(tuple(classes), tuple(class_of), inversion)


def is_ambivalent(
    G: FiniteGroupRealization, profile: ConjugacyProfile | None = None
) -> AmbivalenceVerdict:
    """True iff the class-inversion permutation is the identity."""
    profile = profile or conjugacy_classes(G)
    for c in range(profile.n_classes):
        if profile.inversion_perm[c] != c:
            return AmbivalenceVerdict(False, witness=profile.classes[c][0])
    return AmbivalenceVerdict(True)


def centre(G: FiniteGroupRealization) -> tuple[int, ...]:
    """Elements commuting with all of G, i.e. with every generator."""
    pairs = [(2 * g, G.left(img)) for g, img in enumerate(G.generator_images)]
    return tuple(
        z
        for z in range(G.order)
        if all(G.table[z][col] == left[z] for col, left in pairs)
    )
