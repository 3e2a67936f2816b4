"""Steinberg words over an integral group ring and their elementary-matrix
images.

A Steinberg word is a formal product of symbols x(i,j;lam) with i != j and
lam in Z[pi]; its image in the stable elementary group is the corresponding
product of matrices I + lam*E_ij.  :func:`evaluate` computes that product
by column operations: right multiplication by I + lam*E_ij adds column i,
times lam on the right, to column j.  The tests compare it with ``matmul``,
the dense product of the letters' matrices.  The kernel of evaluation is
second algebraic K-theory, so a word lies in K2 exactly when it evaluates
to the identity.  The w-elements x(i,j;+-g) x(j,i;-+g^-1) x(i,j;+-g)
evaluate to monomial (permutation times diagonal) matrices; those are
recognized by :func:`pd_decompose`.

Only finite groups are accepted: coefficients live in Z[pi] for a concrete
:class:`~whdetect.coset.FiniteGroupRealization`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .coset import FiniteGroupRealization
from .words import parse_word


class SteinbergError(ValueError):
    pass


# the largest dimension evaluate builds its n x n matrix at
MAX_DIMENSION = 100


@dataclass(frozen=True, slots=True)
class GroupRingElement:
    """An element of Z[pi]: a finite map group element -> integer coefficient.

    Zero coefficients are never stored.  Multiplication is the convolution
    product through the group's multiplication table.
    """

    group: FiniteGroupRealization
    terms: tuple[tuple[int, int], ...]  # sorted (element, coefficient) pairs

    @staticmethod
    def from_dict(group: FiniteGroupRealization, d: dict[int, int]) -> "GroupRingElement":
        return GroupRingElement(
            group, tuple(sorted((g, c) for g, c in d.items() if c != 0))
        )

    @staticmethod
    def zero(group: FiniteGroupRealization) -> "GroupRingElement":
        return GroupRingElement(group, ())

    @staticmethod
    def one(group: FiniteGroupRealization) -> "GroupRingElement":
        return GroupRingElement(group, ((0, 1),))

    @staticmethod
    def of_element(group: FiniteGroupRealization, g: int, coeff: int = 1) -> "GroupRingElement":
        if not 0 <= g < group.order:
            raise SteinbergError(f"group element {g} out of range")
        return GroupRingElement.from_dict(group, {g: coeff})

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        d = dict(self.terms)
        for g, c in other.terms:
            d[g] = d.get(g, 0) + c
        return GroupRingElement.from_dict(self.group, d)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.group, tuple((g, -c) for g, c in self.terms))

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + (-other)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        d: dict[int, int] = {}
        mul = self.group.mul
        for g, c in self.terms:
            row = mul[g]
            for h, e in other.terms:
                k = row[h]
                d[k] = d.get(k, 0) + c * e
        return GroupRingElement.from_dict(self.group, d)

    def is_zero(self) -> bool:
        return not self.terms

    def single_signed_element(self) -> Optional[tuple[int, int]]:
        """(sign, g) when self = +-g for a single group element, else None."""
        if len(self.terms) == 1 and self.terms[0][1] in (1, -1):
            g, c = self.terms[0]
            return (c, g)
        return None

    def display(self) -> str:
        return _format(self, self.group.element_names(g for g, _ in self.terms))


def _format(x: GroupRingElement, names: dict[int, str]) -> str:
    """Display form of x, given the name of each element in its terms."""
    if not x.terms:
        return "0"
    parts = []
    for g, c in x.terms:
        base = names[g]
        if c == 1:
            parts.append(base)
        elif c == -1:
            parts.append(f"-{base}")
        else:
            parts.append(f"{c}*{base}")
    return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True, slots=True)
class SteinbergLetter:
    row: int
    col: int
    coeff: GroupRingElement

    def __post_init__(self) -> None:
        if self.row == self.col:
            raise SteinbergError("Steinberg symbol requires distinct indices")
        if self.row < 1 or self.col < 1:
            raise SteinbergError("indices are positive")


@dataclass(frozen=True)
class SteinbergWord:
    """A formal product of Steinberg symbols."""

    letters: tuple[SteinbergLetter, ...] = ()

    def __mul__(self, other: "SteinbergWord") -> "SteinbergWord":
        return SteinbergWord(self.letters + other.letters)

    def inverse(self) -> "SteinbergWord":
        return SteinbergWord(
            tuple(
                SteinbergLetter(l.row, l.col, -l.coeff)
                for l in reversed(self.letters)
            )
        )

    def min_dimension(self) -> int:
        return max((max(l.row, l.col) for l in self.letters), default=1)


def symbol(i: int, j: int, coeff: GroupRingElement) -> SteinbergWord:
    return SteinbergWord((SteinbergLetter(i, j, coeff),))


def st_commutator(u: SteinbergWord, v: SteinbergWord) -> SteinbergWord:
    return u * v * u.inverse() * v.inverse()


def w_element(
    i: int, j: int, G: FiniteGroupRealization, g: int, sign: int = 1
) -> SteinbergWord:
    """The 3-letter word x(i,j;+-g) x(j,i;-+g^-1) x(i,j;+-g)."""
    if i == j:
        raise SteinbergError("w-element requires distinct indices")
    if sign not in (1, -1):
        raise SteinbergError("sign must be +-1")
    lam = GroupRingElement.of_element(G, g, sign)
    lam_inv = GroupRingElement.of_element(G, G.inv[g], -sign)
    return symbol(i, j, lam) * symbol(j, i, lam_inv) * symbol(i, j, lam)


@dataclass(frozen=True)
class GroupRingMatrix:
    """A dense square matrix over Z[pi]."""

    group: FiniteGroupRealization
    entries: tuple[tuple[GroupRingElement, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    @staticmethod
    def identity(group: FiniteGroupRealization, n: int) -> "GroupRingMatrix":
        one = GroupRingElement.one(group)
        zero = GroupRingElement.zero(group)
        return GroupRingMatrix(
            group,
            tuple(
                tuple(one if i == j else zero for j in range(n)) for i in range(n)
            ),
        )

    def is_identity(self) -> bool:
        return self == GroupRingMatrix.identity(self.group, self.n)

    def display(self) -> str:
        names = self.group.element_names(
            {g for row in self.entries for e in row for g, _ in e.terms}
        )
        cells = [[_format(e, names) for e in row] for row in self.entries]
        width = max((len(c) for row in cells for c in row), default=1)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]" for row in cells
        )


def evaluate(
    w: SteinbergWord, n: int, G: FiniteGroupRealization
) -> GroupRingMatrix:
    """Image of a Steinberg word in the elementary group at dimension n.

    Each letter x(i,j;lam) is one column operation on the running product:
    column j += column i * lam, with lam on the right.  The tests check the
    result against ``matmul`` of the letters' matrices I + lam*E_ij.
    Raises :class:`SteinbergError` for a dimension above ``MAX_DIMENSION``.
    """
    if w.min_dimension() > n:
        raise SteinbergError(
            f"word uses index {w.min_dimension()} but dimension is {n}"
        )
    if n > MAX_DIMENSION:
        raise SteinbergError(f"dimension {n} exceeds {MAX_DIMENSION}")
    rows = [list(row) for row in GroupRingMatrix.identity(G, n).entries]
    for letter in w.letters:
        i, j, lam = letter.row - 1, letter.col - 1, letter.coeff
        for row in rows:
            if not row[i].is_zero():
                row[j] = row[j] + row[i] * lam
    return GroupRingMatrix(G, tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class PDForm:
    """M = P.D: permutation (row i has its nonzero in column perm[i],
    0-based) and diagonal entries +-g read off in column order."""

    perm: tuple[int, ...]
    diagonal: tuple[tuple[int, int], ...]  # (sign, group element) per column


def pd_decompose(M: GroupRingMatrix) -> Optional[PDForm]:
    """Recognize a permutation-times-diagonal matrix with entries +-g.

    Returns None unless every row and every column holds exactly one
    nonzero entry and each such entry is a single signed group element.
    """
    n = M.n
    perm = [-1] * n
    diag: list[tuple[int, int] | None] = [None] * n
    col_used = [False] * n
    for i in range(n):
        nz = [j for j in range(n) if not M.entries[i][j].is_zero()]
        if len(nz) != 1:
            return None
        j = nz[0]
        if col_used[j]:
            return None
        signed = M.entries[i][j].single_signed_element()
        if signed is None:
            return None
        col_used[j] = True
        perm[i] = j
        diag[j] = signed
    return PDForm(tuple(perm), tuple(d for d in diag))  # type: ignore[misc]


def k2_membership(w: SteinbergWord, n: int, G: FiniteGroupRealization) -> bool:
    """True iff the word maps to the identity matrix (lies in K2)."""
    return evaluate(w, n, G).is_identity()


_SYMBOL = re.compile(
    r"x\(\s*(\d+)\s*,\s*(\d+)\s*;\s*([+-]?)\s*([^)]*)\)"
)


def parse_steinberg_word(text: str, G: FiniteGroupRealization) -> SteinbergWord:
    """Parse text like ``x(1,2;+g) x(2,1;-g^-1) x(1,2;+g)``.

    The coefficient between ``;`` and ``)`` is an optional sign followed by
    a word in the group's generators (``1`` for the identity element).
    """
    letters: list[SteinbergLetter] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _SYMBOL.match(text, pos)
        if not m:
            raise SteinbergError(f"malformed Steinberg word at {text[pos:]!r}")
        i, j = int(m.group(1)), int(m.group(2))
        sign = -1 if m.group(3) == "-" else 1
        word = parse_word(m.group(4), G.source.generators)
        elem = G.evaluate_word(word)
        letters.append(
            SteinbergLetter(i, j, GroupRingElement.of_element(G, elem, sign))
        )
        pos = m.end()
    if not letters:
        raise SteinbergError("empty Steinberg word text")
    return SteinbergWord(tuple(letters))
