"""Reference Smith normal form with unimodular certificates, and an exact
determinant to check them.

``whdetect.whitehead.smith_normal_form`` returns only the diagonal.  This
module runs the same rounds (same pivot rule, same row and column
clearing, same ``bad``-row step and sign fix) while carrying U and V, so
that the tests can check U @ M @ V = D exactly and then require the
production diagonal to equal D's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class SmithNormalForm:
    """U @ M @ V = D exactly, with U, V unimodular and D = diag chain d1 | d2 | ..."""

    diagonal: tuple[int, ...]
    U: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]


def _identity(r: int) -> list[list[int]]:
    return [[int(i == j) for j in range(r)] for i in range(r)]


def certified_smith_normal_form(M: Sequence[Sequence[int]]) -> SmithNormalForm:
    """Exact integer Smith normal form with transformation certificates.

    Each round of step t moves the pivot d, the least nonzero |entry| of the
    trailing block (first in row-major order on a tie), to (t, t) and
    subtracts A[i][t] // d times row t from every later row and A[t][j] // d
    times column t from every later column, in U and V too.  A remainder
    left in row or column t is smaller than |d| and is the next round's
    pivot, so the rounds end.  Then a later row with an entry d does not
    divide is added to row t for another round, or d is made positive.
    Clearing whole rows and columns per round keeps U and V small.
    """
    A = [list(map(int, row)) for row in M]
    n = len(A)
    m = len(A[0]) if n else 0
    U, V = _identity(n), _identity(m)
    t = 0
    while t < min(n, m):
        nonzero = [
            (abs(A[i][j]), i, j) for i in range(t, n) for j in range(t, m) if A[i][j]
        ]
        if not nonzero:
            break
        _, p, q = min(nonzero)
        A[t], A[p], U[t], U[p] = A[p], A[t], U[p], U[t]
        for row in A + V:
            row[t], row[q] = row[q], row[t]
        d = A[t][t]
        for i in range(t + 1, n):
            if c := A[i][t] // d:
                A[i] = [x - c * y for x, y in zip(A[i], A[t])]
                U[i] = [x - c * y for x, y in zip(U[i], U[t])]
        rows = A + V
        for j in range(t + 1, m):
            if c := A[t][j] // d:
                for row in rows:
                    row[j] -= c * row[t]
        if any(A[i][t] for i in range(t + 1, n)) or any(A[t][t + 1 :]):
            continue
        bad = next((i for i in range(t + 1, n) if any(x % d for x in A[i])), None)
        if bad is not None:
            A[t] = [x + y for x, y in zip(A[t], A[bad])]
            U[t] = [x + y for x, y in zip(U[t], U[bad])]
            continue
        if d < 0:
            A[t][t], U[t] = -d, [-x for x in U[t]]
        t += 1
    diag = tuple(A[i][i] for i in range(min(n, m)))
    return SmithNormalForm(diag, tuple(map(tuple, U)), tuple(map(tuple, V)))


def fraction_det(mat: Sequence[Sequence[int]]) -> Fraction:
    """Exact determinant of a square integer matrix by Gaussian elimination over Q."""
    mat = [[Fraction(x) for x in row] for row in mat]
    k, d = len(mat), Fraction(1)
    for c in range(k):
        piv = next((r for r in range(c, k) if mat[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            d = -d
        d *= mat[c][c]
        for r in range(c + 1, k):
            f = mat[r][c] / mat[c][c]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[c])]
    return d
