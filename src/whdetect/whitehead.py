"""First Whitehead groups with coefficients, their duality involution, and
the detection quotient.

Wh1(pi; Gamma), for any finitely generated Gamma with a pi-action, is the
quotient of Gamma[pi] by the twisted conjugation relations and the identity
coordinate.  The relations keep each conjugacy class apart, and by
Shapiro's lemma for the conjugation permutation module (Brown, Cohomology
of Groups, ch. III; Oliver, Whitehead Groups of Finite Groups, 1988)

    Wh1(pi; Gamma) = sum over classes [x] != 1 of H0(C(x); Gamma).

``wh1_general`` computes each summand as the cokernel of an r-column
matrix, read off the diagonal of an exact Smith normal form: Gamma's
torsion, and the relations of the class that are left at x once elementary
row operations along a spanning tree of the class have eliminated the
others.  Every r x r product over Gamma, in the inverse walks, the
relator check and the class walks, goes through the numbered image of the
action: an action through pi takes at most |pi| matrices, one per element,
so each gets an integer id and each distinct pair of ids is multiplied
once, however many powers, relator letters and class edges ask for it.  The tests certify that
diagonal against a reference that also builds the unimodular transforms,
and compare ``wh1_general`` with ``wh1_dense``, one Smith normal form of
the whole (r * |pi|)-column relation matrix.  For Gamma = Z/2 with the
trivial action every centralizer acts trivially, so each summand is Z/2 and
Wh1(pi; Z/2) is the free Z/2-vector space on the nontrivial conjugacy
classes; the tests check ``wh1_general`` against that class count.

On that Z/2-space the coefficient-ring involution (orientable spin case:
both Stiefel-Whitney twists vanish) permutes the basis by class inversion.
The differential x -> x - (-1)^i x-bar, taken at i = 4, is id + bar: it
kills every self-inverse class and sends both classes of a swapped pair to
their sum.  So its rank, the detection quotient (full space modulo the
kernel Z4), is the number p of swapped class pairs, and dim Z4 = s + p.
The ranks are read off those counts; the tests check them against exact
GF(2) elimination of the differential matrix on every catalog group.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from itertools import zip_longest
from math import gcd, prod
from typing import Iterable, Sequence

from .analysis import ConjugacyProfile
from .coset import FiniteGroupRealization, element_order

IntMatrix = list[list[int]]


class CoefficientError(ValueError):
    """Coefficient system inconsistent with the group it should act through."""


# ---------------------------------------------------------------------------
# Smith normal form (exact, arbitrary precision)
# ---------------------------------------------------------------------------


def smith_normal_form(M: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Diagonal d1 | d2 | ... of the exact integer Smith normal form of M.

    Each round of step t moves the pivot d, the least nonzero |entry| of the
    trailing block (first in row-major order on a tie), to (t, t) and
    subtracts A[i][t] // d times row t from every later row and A[t][j] // d
    times column t from every later column.  A remainder left in row or
    column t is smaller than |d| and is the next round's pivot, so the
    rounds end.  Then a later row with an entry d does not divide is added
    to row t for another round, or d is made positive.  The tests run the
    same rounds with unimodular certificates U, V (U M V = D) as the oracle
    this diagonal must equal.
    """
    A = [list(map(int, row)) for row in M]
    n = len(A)
    m = len(A[0]) if n else 0
    t = 0
    while t < min(n, m):
        nonzero = [
            (abs(A[i][j]), i, j) for i in range(t, n) for j in range(t, m) if A[i][j]
        ]
        if not nonzero:
            break
        _, p, q = min(nonzero)
        A[t], A[p] = A[p], A[t]
        for row in A:
            row[t], row[q] = row[q], row[t]
        d = A[t][t]
        for i in range(t + 1, n):
            if c := A[i][t] // d:
                A[i] = [x - c * y for x, y in zip(A[i], A[t])]
        for j in range(t + 1, m):
            if c := A[t][j] // d:
                for row in A:
                    row[j] -= c * row[t]
        if any(A[i][t] for i in range(t + 1, n)) or any(A[t][t + 1 :]):
            continue
        bad = next((i for i in range(t + 1, n) if any(x % d for x in A[i])), None)
        if bad is not None:
            A[t] = [x + y for x, y in zip(A[t], A[bad])]
            continue
        A[t][t] = abs(d)
        t += 1
    return tuple(A[i][i] for i in range(min(n, m)))


def cokernel_invariants(M: Sequence[Sequence[int]], n_cols: int) -> tuple[int, ...]:
    """Invariant factors of Z^n_cols / row-span(M), in divisibility order.

    They are read off the Smith normal form's diagonal.  Entries 0 denote
    infinite cyclic factors; unit factors are dropped.
    """
    # no rows: Z^n_cols itself.  smith_normal_form([]) gives () as well, but
    # it is never called without a row, because a wrapper may read M[0]:
    # perfbench's tracer counts len(M) * len(M[0]) cells per call
    if not M:
        return (0,) * n_cols
    nonzero = [d for d in smith_normal_form(M) if d]
    return tuple(d for d in nonzero if d != 1) + (0,) * (n_cols - len(nonzero))


# ---------------------------------------------------------------------------
# Coefficient systems and Wh1
# ---------------------------------------------------------------------------

# the most invariant factors (generators) Gamma may have: every action matrix
# is r x r, so the time of wh1_general grows as r^3
MAX_GAMMA_RANK = 32


@dataclass(frozen=True)
class CoefficientSystem:
    """A finitely generated abelian coefficient group with a pi-action.

    ``invariant_factors``: one nonnegative integer per generator of Gamma
    (0 = infinite cyclic).  ``action`` maps each presentation generator of
    pi to an integer matrix on Gamma's generators; None means the trivial
    action.
    """

    invariant_factors: tuple[int, ...]
    action: tuple[tuple[tuple[int, ...], ...], ...] | None = None

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


@dataclass(frozen=True)
class WhiteheadGroupResult:
    """Wh1(pi; Gamma) as an abelian group by invariant factors."""

    invariant_factors: tuple[int, ...]


def _identity(r: int) -> IntMatrix:
    return [[int(i == j) for j in range(r)] for i in range(r)]


def _matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _reduce(mat: IntMatrix, factors: tuple[int, ...]) -> IntMatrix:
    """Entries of column k modulo the k-th invariant factor (0 = none)."""
    return [[x % f if f else x for x, f in zip(row, factors)] for row in mat]


class _ActionImage:
    """The matrices an action takes, numbered, with every product memoized.

    Each matrix is reduced modulo Gamma's torsion and gets an integer id the
    first time it is met; ``mul(a, b)`` is the id of the product of the
    matrices numbered a and b, computed once per ordered pair.  An action
    through pi takes at most |pi| matrices, one per element, so the ids and
    the table stay that small however many letters or edges ask for them.
    The identity has id 0, and ``gens[g]`` holds the ids of generator g's
    (matrix, inverse) pair, as :func:`check_action_consistency` numbers them.
    """

    def __init__(self, factors: tuple[int, ...]) -> None:
        self.factors = factors
        self.ids: dict[tuple[tuple[int, ...], ...], int] = {}
        self.mats: list[IntMatrix] = []
        self.products: dict[tuple[int, int], int] = {}
        self.number(_identity(len(factors)))
        self.gens: list[tuple[int, int]] = []

    def number(self, mat: IntMatrix) -> int:
        reduced = _reduce(mat, self.factors)
        key = tuple(map(tuple, reduced))
        if key not in self.ids:
            self.ids[key] = len(self.mats)
            self.mats.append(reduced)
        return self.ids[key]

    def mul(self, a: int, b: int) -> int:
        key = (a, b)
        if key not in self.products:
            self.products[key] = self.number(_matmul(self.mats[a], self.mats[b]))
        return self.products[key]

    def inverse(self, a: int, order: int) -> int:
        """The id of the inverse of matrix a, found as a power of it.

        ``order`` is the order in pi of the element matrix a acts by; an
        action through pi must reach the identity within that many powers.
        """
        power = 0
        for _ in range(order):
            nxt = self.mul(power, a)
            if nxt == 0:
                return power
            power = nxt
        raise CoefficientError(
            f"action matrix is not of order dividing {order}, the order of its"
            " generator in pi"
        )


def check_action_consistency(
    G: FiniteGroupRealization, coeff: CoefficientSystem
) -> _ActionImage:
    """Validate the action against pi; return its numbered image.

    The action must give one r x r integer matrix per presentation generator
    of pi.  Row k is the image of Gamma's k-th generator gamma_k, so each
    matrix must be an endomorphism of Gamma: f_k * M[k][j] = 0 modulo f_j
    (f = 0 meaning Z), or gamma_k would not keep its order f_k.  Each
    matrix must reach the identity, modulo Gamma's torsion, within as many
    powers as its generator's order in pi, and the products along every
    defining relator of pi must be the identity.  The powers and those
    products go through the numbered image of the action (``_ActionImage``):
    they multiply ids, and each distinct pair of matrices is multiplied
    once.  The image holds each generator's (matrix, inverse) ids.  Raises
    :class:`CoefficientError` otherwise, for a negative invariant factor, and
    for more than ``MAX_GAMMA_RANK`` invariant factors of Gamma, before any
    matrix is built.
    """
    r, factors = coeff.rank, coeff.invariant_factors
    if r > MAX_GAMMA_RANK:
        raise CoefficientError(
            f"Gamma has {r} invariant factors, more than {MAX_GAMMA_RANK}"
        )
    if any(f < 0 for f in factors):
        raise CoefficientError(f"invariant factors must be nonnegative: {factors}")
    n_gens = len(G.generator_images)
    if coeff.action is not None and (
        len(coeff.action) != n_gens
        or any(len(m) != r or any(len(row) != r for row in m) for m in coeff.action)
    ):
        raise CoefficientError(
            f"action needs one {r}x{r} matrix per generator of pi ({n_gens})"
        )
    if coeff.action is None:
        gen_mats = [_identity(r)] * n_gens
    else:
        gen_mats = [[list(row) for row in mat] for mat in coeff.action]
    for g, mat in enumerate(gen_mats):
        for k, fk in enumerate(factors):
            for j, fj in enumerate(factors):
                if (fk * mat[k][j]) % fj if fj else fk * mat[k][j]:
                    raise CoefficientError(
                        f"action of generator {g} is not an endomorphism of"
                        f" Gamma: row {k} does not respect the order {fk}"
                    )
    image = _ActionImage(factors)
    for mat, img in zip(gen_mats, G.generator_images):
        a = image.number(mat)
        image.gens.append((a, image.inverse(a, element_order(G, img))))
    for rel in G.source.relators:
        acc = 0  # the identity
        for g, s in rel.letters:
            acc = image.mul(acc, image.gens[g][s < 0])
        if acc:
            raise CoefficientError(
                f"action does not respect relator {rel.display(G.source.generators)}"
            )
    return image


def _coprime_base(values: Iterable[int]) -> list[int]:
    """Pairwise coprime integers > 1 whose powers multiply to each value.

    A value that shares a factor g with a base element b is split, with b,
    into g, b / g and its own cofactor; the product of what is left to place
    falls with each split, so the splitting ends.
    """
    base: list[int] = []
    for value in values:
        pending = [value]
        while pending:
            d = pending.pop()
            for i, b in enumerate(base):
                g = gcd(b, d)
                if g > 1:
                    del base[i]
                    pending += [x for x in (g, b // g, d // g) if x > 1]
                    break
            else:
                base.append(d)
    return base


def _invariant_chain(summands: list[int]) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups Z/d (d = 0: Z).

    Primary decomposition over a coprime base of the torsion orders (a base
    element plays the part of a prime, so no order is factored): each order
    is a product of powers b^e of base elements, and the k-th largest
    invariant factor is the product over b of the k-th largest power of b
    among the summands.  Units are dropped and one 0 follows per free
    summand, the form :func:`cokernel_invariants` reports.
    """
    torsion = Counter(d for d in summands if d > 1)
    powers = []
    for b in _coprime_base(torsion):
        exps = []
        for d, count in torsion.items():
            e = 0
            while d % b == 0:
                d, e = d // b, e + 1
            if e:
                exps += [e] * count
        powers.append([b**e for e in sorted(exps, reverse=True)])
    chain = [prod(column) for column in zip_longest(*powers, fillvalue=1)]
    return tuple(reversed(chain)) + (0,) * summands.count(0)


def wh1_general(
    G: FiniteGroupRealization, coeff: CoefficientSystem
) -> WhiteheadGroupResult:
    """Wh1(pi; Gamma) as a sum of centralizer coinvariants, one per class.

    The relations gamma.y ~ (gamma M(s)).(s y s^-1), one per generator image
    s, join the coordinates of each conjugacy class into a graph; the class
    of x contributes the cokernel of these relations on its coordinates.  A
    spanning tree grown from x eliminates them by row operations: the
    coordinate y is rewritten at x by a matrix Q_y, with Q_x = I, so that
    delta.y ~ (delta Q_y).x.  A tree edge y -> z by s sets Q_z = M(s)^-1 Q_y
    and its inverse P_z = P_y M(s); every other edge leaves the relation
    gamma Q_y = gamma M(s) Q_z at x, the rows of Q_y - M(s) Q_z = Q_y (I - C)
    with the loop C = P_y M(s) Q_z.  Q_y is an automorphism of Gamma, so the
    rows of I - C span the same relations.  The summand is the cokernel of
    Gamma's torsion rows and those rows, H0(C(x); Gamma) (see the module
    docstring), and it is cached by that set of rows; the summands merge
    into one divisibility chain.  Every matrix is an id of the action's
    numbered image, which holds at most one matrix per element of pi, so a
    class walk multiplies ids and each distinct pair, and each loop's rows,
    are computed once.  ``wh1_dense`` in the tests builds the whole relation
    matrix instead and must agree.
    """
    factors, r = coeff.invariant_factors, coeff.rank
    image = check_action_consistency(G, coeff)
    torsion = [[f * (i == k) for i in range(r)] for k, f in enumerate(factors) if f]
    steps: dict[int, tuple[list[int], tuple[int, int]]] = {}
    for g, img in enumerate(G.generator_images):
        if img and img not in steps:  # conjugating by the identity relates nothing
            steps[img] = (G.conjugation(g), image.gens[g])  # y -> s y s^-1
    loop_rows: dict[int, list[tuple[int, ...]]] = {}  # C -> rows of I - C
    cokernels: dict[frozenset, tuple[int, ...]] = {}
    tree: dict[int, tuple[int, int]] = {}  # y -> (Q_y, P_y = Q_y^-1)
    summands: list[int] = []
    for x in range(1, G.order):
        if x in tree:
            continue
        tree[x] = (0, 0)
        queue = [x]
        loops = set()
        for y in queue:  # grows while iterated: a FIFO walk over the class
            q, p = tree[y]
            for conj, (mat, mat_inv) in steps.values():
                z = conj[y]
                if z not in tree:
                    tree[z] = (image.mul(mat_inv, q), image.mul(p, mat))
                    queue.append(z)
                else:
                    loops.add(image.mul(p, image.mul(mat, tree[z][0])))
        rows = set()
        for c in loops:
            if c not in loop_rows:
                diff = [
                    [(i == j) - a for j, a in enumerate(row)] for i, row in enumerate(image.mats[c])
                ]
                loop_rows[c] = [row for row in map(tuple, _reduce(diff, factors)) if any(row)]
            rows.update(loop_rows[c])
        key = frozenset(rows)
        if key not in cokernels:
            cokernels[key] = cokernel_invariants(torsion + sorted(key), r)
        summands.extend(cokernels[key])
    return WhiteheadGroupResult(_invariant_chain(summands))


# ---------------------------------------------------------------------------
# Involution, differential, detection quotient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvolutionSpace:
    """Wh1(pi; Z/2) with the class-inversion involution and differential.

    Basis: nontrivial conjugacy classes (dimension s + 2p over Z/2).  The
    involution bar permutes the basis by class inversion, the profile's
    ``inversion_perm``; the differential at parity i is x + (-1)^i x-bar,
    which over Z/2 at i = 4 is id + bar.
    ``quotient_dim`` is the detection rank: positive exactly when the group
    is not ambivalent, in which case there are homeomorphisms
    pseudo-isotopic but not isotopic to the identity.
    """

    dim: int
    z4_dim: int
    quotient_dim: int


def involution_space(profile: ConjugacyProfile) -> InvolutionSpace:
    """Build the involution space of a conjugacy profile.

    id + bar has rank p, the number of swapped class pairs, so the detection
    quotient has dimension p and Z4 = ker(id + bar) has dimension s + p.
    Both are read off ``profile.paired_count``; the tests check them against
    exact GF(2) elimination of the differential matrix built from
    ``profile.inversion_perm``.
    """
    dim = profile.n_classes - 1
    p = profile.paired_count
    return InvolutionSpace(dim, dim - p, p)
