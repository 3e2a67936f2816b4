"""First Whitehead groups with coefficients, their duality involution, and
the detection quotient.

Wh1(pi; Gamma), for any finitely generated Gamma with a pi-action, is the
quotient of Gamma[pi] by the twisted conjugation relations and the identity
coordinate.  The relations keep each conjugacy class apart, and by
Shapiro's lemma for the conjugation permutation module (Brown, Cohomology
of Groups, ch. III; Oliver, Whitehead Groups of Finite Groups, 1988)

    Wh1(pi; Gamma) = sum over classes [x] != 1 of H0(C(x); Gamma).

``wh1_general`` computes each summand as the cokernel of an r-column
matrix: Gamma's torsion and I - M_c for the Schreier generators c of the
centralizer C(x) found while walking the class, each read off the diagonal
of an exact Smith normal form.  The tests certify that diagonal against a
reference that also builds the unimodular transforms, and compare
``wh1_general`` with ``wh1_dense``, one Smith normal form of the whole
(r * |pi|)-column relation matrix.  For Gamma = Z/2 with the trivial
action every centralizer acts trivially, so each summand is Z/2 and
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
from math import gcd
from typing import Sequence

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

    def action_of_generator(self, g: int) -> list[list[int]]:
        if self.action is None:
            return _identity(self.rank)
        return [list(row) for row in self.action[g]]


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


def _inverse(mat: IntMatrix, factors: tuple[int, ...], order: int) -> IntMatrix:
    """mat^-1 as a power of mat, modulo Gamma's torsion.

    ``order`` is the order in pi of the element mat acts by; an action
    through pi must reach the identity within that many powers.
    """
    ident = _reduce(_identity(len(factors)), factors)
    power = _identity(len(factors))
    for _ in range(order):
        nxt = _reduce(_matmul(power, mat), factors)
        if nxt == ident:
            return power
        power = nxt
    raise CoefficientError(
        f"action matrix is not of order dividing {order}, the order of its"
        " generator in pi"
    )


def check_action_consistency(
    G: FiniteGroupRealization, coeff: CoefficientSystem
) -> list[tuple[IntMatrix, IntMatrix]]:
    """Validate the action against pi; return each generator's (matrix, inverse).

    The action must give one r x r integer matrix per presentation generator
    of pi.  Row k is the image of Gamma's k-th generator gamma_k, so each
    matrix must be an endomorphism of Gamma: f_k * M[k][j] = 0 modulo f_j
    (f = 0 meaning Z), or gamma_k would not keep its order f_k.  Each
    matrix must reach the identity, modulo Gamma's torsion, within as many
    powers as its generator's order in pi, and the products along every
    defining relator of pi must be the identity.  Raises
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
    gen_mats = [coeff.action_of_generator(g) for g in range(n_gens)]
    for g, mat in enumerate(gen_mats):
        for k, fk in enumerate(factors):
            for j, fj in enumerate(factors):
                if (fk * mat[k][j]) % fj if fj else fk * mat[k][j]:
                    raise CoefficientError(
                        f"action of generator {g} is not an endomorphism of"
                        f" Gamma: row {k} does not respect the order {fk}"
                    )
    actions = [
        (mat, _inverse(mat, factors, element_order(G, img)))
        for mat, img in zip(gen_mats, G.generator_images)
    ]
    ident = _reduce(_identity(r), factors)
    for rel in G.source.relators:
        acc = _identity(r)
        for g, s in rel.letters:
            acc = _reduce(_matmul(acc, actions[g][0 if s > 0 else 1]), factors)
        if acc != ident:
            raise CoefficientError(
                f"action does not respect relator {rel.display(G.source.generators)}"
            )
    return actions


def _invariant_chain(summands: list[int]) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups Z/d (d = 0: Z).

    Pairwise gcd/lcm steps (Z/a + Z/b = Z/gcd + Z/lcm) turn the torsion
    orders into a divisibility chain; units are dropped and one 0 follows
    per free summand, the form :func:`cokernel_invariants` reports.
    """
    torsion = sorted(d for d in summands if d > 1)
    for i in range(len(torsion)):
        for j in range(i + 1, len(torsion)):
            a, b = torsion[i], torsion[j]
            if b % a:
                g = gcd(a, b)
                torsion[i], torsion[j] = g, a // g * b
    return tuple(d for d in torsion if d != 1) + (0,) * summands.count(0)


def wh1_general(
    G: FiniteGroupRealization, coeff: CoefficientSystem
) -> WhiteheadGroupResult:
    """Wh1(pi; Gamma) as a sum of centralizer coinvariants, one per class.

    The relations gamma.g ~ (s.gamma).(s g s^-1), one per generator image s,
    join the coordinates of each conjugacy class into a graph.  A spanning
    tree grown from x identifies each coordinate y with x through P_y, the
    product of action matrices along its tree path; every other edge y -> z
    by s closes a cycle, a Schreier generator c of the centralizer C(x)
    acting by M_c = P_y M(s) P_z^-1.  The summand of the class is
    H0(C(x); Gamma), the cokernel of Gamma's torsion rows and the rows of
    I - M_c (Shapiro's lemma, see the module docstring); the summands merge
    into one divisibility chain.  ``wh1_dense`` in the tests builds the whole
    relation matrix instead and must agree.
    """
    actions = check_action_consistency(G, coeff)
    factors, r = coeff.invariant_factors, coeff.rank
    torsion = [[f * (i == k) for i in range(r)] for k, f in enumerate(factors) if f]
    ident = _reduce(_identity(r), factors)
    steps: dict[int, tuple[list[int], tuple[IntMatrix, IntMatrix]]] = {}
    for g, (img, pair) in enumerate(zip(G.generator_images, actions)):
        if img and img not in steps:  # conjugating by the identity relates nothing
            steps[img] = (G.conjugation(g), pair)  # y -> s y s^-1
    cokernels: dict[frozenset, tuple[int, ...]] = {}
    tree: dict[int, tuple[IntMatrix, IntMatrix]] = {}  # y -> (P_y, P_y^-1)
    summands: list[int] = []
    for x in range(1, G.order):
        if x in tree:
            continue
        tree[x] = (ident, ident)
        queue = [x]
        loops = set()
        for y in queue:  # grows while iterated: a FIFO walk over the class
            p, p_inv = tree[y]
            for conj, (mat, mat_inv) in steps.values():
                z = conj[y]
                path = _reduce(_matmul(p, mat), factors)
                if z not in tree:
                    tree[z] = (path, _reduce(_matmul(mat_inv, p_inv), factors))
                    queue.append(z)
                else:
                    loop = _reduce(_matmul(path, tree[z][1]), factors)
                    if loop != ident:
                        loops.add(tuple(map(tuple, loop)))
        key = frozenset(loops)
        if key not in cokernels:
            rows = torsion + [
                [int(i == j) - c for j, c in enumerate(row)]
                for loop in sorted(key)
                for i, row in enumerate(loop)
            ]
            cokernels[key] = cokernel_invariants(rows, r)
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
