"""Expected outputs, computed without calling the whdetect function under test.

Every check compares index-free facts only (orders, class counts, ranks,
invariant factors, verdicts) or compares two results computed in the same
process from the same realization, so a correct renumbering of group
elements is never reported as a failure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

# ---------------------------------------------------------------------------
# Detection reports
# ---------------------------------------------------------------------------


def catalog_class_data(name: str) -> tuple[int, int, int]:
    """(class count, s, p) of a catalog group, from its family's closed form.

    s counts nontrivial self-inverse classes and p counts swapped pairs
    {c, c-bar}; the group is ambivalent iff p = 0.
    """
    family, _, size = name.rpartition("_")
    order = int(size)
    if family == "cyclic":
        s = 1 if order % 2 == 0 else 0
        return order, s, (order - 1 - s) // 2
    if family == "dicyclic":
        # classes: 1, z, {a^k, a^-k} for 0 < k < ell, and two classes of x-type
        # elements, which x -> x^-1 = x a^ell swaps exactly when ell is odd
        ell = order // 4
        if ell % 2:
            return ell + 3, ell, 1
        return ell + 3, ell + 2, 0
    if family == "dihedral":
        k = order // 2
        classes = (k + 3) // 2 if k % 2 else k // 2 + 3
        return classes, classes - 1, 0
    if family == "binary_tetrahedral":
        return 7, 2, 2
    if family in ("binary_octahedral", "binary_icosahedral"):
        classes = {48: 8, 120: 9}[order]
        return classes, classes - 1, 0
    raise KeyError(f"no closed form for {name!r}")


def expected_verdict(
    nonambivalent: Optional[bool], k1_trivial: Optional[bool], good: bool
) -> str:
    """The detection gate: both preconditions, then certified non-ambivalence."""
    if k1_trivial is not True or not good or nonambivalent is None:
        return "preconditions_unmet"
    return "detectable" if nonambivalent else "not_detectable_by_theta"


def check_fields(report, expected: dict) -> Optional[str]:
    """First report field that differs from its expected value, if any."""
    for key, want in expected.items():
        if key == "basis_len":
            got = len(report.detection_basis)
        elif key == "has_witness":
            got = report.witness is not None
        else:
            got = getattr(report, key)
        if got != want:
            return f"{report.name}: {key} = {got!r}, expected {want!r}"
    return None


def finite_expectation(
    order: int, classes: int, s: int, p: int, verdict: str, lemma74=None
) -> dict:
    """Expected index-free report fields of a finite group."""
    return {
        "order": order,
        "class_count": classes,
        "ambivalent": p == 0,
        "has_witness": p > 0,
        "detection_rank": p,
        "wh1_dim": classes - 1,
        "z4_dim": s + p,
        "basis_len": p,
        "verdict": verdict,
        "lemma74": lemma74,
    }


def infinite_expectation(ambivalent, verdict: str, lemma74=None, **extra) -> dict:
    """Expected report fields of an input with no finite realization."""
    want = {
        "order": None,
        "class_count": None,
        "ambivalent": ambivalent,
        "has_witness": False,
        "detection_rank": None,
        "wh1_dim": None,
        "z4_dim": None,
        "basis_len": 0,
        "verdict": verdict,
        "lemma74": lemma74,
    }
    want.update(extra)
    return want


def seifert_chi(orientable: bool, genus: int, alphas: Sequence[int]) -> Fraction:
    """Euler characteristic of the base orbifold."""
    base = 2 - 2 * genus if orientable else 2 - genus
    return Fraction(base) - sum(1 - Fraction(1, a) for a in alphas)


# ---------------------------------------------------------------------------
# Wh1 with coefficients
# ---------------------------------------------------------------------------


def _prime_powers(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def invariant_factors(cyclic_orders: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups Z/m (m = 0: Z).

    Torsion factors ascend in divisibility order, units are dropped and one
    0 follows per free summand -- the form ``wh1_general`` reports.
    """
    free = sum(1 for m in cyclic_orders if m == 0)
    exponents: dict[int, list[int]] = {}
    for m in cyclic_orders:
        if m > 1:
            for p, e in _prime_powers(m).items():
                exponents.setdefault(p, []).append(e)
    length = max((len(v) for v in exponents.values()), default=0)
    factors = []
    for j in range(length):
        f = 1
        for p, es in exponents.items():
            es = sorted(es, reverse=True)
            if j < len(es):
                f *= p ** es[j]
        factors.append(f)
    return tuple(sorted(factors)) + (0,) * free


def element_signs(G, gen_signs: Sequence[int]) -> list[int]:
    """The sign character on every element, spread along the Cayley graph."""
    signs = [0] * G.order
    signs[0] = 1
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for img, eps in zip(G.generator_images, gen_signs):
                for b in (G.mul[a][img], G.mul[a][G.inv[img]]):
                    if not signs[b]:
                        signs[b] = signs[a] * eps
                        nxt.append(b)
        frontier = nxt
    return signs


def expected_wh1(G, gamma: Sequence[int], gen_signs: Optional[Sequence[int]]) -> tuple[int, ...]:
    """Wh1(pi; Gamma) = sum over nontrivial classes [x] of H0(C(x); Gamma).

    Brute force over the multiplication table: classes by all-pairs
    conjugation, centralizers by testing every element.  Under a sign
    action H0(C(x); Gamma) is Gamma / 2 Gamma when some centralizing
    element acts by -1, and Gamma otherwise.
    """
    n = G.order
    mul, inv = G.mul, G.inv
    signs = element_signs(G, gen_signs) if gen_signs else [1] * n
    halved = tuple(2 if m % 2 == 0 else 1 for m in gamma)
    seen = [False] * n
    seen[0] = True
    summands: list[int] = []
    for x in range(1, n):
        if seen[x]:
            continue
        for h in range(n):
            seen[mul[mul[inv[h]][x]][h]] = True
        twisted = any(signs[h] < 0 and mul[h][x] == mul[x][h] for h in range(n))
        summands.extend(halved if twisted else gamma)
    return invariant_factors(summands)


def sign_action_consistent(relators, gen_signs: Sequence[int]) -> bool:
    """Whether generator signs respect every relator (exponent-sum parity)."""
    for rel in relators:
        prod = 1
        for g, _ in rel:
            prod *= gen_signs[g]
        if prod != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Steinberg words
# ---------------------------------------------------------------------------


def reference_evaluate(G, n: int, letters) -> list[list[dict[int, int]]]:
    """Image of a Steinberg word by column operations over dict coefficients.

    ``letters`` are ``(i, j, {element: coefficient})`` with 1-based indices;
    right-multiplying by I + lam E_ij adds column i times lam to column j.
    """
    mul = G.mul
    M = [[({0: 1} if r == c else {}) for c in range(n)] for r in range(n)]
    for i, j, lam in letters:
        for r in range(n):
            src = M[r][i - 1]
            if not src:
                continue
            dst = dict(M[r][j - 1])
            for g, c in src.items():
                row = mul[g]
                for h, e in lam.items():
                    k = row[h]
                    dst[k] = dst.get(k, 0) + c * e
            M[r][j - 1] = {k: v for k, v in dst.items() if v}
    return M


def expected_pd(M: list[list[dict[int, int]]]):
    """(perm, diagonal) when M is a permutation times a diagonal of +-g."""
    n = len(M)
    perm = [-1] * n
    diag: list = [None] * n
    for i, row in enumerate(M):
        nz = [j for j in range(n) if row[j]]
        if len(nz) != 1 or diag[nz[0]] is not None:
            return None
        j = nz[0]
        if len(row[j]) != 1:
            return None
        ((g, c),) = row[j].items()
        if c not in (1, -1):
            return None
        perm[i] = j
        diag[j] = (c, g)
    return tuple(perm), tuple(diag)


def check_matrix(M, want) -> Optional[str]:
    """First entry of an evaluated matrix that differs from the expected one.

    ``want`` holds group-ring elements built with the public
    ``GroupRingElement.from_dict``, so the comparison goes through the
    element's own equality and not its internal representation.
    """
    if M.n != len(want):
        return f"dimension {M.n}, expected {len(want)}"
    for r, row in enumerate(want):
        for c, elem in enumerate(row):
            if M.entries[r][c] != elem:
                return f"entry ({r + 1},{c + 1}) differs from the reference"
    return None


def check_pd(pd, want) -> Optional[str]:
    """Compare a ``pd_decompose`` result with the reference PD form."""
    got = None if pd is None else (tuple(pd.perm), tuple(pd.diagonal))
    if got != want:
        return f"pd_decompose gave {got!r}, expected {want!r}"
    return None
