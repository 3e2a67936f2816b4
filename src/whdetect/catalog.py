"""Named 3-manifold group constructors and Seifert-invariant machinery.

Covers the finite (elliptic) families -- cyclic, dicyclic, binary
tetrahedral/octahedral/icosahedral -- plus dihedral cross-check groups,
and Seifert invariant data with the orientable-base and
nonorientable-base presentation families.  A one-directional
non-ambivalence checker handles the infinite Seifert groups: when the
regular fiber class is central and has order greater than two, the centre
(hence the group) cannot be ambivalent.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from .coset import (
    DEFAULT_MAX_COSETS,
    EnumerationBudgetExceeded,
    FiniteGroupRealization,
    element_order,
    realize_presentation,
)
from .words import MAX_WORD_LETTERS, Presentation, make_presentation


class SeifertError(ValueError):
    pass


class PresetError(ValueError):
    """A preset name that no catalog family holds."""


class Epsilon(str, enum.Enum):
    """Base-orbifold type of a Seifert fibration (o = orientable base)."""

    O1 = "o1"
    O2 = "o2"
    N1 = "n1"
    N2 = "n2"
    N3 = "n3"
    N4 = "n4"

    @property
    def orientable_base(self) -> bool:
        return self in (Epsilon.O1, Epsilon.O2)

    @property
    def fiber_central(self) -> bool:
        return self in (Epsilon.O1, Epsilon.N1)

    @property
    def orientable_total_space(self) -> bool:
        """Whether the 3-manifold is orientable: every orientation-reversing
        loop of the base reverses the fiber, and no other loop does."""
        return self in (Epsilon.O1, Epsilon.N2)

    @property
    def min_genus(self) -> int:
        """Least base genus of this type (Orlik, Seifert Manifolds, LNM 291, 5.2)."""
        return {Epsilon.O1: 0, Epsilon.N3: 2, Epsilon.N4: 3}.get(self, 1)


@dataclass(frozen=True)
class SeifertInvariants:
    """The tuple (b; (eps, g); (alpha_1, beta_1), ..., (alpha_r, beta_r))."""

    b: int
    epsilon: Epsilon
    genus: int
    exceptional: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.genus < self.epsilon.min_genus:
            raise SeifertError(
                f"base type {self.epsilon.value} requires genus >="
                f" {self.epsilon.min_genus}"
            )
        for alpha, beta in self.exceptional:
            if alpha < 2:
                raise SeifertError(f"exceptional fiber order alpha={alpha} < 2")
            if gcd(alpha, beta) != 1:
                raise SeifertError(f"({alpha},{beta}) not coprime")

    @property
    def spherical(self) -> bool:
        """Whether pi_1 is finite: orientable total space, chi > 0 and e != 0.

        A closed nonorientable 3-manifold has infinite pi_1 (Lefschetz); an
        orientable one is spherical exactly in this case (Scott, The
        geometries of 3-manifolds, 1983, section 3).  Otherwise the group is
        infinite and its fiber has infinite order.
        """
        return (
            self.epsilon.orientable_total_space
            and orbifold_euler_characteristic(self) > 0
            and euler_number(self) != 0
        )

    def display(self) -> str:
        fibers = ",".join(f"({a}:{b})" for a, b in self.exceptional)
        return f"Y(b={self.b}; ({self.epsilon.value},g={self.genus}); {fibers or '-'})"


def _epsilon_exponents(eps: Epsilon, genus: int) -> list[int]:
    """Conjugation exponent of the fiber under each base generator."""
    if eps in (Epsilon.O1, Epsilon.N1):
        return [1] * genus
    if eps in (Epsilon.O2, Epsilon.N2):
        return [-1] * genus
    if eps is Epsilon.N3:
        return [1] + [-1] * (genus - 1)
    return [1, 1] + [-1] * (genus - 2)


def seifert_presentation(s: SeifertInvariants) -> Presentation:
    """Fundamental group presentation from Seifert invariants.

    Orientable base: generators a_i, b_i (i <= g), q_j (j <= r), h; relators
    a_i h a_i^-1 h^-eps_i, b_i h b_i^-1 h^-eps_i, [q_j, h], q_j^alpha_j
    h^beta_j, and q_1...q_r [a_1,b_1]...[a_g,b_g] h^-b unless it is empty.
    Nonorientable base: v_i replace the a_i, b_i pairs and the long relator
    ends v_1^2...v_g^2.  The relators are text for :func:`make_presentation`;
    a :class:`SeifertError` comes first if they would exceed ``MAX_WORD_LETTERS``.
    """
    g = s.genus
    # the letters before free reduction with an orientable base, a bound otherwise
    letters = 12 * g + sum(a + abs(b) + 5 for a, b in s.exceptional) + abs(s.b)
    if letters > MAX_WORD_LETTERS:
        raise SeifertError(
            f"relators would hold {letters} letters, more than {MAX_WORD_LETTERS}"
        )
    eps = _epsilon_exponents(s.epsilon, g)
    if s.epsilon.orientable_base:
        base = [(f"{x}{i}", e) for i, e in enumerate(eps, 1) for x in "ab"]
        ends = [f"a{i} b{i} a{i}^-1 b{i}^-1" for i in range(1, g + 1)]
    else:
        base = [(f"v{i}", e) for i, e in enumerate(eps, 1)]
        ends = [f"v{i}^2" for i in range(1, g + 1)]
    qs = [f"q{j}" for j in range(1, len(s.exceptional) + 1)]
    relators = [f"{x} h {x}^-1 h^{-e}" for x, e in base]
    for q, (alpha, beta) in zip(qs, s.exceptional):
        relators += [f"{q} h {q}^-1 h^-1", f"{q}^{alpha} h^{beta}"]
    long_rel = qs + ends + ([f"h^{-s.b}"] if s.b else [])
    if long_rel:
        relators.append(" ".join(long_rel))
    return make_presentation([x for x, _ in base] + qs + ["h"], relators)


def orbifold_euler_characteristic(s: SeifertInvariants) -> Fraction:
    """chi of the base orbifold: 2-2g (orientable) or 2-g, minus cone defects."""
    base = 2 - 2 * s.genus if s.epsilon.orientable_base else 2 - s.genus
    return Fraction(base) - sum(
        1 - Fraction(1, alpha) for alpha, _ in s.exceptional
    )


def euler_number(s: SeifertInvariants) -> Fraction:
    """Rational Euler number -(b + sum beta_i/alpha_i)."""
    return -(Fraction(s.b) + sum(Fraction(b, a) for a, b in s.exceptional))


class FiberOrder(enum.Enum):
    INFINITE = "infinite"
    FINITE = "finite"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class FiberOrderResult:
    kind: FiberOrder
    order: Optional[int] = None  # order of the fiber class h when finite
    group: Optional[FiniteGroupRealization] = None


def fiber_order_rule(
    s: SeifertInvariants, budget: int = DEFAULT_MAX_COSETS
) -> FiberOrderResult:
    """Decide whether the fiber class h has infinite order.

    It does unless the datum is ``spherical``.  A spherical group is
    enumerated and the order of h measured directly rather than trusting
    any formula.
    """
    if not s.spherical:
        return FiberOrderResult(FiberOrder.INFINITE)
    p = seifert_presentation(s)
    try:
        G = realize_presentation(p, budget)
    except EnumerationBudgetExceeded:
        return FiberOrderResult(FiberOrder.UNDETERMINED)
    h_img = G.generator_images[p.rank - 1]  # h is the last generator
    return FiberOrderResult(FiberOrder.FINITE, element_order(G, h_img), G)


class Lemma74Verdict(enum.Enum):
    NOT_AMBIVALENT = "not_ambivalent"
    INCONCLUSIVE = "inconclusive"


def lemma74_check(
    s: SeifertInvariants, budget: int = DEFAULT_MAX_COSETS
) -> Lemma74Verdict:
    """Central-fiber criterion: fiber central and of order > 2 rules out
    ambivalence.  One-directional; anything else is inconclusive."""
    if not s.epsilon.fiber_central:
        return Lemma74Verdict.INCONCLUSIVE
    res = fiber_order_rule(s, budget)
    if res.kind is FiberOrder.INFINITE:
        return Lemma74Verdict.NOT_AMBIVALENT
    if res.kind is FiberOrder.FINITE and res.order is not None and res.order > 2:
        return Lemma74Verdict.NOT_AMBIVALENT
    return Lemma74Verdict.INCONCLUSIVE


class Goodness(str, enum.Enum):
    GOOD = "good"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class CatalogEntry:
    """A named group with expectations used by the classification tests.

    ``three_manifold``: whether the group belongs to the finite 3-manifold
    group families (the classification table covers exactly those).
    """

    name: str
    presentation: Presentation
    known_order: Optional[int] = None
    k1_trivial: bool = True
    goodness: Goodness = Goodness.GOOD
    expected_ambivalent: Optional[bool] = None
    three_manifold: bool = True


def cyclic(m: int) -> Presentation:
    return make_presentation(["a"], [f"a^{m}"])


def dicyclic(ell: int) -> Presentation:
    """Order 4*ell: <a, x | a^(2 ell) = 1, x^2 = a^ell, x^-1 a x = a^-1>."""
    if ell < 1:
        raise ValueError("dicyclic parameter must be >= 1")
    return make_presentation(
        ["a", "x"], [f"a^{2 * ell}", f"x^2 a^{-ell}", "x^-1 a x a"]
    )


def dihedral(k: int) -> Presentation:
    """Order 2k: <r, s | r^k, s^2, (rs)^2>."""
    return make_presentation(["r", "s"], [f"r^{k}", "s^2", "s r s r"])


def binary_polyhedral(p: int) -> Presentation:
    """<a, b | a^p = b^3 = (ab)^2>, p in {3, 4, 5}: the binary
    tetrahedral (24), octahedral (48), icosahedral (120) groups."""
    if p not in (3, 4, 5):
        raise ValueError("binary polyhedral parameter must be 3, 4 or 5")
    return make_presentation(
        ["a", "b"], [f"a^{p} b^-3", f"a^{p} b^-1 a^-1 b^-1 a^-1"]
    )


# family -> (order per parameter, least parameter, presentation builder,
# whether the member of a parameter is ambivalent, three_manifold)
_FAMILIES = {
    "cyclic": (1, 1, cyclic, lambda m: m <= 2, True),
    "dicyclic": (4, 1, dicyclic, lambda ell: ell % 2 == 0, True),
    "dihedral": (2, 2, dihedral, lambda k: True, False),
}


def _member(family: str, n: int) -> CatalogEntry:
    """The entry of the family's member with parameter n."""
    unit, _, build, ambivalent, three_manifold = _FAMILIES[family]
    return CatalogEntry(
        name=f"{family}_{unit * n}", presentation=build(n), known_order=unit * n,
        expected_ambivalent=ambivalent(n), three_manifold=three_manifold,
    )


# the three binary polyhedral groups by name, each built once
_BINARY_POLYHEDRAL = {
    name: CatalogEntry(
        name=name, presentation=binary_polyhedral(p), known_order=order,
        expected_ambivalent=ambivalent,
    )
    for name, p, order, ambivalent in (
        ("binary_tetrahedral_24", 3, 24, False),
        ("binary_octahedral_48", 4, 48, True),
        ("binary_icosahedral_120", 5, 120, True),
    )
}


# the largest max_order builtin_groups accepts: the relators of its entries
# hold about 0.6 * max_order^2 letters, some 37 MiB at this cap
MAX_CATALOG_ORDER = 1000


def builtin_groups(max_order: int) -> list[CatalogEntry]:
    """Catalog entries up to the given order, expectations prefilled.

    Ambivalent finite 3-manifold groups are exactly: the cyclic groups of
    order 1 and 2, the dicyclic groups of order divisible by 8, the binary
    octahedral group and the binary icosahedral group.  Dihedral groups are
    included as non-3-manifold cross-checks (all of them are ambivalent).
    """
    if not 1 <= max_order <= MAX_CATALOG_ORDER:
        raise ValueError(f"max_order must be in 1..{MAX_CATALOG_ORDER}")
    entries = [_member("cyclic", m) for m in range(1, max_order + 1)]
    entries += [_member("dicyclic", ell) for ell in range(1, max_order // 4 + 1)]
    entries += [e for e in _BINARY_POLYHEDRAL.values() if e.known_order <= max_order]
    entries += [_member("dihedral", k) for k in range(2, min(max_order // 2, 12) + 1)]
    return entries


_FAMILY_MEMBER = re.compile(r"([a-z]+)_([1-9][0-9]*)")


def get_preset(name: str) -> CatalogEntry:
    """The catalog group named ``<family>_<order>``, e.g. ``dicyclic_12``.

    Every member of the cyclic, dicyclic and dihedral families is accepted,
    also beyond :func:`builtin_groups`; a name that list holds gives its entry.
    Raises :class:`PresetError` for any other name.
    """
    if name in _BINARY_POLYHEDRAL:
        return _BINARY_POLYHEDRAL[name]
    match = _FAMILY_MEMBER.fullmatch(name)
    if match and match.group(1) in _FAMILIES:
        unit, least = _FAMILIES[match.group(1)][:2]
        param, rest = divmod(int(match.group(2)), unit)
        if rest == 0 and param >= least:
            return _member(match.group(1), param)
    raise PresetError(f"unknown preset {name!r}")


def seifert_goodness(s: SeifertInvariants) -> Goodness:
    """Conservative goodness flag for a Seifert group.

    Finite (``spherical``) groups are good; so are the nonnegative-curvature
    base cases with genus at most 1 (extensions of good groups by good
    groups).  Everything else stays unknown, never silently good.
    """
    if s.spherical or (s.genus <= 1 and orbifold_euler_characteristic(s) >= 0):
        return Goodness.GOOD
    return Goodness.UNKNOWN


def seifert_k1_trivial(s: SeifertInvariants) -> Optional[bool]:
    """k1 flag for the Seifert families the detection theorem covers.

    Type o1 data of genus <= 1 (over the sphere or the torus, with or
    without exceptional fibers) and the finite (``spherical``) cases have
    trivial first k-invariant; elsewhere the flag is left undetermined
    (None) and the pipeline refuses a verdict.
    """
    if s.spherical or (s.epsilon is Epsilon.O1 and s.genus <= 1):
        return True
    return None
