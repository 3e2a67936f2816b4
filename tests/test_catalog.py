import hashlib
import itertools
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from whdetect.analysis import is_ambivalent
from whdetect.catalog import (
    CatalogEntry,
    Epsilon,
    FiberOrder,
    Goodness,
    Lemma74Verdict,
    PresetError,
    SeifertError,
    SeifertInvariants,
    builtin_groups,
    cyclic,
    dicyclic,
    euler_number,
    fiber_order_rule,
    get_preset,
    lemma74_check,
    orbifold_euler_characteristic,
    seifert_goodness,
    seifert_k1_trivial,
    seifert_presentation,
)
from whdetect.coset import element_order, realize_presentation

THREE_TORUS = SeifertInvariants(0, Epsilon.O1, 1)


# ---------------------------------------------------------------------------
# Seifert invariants: validation and numeric invariants
# ---------------------------------------------------------------------------


def test_invalid_invariants_rejected():
    with pytest.raises(SeifertError):
        SeifertInvariants(0, Epsilon.O1, -1)
    with pytest.raises(SeifertError):
        SeifertInvariants(0, Epsilon.N1, 0)  # nonorientable base needs g >= 1
    with pytest.raises(SeifertError):
        SeifertInvariants(1, Epsilon.O2, 0)  # o2 needs g >= 1
    with pytest.raises(SeifertError):
        SeifertInvariants(0, Epsilon.N3, 1)  # n3 needs g >= 2
    with pytest.raises(SeifertError):
        SeifertInvariants(0, Epsilon.N4, 2)  # n4 needs g >= 3
    with pytest.raises(SeifertError):
        SeifertInvariants(0, Epsilon.O1, 0, ((1, 1),))  # alpha < 2
    with pytest.raises(SeifertError):
        SeifertInvariants(0, Epsilon.O1, 0, ((4, 2),))  # not coprime


def test_orbifold_euler_characteristic():
    assert orbifold_euler_characteristic(THREE_TORUS) == 0
    s = SeifertInvariants(0, Epsilon.O1, 0, ((2, 1), (3, 1), (5, 4)))
    assert orbifold_euler_characteristic(s) == Fraction(1, 30)
    n = SeifertInvariants(0, Epsilon.N1, 2)
    assert orbifold_euler_characteristic(n) == 0


def test_euler_number():
    assert euler_number(THREE_TORUS) == 0
    s = SeifertInvariants(1, Epsilon.O1, 0, ((5, 2),))
    assert euler_number(s) == Fraction(-7, 5)


# ---------------------------------------------------------------------------
# Presentations from Seifert data
# ---------------------------------------------------------------------------


def test_three_torus_presentation_is_z3():
    p = seifert_presentation(THREE_TORUS)
    assert [g.name for g in p.generators] == ["a1", "b1", "h"]
    # fiber is central (o1) and the long relator is [a1,b1] h^0: Z^3,
    # so every relator must be a commutator-type word
    assert len(p.relators) == 3


def test_seifert_presentations_are_pinned():
    """The displayed presentations of an 11,400-datum grid hash to a pinned
    digest: a rewrite of the builder keeps every generator and relator."""
    fibers = [
        (a, b) for a in range(2, 6) for b in range(1 - a, a) if b and gcd(a, b) == 1
    ]
    digest = hashlib.sha256()
    for eps in Epsilon:
        for g in range(eps.min_genus, eps.min_genus + 2):
            for b in range(-2, 3):
                for r in range(3):
                    for f in itertools.combinations_with_replacement(fibers, r):
                        p = seifert_presentation(SeifertInvariants(b, eps, g, f))
                        digest.update((p.display() + "\n").encode())
    assert digest.hexdigest() == (
        "9a4493926e3e9af153f738dc022a7f103169b86be762265a2a78228c7effd220"
    )


def test_lens_style_datum_gives_cyclic_group():
    # no exceptional fibers, base S^2: pi_1 = Z/|b|
    for b in (1, 3, 7):
        s = SeifertInvariants(b, Epsilon.O1, 0)
        res = fiber_order_rule(s, 10_000)
        assert res.kind is FiberOrder.FINITE
        assert res.group.order == b
        assert res.order == b


def test_poincare_sphere_datum():
    # (b=-1; (o1,0); (2,1),(3,1),(5,1)) has binary icosahedral group
    s = SeifertInvariants(-1, Epsilon.O1, 0, ((2, 1), (3, 1), (5, 1)))
    res = fiber_order_rule(s, 10_000)
    assert res.kind is FiberOrder.FINITE
    assert res.group.order == 120
    assert is_ambivalent(res.group).ambivalent


def test_exceptional_fiber_group_order():
    # (b=1; (o1,0); (5,2)): cyclic of order 5*1 + 2 = 7
    s = SeifertInvariants(1, Epsilon.O1, 0, ((5, 2),))
    res = fiber_order_rule(s, 10_000)
    assert res.kind is FiberOrder.FINITE and res.group.order == 7


def test_least_genus_of_each_base_type_is_accepted():
    for eps in Epsilon:
        s = SeifertInvariants(0, eps, eps.min_genus)
        assert len(seifert_presentation(s).generators) == (
            2 * s.genus if eps.orientable_base else s.genus
        ) + 1


def test_fiber_central_for_o1_n1_only():
    assert Epsilon.O1.fiber_central and Epsilon.N1.fiber_central
    for eps in (Epsilon.O2, Epsilon.N2, Epsilon.N3, Epsilon.N4):
        assert not eps.fiber_central


def test_h_central_in_realized_o1_group():
    s = SeifertInvariants(3, Epsilon.O1, 0, ((2, 1),))
    res = fiber_order_rule(s, 10_000)
    G = res.group
    h = G.generator_images[-1]
    assert all(G.mul[g][h] == G.mul[h][g] for g in range(G.order))


# ---------------------------------------------------------------------------
# Infinite-order rule and the central-fiber criterion
# ---------------------------------------------------------------------------


def test_fiber_order_rule_infinite_cases():
    assert fiber_order_rule(THREE_TORUS).kind is FiberOrder.INFINITE
    # chi > 0 but e = 0: S^2 x S^1 style
    flat = SeifertInvariants(0, Epsilon.O1, 0)
    assert fiber_order_rule(flat).kind is FiberOrder.INFINITE
    hyper = SeifertInvariants(1, Epsilon.O1, 2)
    assert fiber_order_rule(hyper).kind is FiberOrder.INFINITE
    # chi > 0 and e != 0 on a nonorientable total space: decided without
    # enumerating (a budget of 1 would run out)
    nonorientable = SeifertInvariants(1, Epsilon.N1, 1)
    assert orbifold_euler_characteristic(nonorientable) > 0
    assert euler_number(nonorientable) != 0
    assert fiber_order_rule(nonorientable, 1).kind is FiberOrder.INFINITE


# every base type at genus min..min+2, b in [-3, 3], at most two fibers of order <= 5
_FIBERS = [(a, b) for a in range(2, 6) for b in range(1, a) if gcd(a, b) == 1]
_GRID = [
    SeifertInvariants(b, eps, g, fibers)
    for eps in Epsilon
    for g in range(eps.min_genus, eps.min_genus + 3)
    for b in range(-3, 4)
    for r in range(3)
    for fibers in itertools.combinations_with_replacement(_FIBERS, r)
]


def test_fiber_order_rule_enumerates_exactly_the_spherical_data():
    """Budget 1 leaves only the trivial group finite, so any enumeration ends
    FINITE or UNDETERMINED, and only a spherical datum is enumerated."""
    kinds = {s: fiber_order_rule(s, 1).kind for s in _GRID}
    assert all((kind is FiberOrder.INFINITE) == (not s.spherical) for s, kind in kinds.items())
    assert set(kinds.values()) == set(FiberOrder)


def test_spherical_data_are_finite_good_and_k1_trivial():
    spherical = [s for s in _GRID if s.spherical]
    assert len(spherical) > 400
    for s in spherical:
        assert fiber_order_rule(s, 2_000).kind is FiberOrder.FINITE, s
        assert seifert_goodness(s) is Goodness.GOOD, s
        assert seifert_k1_trivial(s) is True, s


def test_orientable_total_space_is_o1_and_n2():
    assert [e for e in Epsilon if e.orientable_total_space] == [Epsilon.O1, Epsilon.N2]


def _base_chi(orientable_base, alphas):
    return Fraction(2 if orientable_base else 1) - sum(1 - Fraction(1, a) for a in alphas)


# fiber orders <= 5, at most three, over S^2 (o1, genus 0) and RP^2 (n2, genus 1)
# with positive orbifold Euler characteristic
_SPHERICAL_FIBERS = {
    eps: [
        alphas
        for r in range(4)
        for alphas in itertools.combinations_with_replacement(range(2, 6), r)
        if _base_chi(eps is Epsilon.O1, alphas) > 0
    ]
    for eps in (Epsilon.O1, Epsilon.N2)
}


@st.composite
def spherical_seifert_data(draw):
    eps = draw(st.sampled_from(sorted(_SPHERICAL_FIBERS)))
    fibers = tuple(
        (a, draw(st.sampled_from([b for b in range(1, a) if gcd(a, b) == 1])))
        for a in draw(st.sampled_from(_SPHERICAL_FIBERS[eps]))
    )
    return SeifertInvariants(draw(st.integers(-3, 2)), eps, 0 if eps is Epsilon.O1 else 1, fibers)


@settings(max_examples=100, deadline=None)
@given(s=spherical_seifert_data())
def test_seifert_group_order_oracle(s):
    """|pi_1| = 4|e|/chi^2 over a good base (degree of the orbifold cover by S^3;
    Scott, The geometries of 3-manifolds, 1983, section 3) and |e| * prod(alpha_i)
    over the bad teardrop and spindle bases, whose total spaces are lens spaces."""
    alphas = sorted(a for a, _ in s.exceptional)
    e = abs(Fraction(s.b) + sum(Fraction(b, a) for a, b in s.exceptional))
    chi = _base_chi(s.epsilon is Epsilon.O1, alphas)
    assume(e != 0)
    bad = s.epsilon is Epsilon.O1 and (len(alphas) == 1 or len(set(alphas)) == 2 == len(alphas))
    want = e * prod(alphas) if bad else 4 * e / chi**2
    assert want.denominator == 1
    res = fiber_order_rule(s, 20_000)
    assume(res.kind is not FiberOrder.UNDETERMINED)  # the budget ran out
    assert res.kind is FiberOrder.FINITE
    assert res.group.order == want


def test_lemma74_three_torus():
    assert lemma74_check(THREE_TORUS) is Lemma74Verdict.NOT_AMBIVALENT


@pytest.mark.parametrize("b", [0, 2, -2, 5, -5])
def test_lemma74_torus_bundles(b):
    s = SeifertInvariants(b, Epsilon.O1, 1)
    assert lemma74_check(s) is Lemma74Verdict.NOT_AMBIVALENT


def test_lemma74_finite_large_fiber():
    # Z/3 with h of order 3 > 2
    s = SeifertInvariants(3, Epsilon.O1, 0)
    assert lemma74_check(s, 10_000) is Lemma74Verdict.NOT_AMBIVALENT


def test_lemma74_inconclusive_cases():
    # noncentral fiber: criterion does not apply
    s = SeifertInvariants(0, Epsilon.O2, 1)
    assert lemma74_check(s) is Lemma74Verdict.INCONCLUSIVE
    # central fiber of order <= 2
    small = SeifertInvariants(2, Epsilon.O1, 0)
    assert lemma74_check(small, 10_000) is Lemma74Verdict.INCONCLUSIVE


def test_lemma74_n1_genus2():
    s = SeifertInvariants(0, Epsilon.N1, 2)
    assert lemma74_check(s) is Lemma74Verdict.NOT_AMBIVALENT


# ---------------------------------------------------------------------------
# Builtin catalog
# ---------------------------------------------------------------------------


def test_builtin_orders_enumerate_correctly():
    for entry in builtin_groups(48):
        G = realize_presentation(entry.presentation, 10_000)
        assert G.order == entry.known_order, entry.name


def test_builtin_expectations_layout():
    names = {e.name for e in builtin_groups(24)}
    assert {"cyclic_1", "cyclic_24", "dicyclic_8", "binary_tetrahedral_24"} <= names
    assert "binary_octahedral_48" not in names
    assert all(
        not e.three_manifold for e in builtin_groups(24) if "dihedral" in e.name
    )


def test_get_preset():
    e = get_preset("dicyclic_12")
    assert isinstance(e, CatalogEntry)
    assert e.known_order == 12 and e.expected_ambivalent is False
    with pytest.raises(PresetError):
        get_preset("nope")


def test_get_preset_is_the_builtin_entry():
    for entry in builtin_groups(240):
        assert get_preset(entry.name) == entry, entry.name


def test_get_preset_accepts_larger_members():
    dic = get_preset("dicyclic_4000")
    assert (dic.known_order, dic.expected_ambivalent) == (4000, True)
    assert dic.presentation == dicyclic(1000)
    cyc = get_preset("cyclic_1000")
    assert (cyc.known_order, cyc.expected_ambivalent) == (1000, False)
    assert cyc.presentation == cyclic(1000)


@pytest.mark.parametrize(
    "name",
    ["dicyclic_6", "cyclic_0", "cyclic_05", "binary_tetrahedral_48", "foo_4",
     "dihedral_2", "cyclic_", "cyclic_-3", "cyclic_\u0663", "Cyclic_4", " cyclic_4"],
)
def test_get_preset_rejects_non_canonical_names(name):
    with pytest.raises(PresetError):
        get_preset(name)


def test_dicyclic_central_element():
    G = realize_presentation(get_preset("dicyclic_12").presentation, 1000)
    x = G.generator_images[1]
    x2 = G.mul[x][x]
    assert element_order(G, x2) == 2
    assert all(G.mul[g][x2] == G.mul[x2][g] for g in range(G.order))


# ---------------------------------------------------------------------------
# Flag policies
# ---------------------------------------------------------------------------


def test_goodness_policy():
    assert seifert_goodness(THREE_TORUS) is Goodness.GOOD
    assert seifert_goodness(SeifertInvariants(1, Epsilon.O1, 0)) is Goodness.GOOD
    assert seifert_goodness(SeifertInvariants(1, Epsilon.O1, 2)) is Goodness.UNKNOWN


def test_k1_policy():
    assert seifert_k1_trivial(THREE_TORUS) is True
    assert seifert_k1_trivial(SeifertInvariants(1, Epsilon.O1, 0)) is True
    assert seifert_k1_trivial(SeifertInvariants(1, Epsilon.N2, 1)) is True  # finite, order 4
    assert seifert_k1_trivial(SeifertInvariants(0, Epsilon.O2, 1)) is None
    assert seifert_k1_trivial(SeifertInvariants(1, Epsilon.N1, 1)) is None


# (epsilon, genus, exceptional fibers) -> (k1_trivial, goodness) at b = 0,
# with no exceptional fiber or one (2:1).  Written from the docstrings: k1
# is trivial when pi_1 is finite or the type is o1 of genus <= 1, goodness
# is good when pi_1 is finite or the genus is at most 1 with chi >= 0, and
# both stay undetermined otherwise.  pi_1 is finite only for o1 and n2 with
# chi > 0 and e != 0, so here only with the fiber, where e = -1/2.
POLICY_GRID = {
    ("o1", 0, 0): (True, "good"),  # S^2 x S^1
    ("o1", 0, 1): (True, "good"),  # finite: a lens space
    ("o1", 1, 0): (True, "good"),  # the 3-torus
    ("o1", 1, 1): (True, "unknown"),  # chi = -1/2
    ("o1", 2, 0): (None, "unknown"),
    ("o1", 2, 1): (None, "unknown"),
    ("o2", 1, 0): (None, "good"),  # chi = 0
    ("o2", 1, 1): (None, "unknown"),  # chi = -1/2
    ("o2", 2, 0): (None, "unknown"),
    ("o2", 2, 1): (None, "unknown"),
    ("o2", 3, 0): (None, "unknown"),
    ("o2", 3, 1): (None, "unknown"),
    ("n1", 1, 0): (None, "good"),  # chi = 1
    ("n1", 1, 1): (None, "good"),  # chi = 1/2
    ("n1", 2, 0): (None, "unknown"),  # chi = 0, but genus 2
    ("n1", 2, 1): (None, "unknown"),
    ("n1", 3, 0): (None, "unknown"),
    ("n1", 3, 1): (None, "unknown"),
    ("n2", 1, 0): (None, "good"),  # chi = 1, but e = 0: infinite
    ("n2", 1, 1): (True, "good"),  # finite: chi = 1/2, e = -1/2
    ("n2", 2, 0): (None, "unknown"),  # chi = 0, but genus 2
    ("n2", 2, 1): (None, "unknown"),
    ("n2", 3, 0): (None, "unknown"),
    ("n2", 3, 1): (None, "unknown"),
    ("n3", 2, 0): (None, "unknown"),  # chi = 0, but genus 2
    ("n3", 2, 1): (None, "unknown"),
    ("n3", 3, 0): (None, "unknown"),
    ("n3", 3, 1): (None, "unknown"),
    ("n3", 4, 0): (None, "unknown"),
    ("n3", 4, 1): (None, "unknown"),
    ("n4", 3, 0): (None, "unknown"),
    ("n4", 3, 1): (None, "unknown"),
    ("n4", 4, 0): (None, "unknown"),
    ("n4", 4, 1): (None, "unknown"),
    ("n4", 5, 0): (None, "unknown"),
    ("n4", 5, 1): (None, "unknown"),
}


def test_flag_policy_grid():
    """Both flags on every base type, genus min to min + 2 and zero or one
    exceptional fiber, equal ``POLICY_GRID``."""
    got = {}
    for eps in Epsilon:
        for genus in range(eps.min_genus, eps.min_genus + 3):
            for fibers in ((), ((2, 1),)):
                s = SeifertInvariants(0, eps, genus, fibers)
                got[eps.value, genus, len(fibers)] = (
                    seifert_k1_trivial(s),
                    seifert_goodness(s).value,
                )
    assert got == POLICY_GRID
