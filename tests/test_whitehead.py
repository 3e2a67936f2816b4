import itertools
import random
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whdetect import whitehead
from whdetect.analysis import conjugacy_classes, is_ambivalent
from whdetect.catalog import builtin_groups
from whdetect.coset import realize_presentation
from whdetect.whitehead import (
    MAX_GAMMA_RANK,
    CoefficientError,
    CoefficientSystem,
    _invariant_chain,
    check_action_consistency,
    cokernel_invariants,
    involution_space,
    smith_normal_form,
    wh1_general,
)

from conftest import (
    binary_polyhedral_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    group,
)
from snf_oracle import certified_smith_normal_form, fraction_det
import wh1_digest
from wh1_digest import BENCH_GAMMAS, NON_DIAGONAL, perm, sign_actions

SMALL_CATALOG = [
    group((), ()),
    *[cyclic_group(m) for m in range(2, 13)],
    dicyclic_group(2),
    dicyclic_group(3),
    dicyclic_group(4),
    dihedral_group(4),
    dihedral_group(6),
    binary_polyhedral_group(3),
    binary_polyhedral_group(4),
]

FULL_CATALOG = SMALL_CATALOG + [binary_polyhedral_group(5)] + [
    cyclic_group(m) for m in range(13, 31)
] + [dicyclic_group(ell) for ell in range(5, 9)]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_hand_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)


def test_snf_certificate_500_random():
    rnd = random.Random(20240817)
    inputs = []
    for _ in range(500):
        n, m = rnd.randint(1, 8), rnd.randint(1, 8)
        inputs.append([[rnd.randint(-9, 9) for _ in range(m)] for _ in range(n)])
    # sparse 30 x 30 inputs on which pivoting one division step at a time
    # grew certificate entries to thousands of bits
    for seed in range(4):
        sparse = random.Random(seed)
        entries = (0, 0, 0, 0, 1, -1, 2)
        inputs.append([[sparse.choice(entries) for _ in range(30)] for _ in range(30)])
    for M in inputs:
        n, m = len(M), len(M[0])
        s = certified_smith_normal_form(M)
        assert all(x.bit_length() < 1000 for W in (s.U, s.V) for row in W for x in row)
        U = np.array(s.U, dtype=object)
        V = np.array(s.V, dtype=object)
        D = U @ np.array(M, dtype=object) @ V
        for i in range(n):
            for j in range(m):
                want = s.diagonal[i] if i == j and i < len(s.diagonal) else 0
                assert D[i][j] == want
        for a, b in zip(s.diagonal, s.diagonal[1:]):
            if a == 0:
                assert b == 0
            elif b != 0:
                assert b % a == 0
        assert all(d >= 0 for d in s.diagonal)
        assert abs(fraction_det(s.U)) == 1
        assert abs(fraction_det(s.V)) == 1
        assert smith_normal_form(M) == s.diagonal


@st.composite
def int_matrices(draw):
    """Dense matrices up to 10 x 10 and, on some draws, a sparse 30 x 30 or
    40 x 40 matrix over (0, 0, 0, 0, 1, -1, 2) from a drawn seed."""
    if draw(st.integers(0, 3)) == 0:
        size = draw(st.sampled_from((30, 40)))
        rnd = random.Random(draw(st.integers(0, 2**32)))
        return [[rnd.choice((0, 0, 0, 0, 1, -1, 2)) for _ in range(size)] for _ in range(size)]
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    row = st.lists(st.integers(-30, 30), min_size=m, max_size=m)
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=500, deadline=None)
@given(M=int_matrices())
def test_snf_diagonal_equals_certified_oracle(M):
    assert smith_normal_form(M) == certified_smith_normal_form(M).diagonal


def test_cokernel_invariants():
    # Z^2 / <(2,0),(0,3)> = Z/2 x Z/3 = Z/6
    assert cokernel_invariants([[2, 0], [0, 3]], 2) == (6,)
    assert cokernel_invariants([], 3) == (0, 0, 0)
    assert cokernel_invariants([[1, 0]], 2) == (0,)


def test_cokernel_of_no_rows_skips_the_smith_normal_form(monkeypatch):
    """No rows give n zeros without a call of smith_normal_form, which a
    wrapper reading the row length M[0] could not take."""

    def called(M):
        raise AssertionError(f"smith_normal_form called on {M}")

    monkeypatch.setattr(whitehead, "smith_normal_form", called)
    assert cokernel_invariants([], 4) == (0, 0, 0, 0)


# orders with large prime factors, which the chain must not factor
LARGE_ORDERS = (10**9 + 7, 998_244_353, (10**9 + 7) * 998_244_353, (10**9 + 7) ** 2 * 6)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 72), st.sampled_from(LARGE_ORDERS)), max_size=12))
def test_invariant_chain_equals_the_diagonal_cokernel(orders):
    """The chain of a sum of cyclic groups Z/d equals the cokernel of the
    diagonal matrix of the orders, read off its Smith normal form."""
    diagonal = [[d * (i == j) for j in range(len(orders))] for i, d in enumerate(orders)]
    assert _invariant_chain(orders) == cokernel_invariants(diagonal, len(orders))


# ---------------------------------------------------------------------------
# Wh1 computations
# ---------------------------------------------------------------------------


def test_wh1_general_trivial_group():
    G = group((), ())
    assert wh1_general(G, CoefficientSystem((2,))).invariant_factors == ()


def test_wh1_general_z2():
    res = wh1_general(cyclic_group(2), CoefficientSystem((2,)))
    assert res.invariant_factors == (2,)


def test_wh1_general_z3():
    res = wh1_general(cyclic_group(3), CoefficientSystem((2,)))
    assert res.invariant_factors == (2, 2)


def test_wh1_general_integer_coefficients():
    # Gamma = Z with trivial action over Z/3: free module on nontrivial
    # classes, so Z^2
    res = wh1_general(cyclic_group(3), CoefficientSystem((0,)))
    assert res.invariant_factors == (0, 0)


def test_wh1_general_q8(q8):
    assert wh1_general(q8, CoefficientSystem((2,))).invariant_factors == (2,) * 4


def wh1_dense(G, coeff):
    """Wh1(pi; Gamma) from the whole relation matrix on Gamma[pi]: the oracle.

    Columns are (Gamma generator k, group element g).  Rows: the torsion of
    Gamma in every coordinate, the identity coordinate, and for each
    generator image s the twisted conjugation relation
    gamma_k.g - (s.gamma_k).(s g s^-1).  One Smith normal form of the
    (r*n)-column matrix gives the cokernel.
    """
    actions = check_action_consistency(G, coeff)
    r, n, factors = coeff.rank, G.order, coeff.invariant_factors

    def reduce(mat):
        return [[x % f if f else x for x, f in zip(row, factors)] for row in mat]

    # the action matrix of every element, along the BFS word tree
    mats = {0: [[int(i == j) for j in range(r)] for i in range(r)]}
    for b, a, c in G.tree:
        step = actions[c >> 1][c & 1]  # column 2g is g, column 2g+1 is g^-1
        mats[b] = reduce((np.array(mats[a], dtype=object) @ np.array(step, dtype=object)).tolist())

    def unit(k, g):
        row = [0] * (r * n)
        row[k * n + g] = 1
        return row

    rows = [[f * x for x in unit(k, g)] for k, f in enumerate(factors) if f for g in range(n)]
    rows += [unit(k, 0) for k in range(r)]
    for s in set(G.generator_images):
        for k in range(r):
            for g in range(n):
                row = unit(k, g)
                conj = G.mul[G.mul[s][g]][G.inv[s]]
                for k2 in range(r):
                    row[k2 * n + conj] -= mats[s][k][k2]
                rows.append(row)
    return cokernel_invariants(rows, r * n)


def _outcome(route, G, coeff):
    try:
        return tuple(route(G, coeff))
    except CoefficientError:
        return "CoefficientError"


def _per_class(G, coeff):
    return wh1_general(G, coeff).invariant_factors


@pytest.mark.parametrize("entry", builtin_groups(24), ids=lambda e: e.name)
def test_wh1_general_matches_dense_oracle(entry):
    """The per-class route equals the dense relation matrix under the trivial
    action and every sign action; both reject the inconsistent ones."""
    G = realize_presentation(entry.presentation)
    for gamma in BENCH_GAMMAS:
        for action in [None, *sign_actions(len(G.generator_images), len(gamma))]:
            coeff = CoefficientSystem(gamma, action)
            assert _outcome(_per_class, G, coeff) == _outcome(wh1_dense, G, coeff)


@pytest.mark.parametrize(
    "G, gamma, action", [case[1:] for case in NON_DIAGONAL], ids=[case[0] for case in NON_DIAGONAL]
)
def test_wh1_general_matches_dense_oracle_non_diagonal(G, gamma, action):
    coeff = CoefficientSystem(gamma, action)
    assert _outcome(_per_class, G, coeff) == _outcome(wh1_dense, G, coeff)


def test_wh1_digest_is_pinned():
    """A seeded sample of the Wh1 outcomes keeps its digest;
    ``tests/wh1_digest.py`` checks the full set."""
    assert wh1_digest.digest(wh1_digest.inputs(sample=True)) == wh1_digest.SAMPLE


@pytest.mark.parametrize(
    "gamma, want",
    [((6,), (2,)), ((0, 4), (2, 2)), ((3,), ()), ((2, 2), (2, 2))],
    ids=["Z6", "Z+Z4", "Z3", "Z2+Z2"],
)
def test_sign_action_on_torsion_consistent(gamma, want):
    """a -> -1 on Gamma with torsion respects a^2 only modulo the torsion: -1
    reduces to 5 modulo 6, and 5 * 5 = 25 to 1.  The nontrivial element
    gives Gamma / 2 Gamma."""
    r = len(gamma)
    coeff = CoefficientSystem(gamma, (tuple(tuple(-(i == j) for j in range(r)) for i in range(r)),))
    assert wh1_general(cyclic_group(2), coeff).invariant_factors == want


def diagonal_sign_actions(n_gens: int, rank: int):
    """Every action of n_gens generators by diagonal matrices of signs +-1
    on a rank-r Gamma, each as (signs per generator, action)."""
    for signs in itertools.product(itertools.product((1, -1), repeat=rank), repeat=n_gens):
        action = tuple(
            tuple(tuple(v[i] * (i == j) for j in range(rank)) for i in range(rank)) for v in signs
        )
        yield signs, action


@pytest.mark.parametrize("entry", builtin_groups(60), ids=lambda e: e.name)
def test_diagonal_sign_actions_accepted_exactly_when_relators_keep_the_signs(entry):
    """A diagonal action by signs on Gamma = sum of Z/n_i acts through pi
    exactly when, on every coordinate where -1 is not 1 (n_i other than 1
    and 2), the signs of the generators multiply to 1 along every relator.
    ``wh1_general`` must accept those actions and refuse the others, so a
    check that wrongly refuses a consistent action fails here, even when the
    dense oracle refuses it alike."""
    G = realize_presentation(entry.presentation)
    for gamma in BENCH_GAMMAS:
        for signs, action in diagonal_sign_actions(len(G.generator_images), len(gamma)):
            consistent = all(
                prod(signs[g][i] for g, _ in rel.letters) == 1
                for rel in G.source.relators
                for i, n in enumerate(gamma)
                if n not in (1, 2)
            )
            try:
                wh1_general(G, CoefficientSystem(gamma, action))
            except CoefficientError:
                accepted = False
            else:
                accepted = True
            assert accepted == consistent, (gamma, signs)


def _counting(monkeypatch, name):
    """Wrap ``whitehead.<name>`` so that each call is counted."""
    calls = []
    real = getattr(whitehead, name)
    monkeypatch.setattr(whitehead, name, lambda *args: calls.append(1) or real(*args))
    return calls


def test_products_go_through_the_numbered_image(monkeypatch):
    """An action through pi takes few matrices, and each distinct pair is
    multiplied once: a -> -1 on Z takes two, the trivial action one, however
    long the relators and however many edges the classes have."""
    products = _counting(monkeypatch, "_matmul")
    check_action_consistency(cyclic_group(60), CoefficientSystem((0,), (((-1,),),)))
    assert len(products) <= 4
    products.clear()
    G = dicyclic_group(1000)
    k = conjugacy_classes(G).n_classes - 1
    assert wh1_general(G, CoefficientSystem((2, 0))).invariant_factors == (2,) * k + (0,) * k
    assert len(products) <= 8


def test_summands_cached_by_their_loops(monkeypatch):
    """A class's cokernel is keyed by the rows of I - C over its loops C,
    which, unlike the rows Q_y - M(s) Q_z, are not twisted by the matrix Q_y
    of the coordinate the edge leaves, so classes whose centralizers act
    alike share one Smith normal form."""
    calls = _counting(monkeypatch, "smith_normal_form")
    builtin = {entry.name for entry in builtin_groups(60)}
    for name, G, coeff in wh1_digest.inputs():
        if name in builtin:
            wh1_digest.outcome(G, coeff)
    assert len(calls) <= 973


@pytest.mark.parametrize("G", SMALL_CATALOG, ids=lambda g: f"order{g.order}")
def test_oracle_equivalence_fast_vs_general(G):
    """Wh1(pi; Z/2) under the trivial action is the free Z/2-space on the
    nontrivial classes; wh1_general agrees on every catalog group."""
    assert G.order <= 48
    classes = conjugacy_classes(G).n_classes
    assert wh1_general(G, CoefficientSystem((2,))).invariant_factors == (2,) * (classes - 1)


# ---------------------------------------------------------------------------
# Involution space and detection quotient
# ---------------------------------------------------------------------------


def test_involution_space_z3():
    prof = conjugacy_classes(cyclic_group(3))
    sp = involution_space(prof)
    assert sp.dim == 2
    assert bar_perm(prof) == (1, 0)
    assert sp.z4_dim == 1
    assert sp.quotient_dim == 1


def test_involution_space_q8(q8):
    prof = conjugacy_classes(q8)
    sp = involution_space(prof)
    assert sp.dim == 4
    assert bar_perm(prof) == (0, 1, 2, 3)
    assert sp.z4_dim == 4
    assert sp.quotient_dim == 0


def test_involution_space_trivial():
    sp = involution_space(conjugacy_classes(group((), ())))
    assert sp.dim == 0 and sp.quotient_dim == 0


@pytest.mark.parametrize("G", FULL_CATALOG, ids=lambda g: f"order{g.order}")
def test_dimension_laws(G):
    prof = conjugacy_classes(G)
    sp = involution_space(prof)
    s, p = prof.self_inverse_count, prof.paired_count
    assert sp.dim == s + 2 * p
    assert sp.z4_dim == s + p
    assert sp.quotient_dim == p
    assert (sp.quotient_dim == 0) == is_ambivalent(G, prof).ambivalent


@pytest.mark.parametrize("G", SMALL_CATALOG, ids=lambda g: f"order{g.order}")
def test_differential_properties(G):
    prof = conjugacy_classes(G)
    dim = involution_space(prof).dim
    bar = np.zeros((dim, dim), dtype=np.int64)
    for a, b in enumerate(bar_perm(prof)):
        bar[b, a] = 1
    assert np.array_equal(bar @ bar % 2, np.eye(dim, dtype=np.int64))
    d4 = differential_matrix(prof, 4)
    assert not np.any(d4 @ d4 % 2)  # d4 o d4 = 0 over Z/2
    # image(d4) lies in ker(d4) = Z4
    assert not np.any(d4 @ d4 % 2)
    # odd parity: d_i = id - bar = id + bar over Z/2 as well
    assert np.array_equal(differential_matrix(prof, 3), d4)


def bar_perm(prof) -> tuple[int, ...]:
    """Class inversion on the basis of nontrivial classes, 0-based."""
    return tuple(prof.inversion_perm[c + 1] - 1 for c in range(prof.n_classes - 1))


def differential_matrix(prof, i: int = 4) -> np.ndarray:
    """Matrix of x -> x - (-1)^i x-bar over Z/2."""
    bar = bar_perm(prof)
    d = np.eye(len(bar), dtype=np.int64)
    sign = -((-1) ** i)
    for a, b in enumerate(bar):
        d[b, a] += sign
    return d % 2


def _gf2_rank(mat: np.ndarray) -> int:
    """Rank over GF(2) by exact Gaussian elimination."""
    a = (np.array(mat, dtype=np.int64) % 2).copy()
    rank = 0
    rows, cols = a.shape
    for j in range(cols):
        pivot = None
        for i in range(rank, rows):
            if a[i, j]:
                pivot = i
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        for i in range(rows):
            if i != rank and a[i, j]:
                a[i] ^= a[rank]
        rank += 1
    return rank


@pytest.mark.parametrize("G", FULL_CATALOG, ids=lambda g: f"order{g.order}")
def test_ranks_match_gf2_elimination(G):
    """The ranks read off the class-pair count agree with elimination of d4."""
    prof = conjugacy_classes(G)
    sp = involution_space(prof)
    rank = _gf2_rank(differential_matrix(prof, 4))
    assert sp.quotient_dim == rank
    assert sp.z4_dim == sp.dim - rank


def test_detection_rank_z5():
    assert involution_space(conjugacy_classes(cyclic_group(5))).quotient_dim == 2


def test_detection_rank_binary_icosahedral():
    assert involution_space(conjugacy_classes(binary_polyhedral_group(5))).quotient_dim == 0


def test_detection_rank_dic3():
    assert involution_space(conjugacy_classes(dicyclic_group(3))).quotient_dim >= 1


# ---------------------------------------------------------------------------
# Coefficient systems
# ---------------------------------------------------------------------------


def test_inconsistent_action_rejected(monkeypatch):
    products = _counting(monkeypatch, "_matmul")
    G = cyclic_group(2)
    for bad in (
        # order-3 action matrix cannot respect a^2 = 1
        CoefficientSystem((7,), (((2,),),)),
        # infinite order on Z^3, given up after |a| = 2 powers
        CoefficientSystem((0, 0, 0), (((1, 1, 0), (0, 1, 1), (0, 0, 1)),)),
        # invariant factors are nonnegative
        CoefficientSystem((2, -3)),
        # more invariant factors than the bound, refused before any matrix
        CoefficientSystem((2,) * (MAX_GAMMA_RANK + 1)),
    ):
        products.clear()
        with pytest.raises(CoefficientError):
            check_action_consistency(G, bad)
        assert len(products) <= 2


def test_gamma_of_the_largest_rank_is_accepted():
    coeff = CoefficientSystem((2,) * MAX_GAMMA_RANK)
    assert wh1_general(cyclic_group(2), coeff).invariant_factors == (2,) * MAX_GAMMA_RANK


@pytest.mark.parametrize(
    "coeff",
    [
        CoefficientSystem((0,), ()),  # no matrix for the generator
        CoefficientSystem((0, 0), (((-1,),),)),  # 1x1 matrix on a rank-2 Gamma
        CoefficientSystem((0,), (((1, 0), (0, 1)),)),  # 2x2 matrix on a rank-1 Gamma
    ],
)
def test_action_shape_rejected(coeff):
    with pytest.raises(CoefficientError):
        wh1_general(cyclic_group(2), coeff)


@pytest.mark.parametrize(
    "G, coeff",
    [
        # S3 permuting the coordinates of Z + Z/3 + Z: it respects every
        # relator, but sends the order-3 generator to an infinite-order one
        (dihedral_group(3), CoefficientSystem((0, 3, 0), (perm((1, 2, 0)), perm((0, 2, 1))))),
        # swapping Z/4 and Z/2 sends the order-2 generator to an order-4 one
        (cyclic_group(2), CoefficientSystem((4, 2), (((0, 1), (1, 0)),))),
    ],
    ids=["S3-Z+Z3+Z", "C2-swap-Z4+Z2"],
)
def test_action_not_endomorphism_rejected(G, coeff):
    with pytest.raises(CoefficientError, match="not an endomorphism"):
        wh1_general(G, coeff)


def test_action_breaking_a_relator_rejected():
    """r acts on Z^2 by a rotation of order 3 and s trivially: each matrix
    has the order of its generator and is an endomorphism, but the relator
    s r s r acts as r^2."""
    coeff = CoefficientSystem((0, 0), (((0, -1), (1, -1)), ((1, 0), (0, 1))))
    with pytest.raises(CoefficientError, match="does not respect relator"):
        wh1_general(dihedral_group(3), coeff)


def test_sign_action_consistent():
    G = cyclic_group(2)
    coeff = CoefficientSystem((0,), (((-1,),),))
    res = wh1_general(G, coeff)
    # Z with sign action of Z/2: relation g = -g on the nontrivial
    # coordinate gives Z/2
    assert res.invariant_factors == (2,)
