import random
from fractions import Fraction

import numpy as np
import pytest

from whdetect.analysis import conjugacy_classes, is_ambivalent
from whdetect.whitehead import (
    CoefficientError,
    CoefficientSystem,
    cokernel_invariants,
    detection_rank,
    involution_space,
    smith_normal_form,
    wh1_general,
    wh1_z2_fast,
)

from conftest import (
    binary_polyhedral_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    group,
)

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


def fraction_det(mat):
    mat = [[Fraction(x) for x in row] for row in mat]
    k = len(mat)
    d = Fraction(1)
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


def test_snf_hand_examples():
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == (0, 0)
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).diagonal == (1, 1, 1)


def test_snf_certificate_500_random():
    rnd = random.Random(20240817)
    for _ in range(500):
        n, m = rnd.randint(1, 8), rnd.randint(1, 8)
        M = [[rnd.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        s = smith_normal_form(M)
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


def test_cokernel_invariants():
    # Z^2 / <(2,0),(0,3)> = Z/2 x Z/3 = Z/6
    assert cokernel_invariants([[2, 0], [0, 3]], 2) == (6,)
    assert cokernel_invariants([], 3) == (0, 0, 0)
    assert cokernel_invariants([[1, 0]], 2) == (0,)


# ---------------------------------------------------------------------------
# Wh1 computations
# ---------------------------------------------------------------------------


def test_wh1_general_trivial_group():
    G = group((), ())
    assert wh1_general(G, CoefficientSystem.z2_trivial()).invariant_factors == ()


def test_wh1_general_z2():
    res = wh1_general(cyclic_group(2), CoefficientSystem.z2_trivial())
    assert res.invariant_factors == (2,)


def test_wh1_general_z3():
    res = wh1_general(cyclic_group(3), CoefficientSystem.z2_trivial())
    assert res.invariant_factors == (2, 2)


def test_wh1_general_integer_coefficients():
    # Gamma = Z with trivial action over Z/3: free module on nontrivial
    # classes, so Z^2
    res = wh1_general(cyclic_group(3), CoefficientSystem((0,)))
    assert res.invariant_factors == (0, 0)


def test_wh1_fast_examples(q8):
    prof = conjugacy_classes(cyclic_group(3))
    res = wh1_z2_fast(prof)
    assert res.invariant_factors == (2, 2)
    assert res.basis_labels == prof.classes[1:]
    assert wh1_z2_fast(conjugacy_classes(group((), ()))).invariant_factors == ()
    assert wh1_z2_fast(conjugacy_classes(q8)).invariant_factors == (2,) * 4


@pytest.mark.parametrize("G", SMALL_CATALOG, ids=lambda g: f"order{g.order}")
def test_oracle_equivalence_fast_vs_general(G):
    """Two independent routes to Wh1(pi; Z/2) agree on every catalog group."""
    assert G.order <= 48
    fast = wh1_z2_fast(conjugacy_classes(G))
    general = wh1_general(G, CoefficientSystem.z2_trivial())
    assert fast.invariant_factors == general.invariant_factors


# ---------------------------------------------------------------------------
# Involution space and detection quotient
# ---------------------------------------------------------------------------


def test_involution_space_z3():
    sp = involution_space(conjugacy_classes(cyclic_group(3)))
    assert sp.dim == 2
    assert sp.bar == (1, 0)
    assert sp.z4_dim == 1
    assert sp.quotient_dim == 1


def test_involution_space_q8(q8):
    sp = involution_space(conjugacy_classes(q8))
    assert sp.dim == 4
    assert sp.bar == (0, 1, 2, 3)
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
    assert (detection_rank(prof) == 0) == is_ambivalent(G, prof).ambivalent


@pytest.mark.parametrize("G", SMALL_CATALOG, ids=lambda g: f"order{g.order}")
def test_differential_properties(G):
    prof = conjugacy_classes(G)
    sp = involution_space(prof)
    bar = np.zeros((sp.dim, sp.dim), dtype=np.int64)
    for a, b in enumerate(sp.bar):
        bar[b, a] = 1
    assert np.array_equal(bar @ bar % 2, np.eye(sp.dim, dtype=np.int64))
    d4 = sp.differential_matrix(4)
    assert not np.any(d4 @ d4 % 2)  # d4 o d4 = 0 over Z/2
    # image(d4) lies in ker(d4) = Z4
    assert not np.any(d4 @ d4 % 2)
    # odd parity: d_i = id - bar = id + bar over Z/2 as well
    assert np.array_equal(sp.differential_matrix(3), d4)


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
    sp = involution_space(conjugacy_classes(G))
    rank = _gf2_rank(sp.differential_matrix(4))
    assert sp.quotient_dim == sp.d4_rank == rank
    assert sp.z4_dim == sp.dim - rank


def test_detection_rank_z5():
    assert detection_rank(conjugacy_classes(cyclic_group(5))) == 2


def test_detection_rank_binary_icosahedral():
    assert detection_rank(conjugacy_classes(binary_polyhedral_group(5))) == 0


def test_detection_rank_dic3():
    assert detection_rank(conjugacy_classes(dicyclic_group(3))) >= 1


# ---------------------------------------------------------------------------
# Coefficient systems
# ---------------------------------------------------------------------------


def test_inconsistent_action_rejected():
    from whdetect.whitehead import CoefficientError, check_action_consistency

    G = cyclic_group(2)
    # order-3 action matrix cannot respect a^2 = 1
    bad = CoefficientSystem((7,), (((2,),),))
    with pytest.raises(CoefficientError):
        check_action_consistency(G, bad)


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


def test_sign_action_consistent():
    G = cyclic_group(2)
    coeff = CoefficientSystem((0,), (((-1,),),))
    res = wh1_general(G, coeff)
    # Z with sign action of Z/2: relation g = -g on the nontrivial
    # coordinate gives Z/2
    assert res.invariant_factors == (2,)
