import random

import pytest

from whdetect.steinberg import (
    GroupRingElement,
    GroupRingMatrix,
    SteinbergError,
    SteinbergWord,
    evaluate,
    k2_membership,
    parse_steinberg_word,
    pd_decompose,
    st_commutator,
    symbol,
    w_element,
)

from conftest import (
    binary_polyhedral_group,
    cyclic_group,
    dicyclic_group,
    group,
)

RING_GROUPS = [
    group((), ()),
    cyclic_group(3),
    cyclic_group(12),
    dicyclic_group(2),
    dicyclic_group(3),
    binary_polyhedral_group(3),
]


def random_ring_element(G, rnd, max_terms=3, max_coeff=4):
    return GroupRingElement.from_dict(
        G,
        {
            rnd.randrange(G.order): rnd.randint(-max_coeff, max_coeff)
            for _ in range(rnd.randint(0, max_terms))
        },
    )


def matmul(A, B):
    """Dense product of two matrices over Z[pi]: the oracle of ``evaluate``."""
    zero = GroupRingElement.zero(A.group)
    n = A.n
    return GroupRingMatrix(
        A.group,
        tuple(
            tuple(
                sum((A.entries[i][k] * B.entries[k][j] for k in range(n)), zero)
                for j in range(n)
            )
            for i in range(n)
        ),
    )


def elementary(G, n, i, j, lam):
    """I + lam*E_ij entry by entry, with 1-based indices i != j."""
    one, zero = GroupRingElement.one(G), GroupRingElement.zero(G)
    return tuple(
        tuple(
            lam if (r, c) == (i, j) else one if r == c else zero
            for c in range(1, n + 1)
        )
        for r in range(1, n + 1)
    )


# ---------------------------------------------------------------------------
# Group ring arithmetic
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("G", RING_GROUPS[:4], ids=lambda g: f"order{g.order}")
def test_ring_axioms_random(G):
    rnd = random.Random(G.order)
    one = GroupRingElement.one(G)
    for _ in range(60):
        a, b, c = (random_ring_element(G, rnd) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * one == a == one * a
        assert a + (-a) == GroupRingElement.zero(G)


def test_ring_convolution_noncommutative():
    G = dicyclic_group(2)
    a, x = G.generator_images
    ga = GroupRingElement.of_element(G, a)
    gx = GroupRingElement.of_element(G, x)
    assert ga * gx != gx * ga  # Q8 is nonabelian


# ---------------------------------------------------------------------------
# Steinberg relations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("G", RING_GROUPS, ids=lambda g: f"order{g.order}")
def test_relation_additivity(G):
    rnd = random.Random(G.order + 1)
    for _ in range(200):
        lam, mu = random_ring_element(G, rnd), random_ring_element(G, rnd)
        i, j = rnd.sample([1, 2, 3], 2)
        lhs = evaluate(symbol(i, j, lam) * symbol(i, j, mu), 3, G)
        rhs = evaluate(symbol(i, j, lam + mu), 3, G)
        assert lhs.entries == rhs.entries


@pytest.mark.parametrize("G", RING_GROUPS, ids=lambda g: f"order{g.order}")
def test_relation_disjoint_commutator(G):
    rnd = random.Random(G.order + 2)
    for _ in range(200):
        lam, mu = random_ring_element(G, rnd), random_ring_element(G, rnd)
        # j != k and i != l
        w = st_commutator(symbol(1, 2, lam), symbol(3, 4, mu))
        assert k2_membership(w, 4, G)


@pytest.mark.parametrize("G", RING_GROUPS, ids=lambda g: f"order{g.order}")
def test_relation_chained_commutator(G):
    rnd = random.Random(G.order + 3)
    for _ in range(200):
        lam, mu = random_ring_element(G, rnd), random_ring_element(G, rnd)
        i, j, k = rnd.sample([1, 2, 3, 4], 3)
        lhs = evaluate(st_commutator(symbol(i, j, lam), symbol(j, k, mu)), 4, G)
        rhs = evaluate(symbol(i, k, lam * mu), 4, G)
        assert lhs.entries == rhs.entries


@pytest.mark.parametrize("G", RING_GROUPS[:4], ids=lambda g: f"order{g.order}")
def test_evaluate_is_homomorphism(G):
    rnd = random.Random(G.order + 4)
    for _ in range(30):
        letters = [
            symbol(*rnd.sample([1, 2, 3], 2), random_ring_element(G, rnd))
            for _ in range(4)
        ]
        u = letters[0] * letters[1]
        v = letters[2] * letters[3]
        uv = evaluate(u * v, 3, G)
        sep = matmul(evaluate(u, 3, G), evaluate(v, 3, G))
        assert uv.entries == sep.entries


@pytest.mark.parametrize("G", RING_GROUPS, ids=lambda g: f"order{g.order}")
def test_evaluate_single_letter_is_elementary(G):
    rnd = random.Random(G.order + 5)
    coeffs = [GroupRingElement.zero(G)]
    coeffs += [
        GroupRingElement.of_element(G, g, s) for g in range(G.order) for s in (1, -1)
    ]
    coeffs += [GroupRingElement.from_dict(G, {0: 2, G.order - 1: -3})]
    coeffs += [random_ring_element(G, rnd, max_terms=4) for _ in range(10)]
    for n in range(2, 6):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                for lam in coeffs:
                    M = evaluate(symbol(i, j, lam), n, G)
                    assert M.entries == elementary(G, n, i, j, lam)


# ---------------------------------------------------------------------------
# w-elements and PD recognition
# ---------------------------------------------------------------------------


def test_w_element_trivial_group_matrix():
    G = group((), ())
    M = evaluate(w_element(1, 2, G, 0, 1), 2, G)
    one = GroupRingElement.one(G)
    zero = GroupRingElement.zero(G)
    assert M.entries == ((zero, one), (-one, zero))


@pytest.mark.parametrize("G", RING_GROUPS, ids=lambda g: f"order{g.order}")
def test_all_w_elements_are_pd(G):
    for g in range(G.order):
        for sign in (1, -1):
            for i, j in ((1, 2), (2, 1), (2, 3)):
                M = evaluate(w_element(i, j, G, g, sign), 3, G)
                pd = pd_decompose(M)
                assert pd is not None
                # the permutation swaps i and j
                assert pd.perm[i - 1] == j - 1 and pd.perm[j - 1] == i - 1


def test_w_element_product_is_pd():
    G = cyclic_group(4)
    g = G.generator_images[0]
    w = w_element(1, 2, G, g, 1) * w_element(1, 2, G, g, -1)
    assert pd_decompose(evaluate(w, 2, G)) is not None


def test_matrix_display_walks_word_tree_once(monkeypatch):
    from whdetect.coset import FiniteGroupRealization

    G = binary_polyhedral_group(3)
    a, b = G.generator_images
    M = evaluate(w_element(1, 2, G, a, 1) * w_element(3, 8, G, b, -1), 8, G)
    walks = []
    real = FiniteGroupRealization.element_names
    monkeypatch.setattr(
        FiniteGroupRealization,
        "element_names",
        lambda H, elements: walks.append(H) or real(H, elements),
    )
    text = M.display()
    assert len(walks) == 1
    cell = next(e for row in M.entries for e in row if not e.is_zero())
    assert cell.display() in text


def test_w_element_rejects_equal_indices():
    with pytest.raises(SteinbergError):
        w_element(1, 1, group((), ()), 0, 1)


def test_pd_decompose_rejections():
    G = group((), ())
    lam = GroupRingElement.one(G)
    M = evaluate(symbol(1, 2, lam), 2, G)  # [[1, 1], [0, 1]]
    assert pd_decompose(M) is None
    two = GroupRingElement.from_dict(G, {0: 2})
    from whdetect.steinberg import GroupRingMatrix

    zero = GroupRingElement.zero(G)
    M2 = GroupRingMatrix(G, ((two, zero), (zero, two)))
    assert pd_decompose(M2) is None  # entries not +-g


def test_pd_decompose_identity():
    G = cyclic_group(3)
    from whdetect.steinberg import GroupRingMatrix

    pd = pd_decompose(GroupRingMatrix.identity(G, 3))
    assert pd is not None
    assert pd.perm == (0, 1, 2)
    assert all(d == (1, 0) for d in pd.diagonal)


# ---------------------------------------------------------------------------
# K2 membership
# ---------------------------------------------------------------------------


def test_k2_empty_word():
    assert k2_membership(SteinbergWord(), 2, group((), ()))


def test_k2_single_letter_false():
    G = cyclic_group(3)
    g = GroupRingElement.of_element(G, G.generator_images[0])
    assert not k2_membership(symbol(1, 2, g), 2, G)


def test_k2_word_times_inverse():
    G = dicyclic_group(2)
    rnd = random.Random(7)
    w = SteinbergWord()
    for _ in range(5):
        w = w * symbol(*rnd.sample([1, 2, 3], 2), random_ring_element(G, rnd))
    assert k2_membership(w * w.inverse(), 3, G)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def test_parse_steinberg_word():
    G = dicyclic_group(2)
    w = parse_steinberg_word("x(1,2;+a) x(2,1;-a^-1) x(1,2;+a)", G)
    assert len(w.letters) == 3
    a = G.generator_images[0]
    ref = w_element(1, 2, G, a, 1)
    assert evaluate(w, 2, G).entries == evaluate(ref, 2, G).entries


def test_parse_steinberg_identity_coefficient():
    G = cyclic_group(2)
    w = parse_steinberg_word("x(1,2;1)", G)
    assert w.letters[0].coeff == GroupRingElement.one(G)


def test_parse_steinberg_malformed():
    G = cyclic_group(2)
    with pytest.raises(SteinbergError):
        parse_steinberg_word("x(1,1;a)", G)
    with pytest.raises(SteinbergError):
        parse_steinberg_word("y(1,2;a)", G)
