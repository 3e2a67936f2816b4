import pytest

from whdetect.analysis import conjugacy_classes, is_ambivalent
from whdetect.catalog import cyclic, dicyclic
from whdetect.coset import FiniteGroupRealization, realize_presentation

from conftest import (
    Z2_Z6,
    Z3_Q8,
    binary_polyhedral_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    group,
)

ALL_GROUPS = {
    "trivial": lambda: group((), ()),
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z5": lambda: cyclic_group(5),
    "Q8": lambda: dicyclic_group(2),
    "Dic3": lambda: dicyclic_group(3),
    "Dic4": lambda: dicyclic_group(4),
    "T24": lambda: binary_polyhedral_group(3),
    "O48": lambda: binary_polyhedral_group(4),
    "I120": lambda: binary_polyhedral_group(5),
    "D8": lambda: dihedral_group(4),
    "Z2xZ6": lambda: group(*Z2_Z6),
    "Z3xQ8": lambda: group(*Z3_Q8),
}


def brute_force_classes(G):
    """All-pairs conjugation oracle, independent of the orbit BFS."""
    class_of = [-1] * G.order
    classes = []
    for g in range(G.order):
        if class_of[g] != -1:
            continue
        orbit = sorted(
            {G.mul[G.mul[G.inv[t]][g]][t] for t in range(G.order)}
        )
        idx = len(classes)
        for h in orbit:
            class_of[h] = idx
        classes.append(tuple(orbit))
    return classes


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_orbit_classes_match_brute_force(name):
    G = ALL_GROUPS[name]()
    profile = conjugacy_classes(G)
    assert sorted(profile.classes) == sorted(brute_force_classes(G))


def test_central_generators_build_no_left_rows(monkeypatch):
    """A central generator needs no conjugation permutation and its inverse
    no left row, so an abelian group builds none; a group without a central
    generator builds one row per generator image for the conjugations and
    one per inverse letter for ``inv``, 6 on the dicyclic group of order 72."""
    rows = []
    left = FiniteGroupRealization.left
    monkeypatch.setattr(FiniteGroupRealization, "left", lambda G, t: rows.append(t) or left(G, t))
    assert conjugacy_classes(realize_presentation(cyclic(150))).n_classes == 150
    assert rows == []
    assert conjugacy_classes(realize_presentation(dicyclic(18))).n_classes == 21
    assert len(rows) <= 6


def test_q8_profile():
    G = dicyclic_group(2)
    profile = conjugacy_classes(G)
    assert profile.n_classes == 5
    assert sorted(len(c) for c in profile.classes) == [1, 1, 2, 2, 2]
    assert profile.inversion_perm == tuple(range(5))
    assert profile.self_inverse_count == 4
    assert profile.paired_count == 0


def test_z3_profile():
    G = cyclic_group(3)
    profile = conjugacy_classes(G)
    assert profile.n_classes == 3
    assert profile.inversion_perm[0] == 0
    assert profile.inversion_perm[1] != 1
    assert profile.self_inverse_count == 0
    assert profile.paired_count == 1


def test_trivial_profile():
    profile = conjugacy_classes(group((), ()))
    assert profile.n_classes == 1
    assert profile.self_inverse_count == 0 and profile.paired_count == 0


@pytest.mark.parametrize(
    "name,expected",
    [
        ("trivial", True),
        ("Z2", True),
        ("Z3", False),
        ("Z5", False),
        ("Q8", True),
        ("Dic3", False),
        ("Dic4", True),
        ("T24", False),
        ("O48", True),
        ("I120", True),
        ("D8", True),
    ],
)
def test_ambivalence_table(name, expected):
    verdict = is_ambivalent(ALL_GROUPS[name]())
    assert verdict.ambivalent is expected
    assert (verdict.witness is None) is expected


def test_dic3_witness_has_order_4():
    from whdetect.coset import element_order

    G = dicyclic_group(3)
    profile = conjugacy_classes(G)
    verdict = is_ambivalent(G, profile)
    assert not verdict.ambivalent
    w = verdict.witness
    cls = next(c for c in profile.classes if w in c)
    assert G.inv[w] not in cls
    # the proof's witness is an order-4 element; ours must be one too
    assert element_order(G, w) == 4


def centre(G):
    """The elements that are a conjugacy class of their own."""
    return tuple(c[0] for c in conjugacy_classes(G).classes if len(c) == 1)


def test_centre_q8():
    G = dicyclic_group(2)
    z = centre(G)
    assert len(z) == 2 and 0 in z


def test_centre_abelian():
    G = cyclic_group(6)
    assert centre(G) == tuple(range(6))


def test_centre_binary_icosahedral():
    assert len(centre(binary_polyhedral_group(5))) == 2


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_inversion_perm_is_involution(name):
    profile = conjugacy_classes(ALL_GROUPS[name]())
    perm = profile.inversion_perm
    assert all(perm[perm[c]] == c for c in range(len(perm)))
    assert perm[0] == 0


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_swapped_pairs_list_each_swap_once(name):
    profile = conjugacy_classes(ALL_GROUPS[name]())
    pairs = profile.swapped_pairs
    assert [c for c, _ in pairs] == sorted(c for c, _ in pairs)
    assert all(c < cbar == profile.inversion_perm[c] for c, cbar in pairs)
    moved = [c for c, cc in enumerate(profile.inversion_perm) if c != cc]
    assert sorted(x for pair in pairs for x in pair) == moved


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_class_count_bookkeeping(name):
    profile = conjugacy_classes(ALL_GROUPS[name]())
    real = sum(1 for c, cc in enumerate(profile.inversion_perm) if c == cc)
    assert real + 2 * profile.paired_count == profile.n_classes
    assert profile.n_classes - 1 == profile.self_inverse_count + 2 * profile.paired_count


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_ambivalent_group_has_ambivalent_centre(name):
    G = ALL_GROUPS[name]()
    if not is_ambivalent(G).ambivalent:
        return
    # the centre is abelian, so it is ambivalent iff every element is an involution
    assert all(G.inv[z] == z for z in centre(G))


@pytest.mark.parametrize("m", range(1, 31))
def test_abelian_ambivalence_iff_exponent_2(m):
    from whdetect.coset import element_order

    G = cyclic_group(m)
    expected = all(element_order(G, g) <= 2 for g in range(G.order))
    assert is_ambivalent(G).ambivalent is expected


@pytest.mark.parametrize("k", range(2, 13))
def test_dihedral_groups_are_ambivalent(k):
    assert is_ambivalent(dihedral_group(k)).ambivalent
