import itertools
import sys

import pytest
from hypothesis import Phase, given, settings, strategies as st

import enumeration_digest
import mutants
from whdetect.analysis import conjugacy_classes, is_ambivalent
from whdetect.catalog import builtin_groups, cyclic, dicyclic
from whdetect.coset import (
    EnumerationBudgetExceeded,
    IncompleteTableError,
    MAX_TABLE_ENTRIES,
    _Enumerator,
    element_order,
    enumerate_cosets,
    realize,
    realize_presentation,
)
from whdetect.pipeline import free_abelian_rank
from whdetect.whitehead import CoefficientSystem, involution_space, wh1_general
from whdetect.words import Generator, Presentation, Word, make_presentation, parse_word

from conftest import (
    Z2_Z6,
    Z3_Q8,
    binary_polyhedral_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    group,
    run_python,
)


def quaternion_oracle():
    """Direct multiplication table of Q8 over {1,-1,i,-i,j,-j,k,-k}.

    Independent of coset enumeration: quaternion arithmetic on symbols.
    """
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def neg(u):
        return u[1:] if u.startswith("-") else "-" + u

    base = {
        ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
        ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def mul(u, v):
        sign = 1
        if u.startswith("-"):
            sign, u = -sign, u[1:]
        if v.startswith("-"):
            sign, v = -sign, v[1:]
        w = base[(u, v)]
        return w if sign == 1 else neg(w)

    return units, mul


class _PlainHLT:
    """Row-list HLT state for the oracle: ``table[a][col]`` is a.col or None.

    Plain HLT on a table of one list per coset, written apart from
    ``whdetect.coset`` so that the oracle shares no code with the route it
    checks.
    """

    def __init__(self, ncols, max_cosets):
        self.ncols = ncols
        self.max_cosets = max_cosets
        self.table = [[None] * ncols]
        self.parent = [0]
        self.queue = []

    def rep(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def define(self, a, col):
        if len(self.table) >= self.max_cosets:
            raise EnumerationBudgetExceeded(f"coset budget {self.max_cosets} exhausted")
        b = len(self.table)
        self.table.append([None] * self.ncols)
        self.parent.append(b)
        self.table[a][col] = b
        self.table[b][col ^ 1] = a
        return b

    def merge(self, a, b):
        a, b = self.rep(a), self.rep(b)
        if a != b:
            lo, hi = min(a, b), max(a, b)
            self.parent[hi] = lo
            self.queue.append(hi)

    def coincidence(self, a, b):
        self.merge(a, b)
        while self.queue:
            dead = self.queue.pop()
            row = self.table[dead]
            for col in range(self.ncols):
                delta = row[col]
                if delta is None:
                    continue
                row[col] = None
                self.table[delta][col ^ 1] = None
                d, mu = self.rep(delta), self.rep(dead)
                if self.table[mu][col] is not None:
                    self.merge(d, self.table[mu][col])
                elif self.table[d][col ^ 1] is not None:
                    self.merge(mu, self.table[d][col ^ 1])
                else:
                    self.table[mu][col] = d
                    self.table[d][col ^ 1] = mu

    def scan_and_fill(self, alpha, cols):
        f, b = alpha, alpha
        i, j = 0, len(cols) - 1
        while True:
            while i <= j and self.table[f][cols[i]] is not None:
                f = self.table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][cols[j] ^ 1] is not None:
                b = self.table[b][cols[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][cols[i]] = b
                self.table[b][cols[i] ^ 1] = f
                return
            f = self.define(f, cols[i])
            i += 1


def hlt_plain_run(p, max_cosets):
    """Reference HLT: every relator scanned in full at every live coset,
    on a table of one row list per coset.  Returns the rows and the number
    of cosets defined, which is the least budget that lets it complete."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    relator_cols = [[2 * g + (s < 0) for g, s in r.letters] for r in p.relators]
    st = _PlainHLT(2 * p.rank, max_cosets)
    alpha = 0
    while alpha < len(st.table):
        if st.parent[alpha] == alpha:
            for cols in relator_cols:
                st.scan_and_fill(alpha, cols)
                if st.parent[alpha] != alpha:
                    break
            else:
                for col in range(st.ncols):
                    if st.table[alpha][col] is None:
                        st.define(alpha, col)
        alpha += 1
    live = [a for a in range(len(st.table)) if st.parent[a] == a]
    renum = {old: new for new, old in enumerate(live)}
    rows = []
    for a in live:
        if None in st.table[a]:
            raise IncompleteTableError("enumeration left an undefined entry")
        rows.append(tuple(renum[st.rep(e)] for e in st.table[a]))
    return tuple(rows), len(st.table)


def hlt_plain(p, max_cosets):
    """The rows of :func:`hlt_plain_run`."""
    return hlt_plain_run(p, max_cosets)[0]


def outcome(enumerate_, p, max_cosets):
    """The rows, or the type and message of the exception raised instead."""
    try:
        return enumerate_(p, max_cosets)
    except (EnumerationBudgetExceeded, IncompleteTableError) as exc:
        return type(exc), str(exc)


def test_cyclic_5():
    """Z/5 is enumerated and realized, and the realized group refuses
    elements past its order, as realize refuses rows that coset 0 does not
    reach."""
    p = make_presentation(["a"], ["a^5"])
    rows = enumerate_cosets(p, 100)
    assert len(rows) == 5
    G = realize(rows, p)
    assert element_order(G, G.generator_images[0]) == 5
    with pytest.raises(ValueError, match="out of range"):
        element_order(G, G.order)
    with pytest.raises(KeyError):
        G.mul[G.order]
    with pytest.raises(IncompleteTableError, match="not transitive"):
        realize(rows + ((5, 5),), p)


def test_q8_order_and_structure():
    G = dicyclic_group(2)
    assert G.order == 8
    a, x = G.generator_images
    x2 = G.mul[x][x]
    a2 = G.mul[a][a]
    assert x2 == a2 != 0
    assert G.mul[x2][x2] == 0


def test_q8_isomorphic_to_quaternion_oracle():
    """The enumerated group matches literal quaternion arithmetic."""
    G = dicyclic_group(2)
    units, mul = quaternion_oracle()
    # map generators a -> i, x -> j and extend via the BFS structure
    a, x = G.generator_images
    images = {0: "1", a: "i", x: "j"}
    frontier = [0, a, x]
    while frontier:
        nxt = []
        for g in frontier:
            for gen, unit in ((a, "i"), (x, "j")):
                h = G.mul[g][gen]
                if h not in images:
                    images[h] = mul(images[g], unit)
                    nxt.append(h)
        frontier = nxt
    assert len(images) == 8 and len(set(images.values())) == 8
    for g in range(8):
        for h in range(8):
            assert images[G.mul[g][h]] == mul(images[g], images[h])


def test_binary_icosahedral_order_and_classes():
    G = binary_polyhedral_group(5)
    assert G.order == 120
    from whdetect.analysis import conjugacy_classes

    assert conjugacy_classes(G).n_classes == 9


def test_trivial_presentation():
    G = group((), ())
    assert G.order == 1
    assert element_order(G, 0) == 1


def test_catalog_orders():
    assert dicyclic_group(1).order == 4
    assert dicyclic_group(3).order == 12
    assert dicyclic_group(4).order == 16
    assert binary_polyhedral_group(3).order == 24
    assert binary_polyhedral_group(4).order == 48
    assert dihedral_group(6).order == 12


@pytest.mark.parametrize("ell", range(1, 8))
def test_dicyclic_x_has_order_4(ell):
    G = dicyclic_group(ell)
    assert element_order(G, G.generator_images[1]) == 4


def test_budget_exceeded_on_infinite_group():
    p = make_presentation(["a"], [])  # infinite cyclic
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_cosets(p, 50)


def test_budget_run_on_z2_stays_under_20_mb():
    """The working table of a 200,000-coset run that exhausts its budget on
    the infinite group Z^2 peaks under 20 MB (28 MB with one list per coset).

    Run in a child process: tracemalloc's own bookkeeping would otherwise
    raise this process's peak RSS, which children started later inherit.
    """
    r = run_python("-c", (
        "import tracemalloc\n"
        "from whdetect.coset import EnumerationBudgetExceeded, enumerate_cosets\n"
        "from whdetect.words import make_presentation\n"
        "p = make_presentation(['a', 'b'], ['a b a^-1 b^-1'])\n"
        "tracemalloc.start()\n"
        "try:\n"
        "    enumerate_cosets(p, 200_000)\n"
        "except EnumerationBudgetExceeded:\n"
        "    print(tracemalloc.get_traced_memory()[1])\n"
    ))
    assert r.returncode == 0, r.stderr
    assert r.stdout, "the budget was not exhausted"
    assert int(r.stdout) < 20 * 2**20


def test_bad_budget():
    with pytest.raises(ValueError):
        enumerate_cosets(make_presentation(["a"], ["a^2"]), 0)


def test_budget_past_the_table_limit_is_refused():
    """The limit counts budget times columns, and a budget at it is
    accepted: only the first block of the table is allocated up front."""
    p = make_presentation(["a", "b"], ["a^2", "b^3", "a b a b"])
    assert len(enumerate_cosets(p, MAX_TABLE_ENTRIES // 4)) == 6
    with pytest.raises(ValueError, match="table entries"):
        enumerate_cosets(p, MAX_TABLE_ENTRIES // 4 + 1)


@pytest.mark.parametrize(
    "G",
    [cyclic_group(12), dicyclic_group(2), dicyclic_group(3), binary_polyhedral_group(3),
     binary_polyhedral_group(4), dihedral_group(5)],
    ids=["Z12", "Q8", "Dic3", "T24", "O48", "D10"],
)
def test_group_axioms_full_triple_loop(G):
    """Associativity, identity and inverse laws over every triple."""
    n = G.order
    assert n <= 48
    mul, inv = G.mul, G.inv
    for g in range(n):
        assert mul[g][0] == g == mul[0][g]
        assert mul[g][inv[g]] == 0 == mul[inv[g]][g]
    for g, h, k in itertools.product(range(n), repeat=3):
        assert mul[mul[g][h]][k] == mul[g][mul[h][k]]


@pytest.mark.parametrize("m", [1, 2, 3, 7, 12, 30])
def test_lagrange_on_cyclic(m):
    G = cyclic_group(m)
    for g in range(G.order):
        assert G.order % element_order(G, g) == 0


def test_lagrange_on_binary_octahedral():
    G = binary_polyhedral_group(4)
    for g in range(G.order):
        assert G.order % element_order(G, g) == 0


def _count_scans(monkeypatch):
    """Wrap ``_Enumerator.scan``; returns the relator argument of each scan."""
    calls = []
    scan = _Enumerator.scan

    def counted(self, alpha, relator):
        calls.append(relator)
        return scan(self, alpha, relator)

    monkeypatch.setattr(_Enumerator, "scan", counted)
    return calls


def test_power_relator_scanned_once_per_cycle(monkeypatch):
    calls = _count_scans(monkeypatch)
    assert len(enumerate_cosets(cyclic(2000), 5000)) == 2000
    assert len(calls) <= 2


# relators, and the lengths of those whose cycles get marks: only a power
# g^N, N >= 2, of one generator, whatever its sign
MARKED = {
    "a^N": (["a^12"], {12}),
    "a^-N": (["a^-12"], {12}),
    "(ab)^n": (["a^2", "b^3", "a b a b a b a b a b"], {2, 3}),
    "one letter": (["a", "b^3"], {3}),
    "empty": (["a^4", "1"], {4}),
    "a^3 b": (["a^3 b", "b^2"], {2}),
}


@pytest.mark.parametrize("relators, marked", MARKED.values(), ids=MARKED.keys())
def test_only_powers_of_one_generator_are_marked(monkeypatch, relators, marked):
    """``mark_cycle`` runs after a scan of a^N or a^-N and never after one
    of (ab)^n, a^3 b, a one-letter relator or the empty relator; the
    relators of each presentation differ in length, which names the one
    scanned last.
    The rows are plain HLT's either way."""
    p = make_presentation(["a", "b"], relators)
    calls = _count_scans(monkeypatch)
    after = set()
    mark_cycle = _Enumerator.mark_cycle

    def recorded(self, *args):
        after.add(len(calls[-1][2]))  # the forward column lists of the relator
        return mark_cycle(self, *args)

    monkeypatch.setattr(_Enumerator, "mark_cycle", recorded)
    assert outcome(enumerate_cosets, p, 500) == outcome(hlt_plain, p, 500)
    assert after == marked


def test_every_scan_goes_through_a_scan_method(monkeypatch):
    """Every dicyclic relator is scanned through the patched method, and
    only x^2 a^-ell has a run to cross, a^-ell, however short: a^(2 ell)
    is the power whose cycles are recorded, x has no power and x^-1 a x a
    has no run.  Each relator is split into segments, (length, crossed)
    below, and the relators are told apart by their first scans, at coset
    0 in presentation order."""
    calls = _count_scans(monkeypatch)
    for ell in (2, 3, 50):
        calls.clear()
        assert len(enumerate_cosets(dicyclic(ell))) == 4 * ell
        crossed = {}
        for segments, *_ in calls:
            crossed.setdefault(id(segments), [
                (end - start, run is not None) for start, end, _, run in segments
            ])
        assert list(crossed.values()) == [
            [(2 * ell, False)], [(2, False), (ell, True)], [(4, False)]
        ]
        assert len(calls) > 4 * ell  # x^2 a^-ell and x^-1 a x a at every live coset


def _column_reads(monkeypatch, p):
    """Subscript reads of the working table's columns while p is enumerated."""
    reads = 0

    class CountingColumn(list):
        def __getitem__(self, index):
            nonlocal reads
            reads += 1
            return list.__getitem__(self, index)

    init = _Enumerator.__init__

    def counting_init(self, *args):
        # wrap the columns where they are registered too, so that they grow
        # with the other per-coset arrays
        init(self, *args)
        assert len(self.arrays) == len(self.cols)  # nothing else registered yet
        self.cols = [CountingColumn(col) for col in self.cols]
        self.arrays = [(col, [-1]) for col in self.cols]

    monkeypatch.setattr(_Enumerator, "__init__", counting_init)
    enumerate_cosets(p)
    return reads


def test_dicyclic_enumeration_reads_linearly(monkeypatch):
    """Four times the order costs about four times the column reads (14,000
    at order 1,000), where scanning a^-ell letter by letter costs about
    sixteen times (264,000 at order 1,000)."""
    small = _column_reads(monkeypatch, dicyclic(250))
    large = _column_reads(monkeypatch, dicyclic(1000))
    assert large / small < 6


def test_skip_matches_plain_hlt_on_catalog():
    for entry in builtin_groups(240):
        p = entry.presentation
        assert enumerate_cosets(p) == hlt_plain(p, 200_000), entry.name


@st.composite
def power_presentations(draw):
    """0-3 generators; relators mostly proper powers w^k, some plain words."""
    rank = draw(st.integers(0, 3))
    letter = st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1)))
    relators = []
    for _ in range(draw(st.integers(0, 4 if rank else 0))):
        w = draw(st.lists(letter, min_size=1, max_size=4))
        k = draw(st.integers(1, 9)) if draw(st.integers(0, 3)) else 1
        relators.append(Word(tuple(w) * k))
    gens = tuple(Generator(f"g{i}") for i in range(rank))
    return Presentation(gens, tuple(r for r in relators if r))


@settings(max_examples=300, deadline=None)
@given(p=power_presentations(), budget=st.integers(1, 3000))
def test_skip_matches_plain_hlt(p, budget):
    assert outcome(enumerate_cosets, p, budget) == outcome(hlt_plain, p, budget)


@st.composite
def syllable_presentations(draw):
    """1-3 generators, each with a single-letter power g^N and the first with
    two, and 1-4 relators of runs g^k, each with a run of the first generator
    of 4 letters or more, which scans cross along recorded cycles.  Most of
    these groups are small, so coincidences fold cycles after they were
    recorded, and a jump can land on a coset that has died since."""
    rank = draw(st.integers(1, 3))
    gen = st.integers(0, rank - 1)
    sign = st.sampled_from((1, -1))
    relators = [
        Word(((g, draw(sign)),) * draw(st.integers(2, 40))) for g in (0, *range(rank))
    ]
    for _ in range(draw(st.integers(1, 4))):
        runs = draw(st.lists(st.tuples(gen, sign, st.integers(1, 25)), max_size=6))
        run = (0, draw(sign), draw(st.integers(4, 25)))
        runs.insert(draw(st.integers(0, len(runs))), run)
        relators.append(Word(tuple((g, s) for g, s, k in runs for _ in range(k))))
    gens = tuple(Generator(f"g{i}") for i in range(rank))
    return Presentation(gens, tuple(relators))


# no shrinking: a scan that corrupts the table can loop for ever on inputs
# near a failing one, and the shrinker would try hundreds of those
@settings(
    max_examples=400, deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(p=syllable_presentations(), budget=st.integers(1, 3000))
def test_jumps_match_plain_hlt(p, budget):
    assert_matches_plain_hlt(p, budget)


def assert_matches_plain_hlt(p, budget):
    """Rows, or exception type and message, equal plain HLT's.  Where plain
    HLT completes, the enumeration is first run at the number of cosets
    plain HLT defined, the least budget that lets it complete: a scan that
    defines a coset more, as one from a dead coset does, runs out there."""
    expected = outcome(hlt_plain_run, p, budget)
    if not isinstance(expected[0], type):
        expected, defined = expected
        assert outcome(enumerate_cosets, p, defined) == expected
    assert outcome(enumerate_cosets, p, budget) == expected


# relators that are not cyclically reduced; the last two presentations are
# the enumeration digest's "power 2" and "power 14", with a, b for g0, g1
NOT_CYCLICALLY_REDUCED = {
    "b-a3-b": ["b^-1 a^-3 b", "b^4"],
    "power-2": ["b^-1", "a^-1" + " b a" * 7 + " a", "b^7", "b^-9"],
    "power-14": ["b^-1 a b", "b^-7", " ".join(["b a^-1 b"] * 4), "b^-1 a b a^-1"],
}


@pytest.mark.parametrize("budget", [150, 3_000])
@pytest.mark.parametrize(
    "relators", NOT_CYCLICALLY_REDUCED.values(), ids=NOT_CYCLICALLY_REDUCED.keys()
)
def test_definition_run_rereads_the_backward_entry(relators, budget):
    """A definition in a scan's definition run can also define the entry
    where the backward scan stopped: when b is the coset extended and x_j
    is the inverse of the letter defined, as at the ends of b^-1 a^-3 b.
    A run that did not read that entry would define a coset more, and
    "power-2" and "power-14" would exhaust both budgets."""
    assert_matches_plain_hlt(make_presentation(["a", "b"], relators), budget)


FOLDING = ["a^27", "a^18", "b^-1 a^-6 b a", "b^3"]


@pytest.mark.parametrize(
    "relators, budget",
    [(FOLDING, 2721), (FOLDING, 150), (FOLDING, 200_000),
     (["b^3", "b a^3", "b^4 a^3 b^4"], 200_000)],
    ids=["folding-2721", "folding-150", "folding", "b-cycle-merged"],
)
def test_jump_lands_on_a_live_coset(relators, budget):
    """Both groups have order 3, and a jump along a cycle indexed before a
    coincidence merged cosets on it can land on a dead coset.  A jump that
    skipped ``rep`` on its target exhausts the budget 150 on the first
    group and enumerates order 7 on the second."""
    p = make_presentation(["a", "b"], relators)
    assert outcome(enumerate_cosets, p, budget) == outcome(hlt_plain, p, budget)
    if budget == 200_000:
        assert len(enumerate_cosets(p, budget)) == 3


@settings(max_examples=300, deadline=None)
@given(p=power_presentations())
def test_positive_free_abelian_rank_never_completes(p):
    """Soundness of the certificate ``analyze`` trusts: a presentation whose
    abelianization has positive free rank defines an infinite group."""
    if free_abelian_rank(p) > 0:
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_cosets(p, 2_000)


def test_enumeration_digest_is_pinned():
    """The seeded sample of the digest families gives the pinned rows and
    exhausted outcomes; ``tests/enumeration_digest.py`` checks the full set."""
    assert enumeration_digest.digest(enumeration_digest.inputs(sample=True)) == (
        enumeration_digest.SAMPLE
    )


def test_enumerator_mutants_apply_once():
    """Every mutant that ``tests/mutants.py`` applies still finds its old
    text exactly once in the source, so the harness mutates what it names,
    and the tests it runs first still exist."""
    assert mutants.MUTANTS
    for mutant in mutants.MUTANTS:
        assert mutants.occurrences(mutant) == 1, mutant.name
        path, _, test = mutant.first.partition("::")
        assert f"def {test}(" in (mutants.ROOT / path).read_text() or not test, mutant.name


def test_enumeration_deterministic():
    p = make_presentation(["a", "x"], ["a^6", "x^2 a^-3", "x^-1 a x a"])
    assert enumerate_cosets(p, 1000) == enumerate_cosets(p, 1000)


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_element_names_spell_each_element(ell):
    G = dicyclic_group(ell)
    names = G.element_names(range(G.order))
    assert names[0] == "1"
    for b in range(1, G.order):
        assert G.evaluate_word(parse_word(names[b], G.source.generators)) == b


def test_word_evaluation():
    G = dicyclic_group(2)
    p = G.source
    rel = p.relators[0]  # a^4
    assert G.evaluate_word(rel) == 0


@pytest.mark.parametrize(
    "presentation",
    [pytest.param(e.presentation, id=e.name) for e in builtin_groups(60)]
    + [pytest.param(make_presentation(*Z2_Z6), id="Z2xZ6"),
       pytest.param(make_presentation(*Z3_Q8), id="Z3xQ8")],
)
def test_table_primitives_match_mul_and_inv(presentation):
    """Everything read from the coset table and word tree agrees with the
    full multiplication table and the inverses."""
    G = realize_presentation(presentation)
    n, mul, inv, imgs = G.order, G.mul, G.inv, G.generator_images
    assert G.central == tuple(all(mul[x][b] == mul[b][x] for b in range(n)) for x in imgs)
    assert sorted(b for b, _, _ in G.tree) == list(range(1, n))
    for b, a, c in G.tree:
        x = imgs[c >> 1]  # column 2g is the generator g, column 2g+1 its inverse
        assert b == mul[a][inv[x] if c & 1 else x]
    for t in range(n):
        assert G.left(t) == list(mul[t])
    for b in range(n):
        assert mul[b][inv[b]] == 0
    for g, x in enumerate(imgs):
        assert G.conjugation(g) == [mul[mul[x][b]][inv[x]] for b in range(n)]
    for g in range(n):
        k, acc = 1, g
        while acc:
            acc, k = mul[acc][g], k + 1
        assert element_order(G, g) == k


def test_analysis_never_builds_the_multiplication_table():
    G = realize_presentation(dicyclic(3))  # fresh: the shared groups may have built it
    profile = conjugacy_classes(G)
    assert not is_ambivalent(G, profile).ambivalent
    involution_space(profile)
    for img in G.generator_images:
        element_order(G, img)
    G.evaluate_word(G.source.relators[2])
    wh1_general(G, CoefficientSystem((2,)))
    wh1_general(G, CoefficientSystem((0,), (((1,),), ((-1,),))))
    assert "mul" not in vars(G)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is read from /proc")
def test_analyze_order_4000_stays_small():
    """analyze on dicyclic order 4000 peaks under 100 MiB of RSS.

    The child reports its own VmHWM, which starts afresh at exec; its
    ru_maxrss would carry over the peak of this pytest process.
    """
    r = run_python("-c", (
        "from whdetect import analyze, catalog\n"
        "assert analyze(catalog.dicyclic(1000)).order == 4000\n"
        "for line in open('/proc/self/status'):\n"
        "    if line.startswith('VmHWM:'):\n"
        "        print(line.split()[1])\n"
    ))
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) < 100 * 1024
