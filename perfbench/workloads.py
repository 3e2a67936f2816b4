"""The benchmark's workloads: seeded inputs, operations and oracles.

Two workloads each join two input sets: ``analyze`` runs the catalog sweep
and the large groups through ``analyze``; ``algebra`` runs ``wh1_general``
with coefficients and the Steinberg words.  ``build(name, wd, seed)`` makes
one workload's inputs from the seed and returns its operations.  ``wd`` is the imported ``whdetect`` package;
operations look its functions up at call time, so a traced run sees the
rebound (span-recording) functions.  Expensive oracle work happens in each
operation's ``make_check``, which the runner calls after set-up is timed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import partial
from math import gcd
from typing import Callable, Optional

import oracles
from rewrite import render, rewrite

Check = Callable[[object], Optional[str]]


@dataclass
class Op:
    kind: str  # input family, for per-kind breakdowns
    run: Callable[[], object]
    make_check: Callable[[], Check]


def digest(record) -> str:
    """Short hash of the generated inputs, equal across commits for one seed."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _letters(presentation) -> tuple[list[str], list[list[tuple[int, int]]]]:
    return (
        [g.name for g in presentation.generators],
        [list(r.letters) for r in presentation.relators],
    )


# ---------------------------------------------------------------------------
# catalog_sweep: parse_presentation + analyze over every preset
# ---------------------------------------------------------------------------


def _parse_analyze(wd, text, entry):
    return wd.analyze(
        wd.parse_presentation(text),
        name=entry.name,
        k1_trivial=entry.k1_trivial,
        goodness=entry.goodness,
    )


def _catalog_check(entry) -> Check:
    classes, s, p = oracles.catalog_class_data(entry.name)
    if (p == 0) != entry.expected_ambivalent:
        raise ValueError(f"{entry.name}: closed form disagrees with the catalog")
    verdict = oracles.expected_verdict(
        p > 0, entry.k1_trivial, entry.goodness.value == "good"
    )
    return _fields_check(oracles.finite_expectation(entry.known_order, classes, s, p, verdict))


def build_catalog_sweep(wd, rng):
    entries = wd.builtin_groups(240)
    rng.shuffle(entries)
    ops, record = [], []
    for e in entries:
        _, gens, rels = rewrite(*_letters(e.presentation), rng)
        text = render(gens, rels)
        record.append([e.name, text, e.k1_trivial, e.goodness.value])
        ops.append(Op(
            "catalog",
            partial(_parse_analyze, wd, text, e),
            partial(_catalog_check, e),
        ))
    return ops, record


# ---------------------------------------------------------------------------
# large_groups: analyze on large finite, infinite and Seifert inputs
# ---------------------------------------------------------------------------


def _geometric(lo: int, hi: int, count: int) -> list[int]:
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


# orders around which the seed jitters each input by at most JITTER
DICYCLIC_ORDERS = _geometric(300, 1200, 15)
# the largest group, whose multiplication table sets the peak memory, so that
# the peak does not depend on how the heap was left by earlier operations; its
# order is not jittered, since peak_rss_mb follows it (a 2% larger order
# raised the peak by 4%)
PEAK_DICYCLIC_ORDER = 2000
PRISM_ORDERS = _geometric(200, 700, 14)
JITTER = 0.02

INFINITE_PRESENTATIONS = (
    ("z2", [[(0, 1), (1, 1), (0, -1), (1, -1)]]),
    ("triangle_2_3_7", [[(0, 1)] * 2, [(1, 1)] * 3, [(0, 1), (1, 1)] * 7]),
)

# (base type, genus, exceptional fiber orders): every base orbifold has
# Euler characteristic <= 0, so the group is infinite and the fiber central
INFINITE_SEIFERT_SHAPES = (
    ("o1", 1, ()), ("o1", 1, (2,)), ("o1", 1, (3, 2)), ("o1", 0, (2, 3, 6)),
    ("o1", 0, (2, 4, 4)), ("o1", 0, (3, 3, 3)), ("o1", 0, (2, 2, 2, 2)),
    ("o1", 0, (2, 3, 7)), ("o1", 0, (3, 4, 5)), ("o1", 2, ()), ("o1", 2, (2,)),
    ("n1", 1, (2, 2)), ("n1", 2, ()), ("n1", 1, (3, 3)),
)
N_INFINITE_SEIFERT = 10


def _jitter(rng, centre: int) -> int:
    return max(2, round(centre * (1 + rng.uniform(-JITTER, JITTER))))


def _binary_dihedral_check(order: int, lemma74) -> Check:
    classes, s, p = oracles.catalog_class_data(f"dicyclic_{order}")
    verdict = oracles.expected_verdict(p > 0, True, True)
    return _fields_check(oracles.finite_expectation(order, classes, s, p, verdict, lemma74))


def _call(wd, function: str, *args, **kwargs):
    """Call a whdetect function looked up now, so a traced run sees its wrapper."""
    return getattr(wd, function)(*args, **kwargs)


def _fields_check(want: dict) -> Check:
    return partial(oracles.check_fields, expected=want)


def build_large_groups(wd, rng):
    specs = []
    for name, rels in INFINITE_PRESENTATIONS:
        _, gens, rels = rewrite(["a", "b"], rels, rng, kinds=("rename",))
        specs.append(["infinite_presentation", name, render(gens, rels)])
    for ell in [_jitter(rng, c // 4) for c in DICYCLIC_ORDERS] + [PEAK_DICYCLIC_ORDER // 4]:
        rels = [[(0, 1)] * (2 * ell), [(1, 1)] * 2 + [(0, -1)] * ell,
                [(1, -1), (0, 1), (1, 1), (0, 1)]]
        _, gens, rels = rewrite(["a", "x"], rels, rng, kinds=("rename",))
        specs.append(["dicyclic", 4 * ell, render(gens, rels)])
    for centre in PRISM_ORDERS:
        specs.append(["prism", 4 * _jitter(rng, centre // 4)])
    for _ in range(N_INFINITE_SEIFERT):
        eps, genus, alphas = rng.choice(INFINITE_SEIFERT_SHAPES)
        fibers = []
        for a in alphas:
            fibers.append([a, rng.choice([b for b in range(1, a) if gcd(a, b) == 1])])
        specs.append(["infinite_seifert", rng.randint(-3, 3), eps, genus, fibers])
    # the order stays fixed, with the coset-budget runs first: peak memory
    # depends on what the heap holds when the largest operations run, and
    # must not depend on the seed

    ops = []
    for spec in specs:
        kind = spec[0]
        if kind == "dicyclic":
            p = wd.parse_presentation(spec[2])
            run = partial(_call, wd, "analyze", p, name=f"dicyclic_{spec[1]}",
                          k1_trivial=True, goodness=wd.catalog.Goodness.GOOD)
            check = partial(_binary_dihedral_check, spec[1], None)
        elif kind == "prism":
            # (-1; o1, 0; (2:1), (2:1), (n:1)) has the binary dihedral group of
            # order 4n as fundamental group; its fiber is the central involution,
            # so the central-fiber lemma is inconclusive
            s = wd.SeifertInvariants(-1, wd.Epsilon.O1, 0, ((2, 1), (2, 1), (spec[1] // 4, 1)))
            run = partial(_call, wd, "analyze", s)
            check = partial(_binary_dihedral_check, spec[1], "inconclusive")
        elif kind == "infinite_presentation":
            run = partial(_call, wd, "analyze", wd.parse_presentation(spec[2]), name=spec[1])
            check = partial(_fields_check, oracles.infinite_expectation(
                None, "preconditions_unmet"))
        else:
            _, b, eps, genus, fibers = spec
            s = wd.SeifertInvariants(b, wd.Epsilon(eps), genus, tuple(map(tuple, fibers)))
            chi = oracles.seifert_chi(eps == "o1", genus, [a for a, _ in fibers])
            k1 = True if eps == "o1" and genus <= 1 else None
            good = genus <= 1 and chi >= 0
            run = partial(_call, wd, "analyze", s)
            check = partial(_fields_check, oracles.infinite_expectation(
                False, oracles.expected_verdict(True, k1, good), "not_ambivalent",
                k1_trivial=k1, goodness="good" if good else "unknown"))
        ops.append(Op(kind, run, check))
    return ops, specs


# ---------------------------------------------------------------------------
# wh1_coeffs: wh1_general with coefficients, on realized catalog groups
# ---------------------------------------------------------------------------

GAMMAS = ((2,), (0,), (6,), (0, 4), (2, 2))

# a fixed ladder of group sizes, each with every coefficient group, under the
# trivial action and under a sign action where one is consistent, so that
# the cost of a pass barely depends on the seed; the seed renames the
# generators and picks the sign vector
WH1_GROUPS = (
    "cyclic_6", "cyclic_12", "cyclic_20", "cyclic_30", "cyclic_42", "cyclic_60",
    "dicyclic_12", "dicyclic_20", "dicyclic_28", "dicyclic_36", "dicyclic_48",
    "dihedral_10", "dihedral_18", "dihedral_24",
    "binary_tetrahedral_24", "binary_octahedral_48",
)


def _wh1_check(G, gamma, signs) -> Check:
    want = oracles.expected_wh1(G, gamma, signs)

    def check(out) -> Optional[str]:
        got = tuple(out.invariant_factors)
        return None if got == want else f"invariant factors {got}, expected {want}"

    return check


def build_wh1_coeffs(wd, rng):
    catalog = {e.name: e for e in wd.builtin_groups(60)}
    cases = []
    for name in WH1_GROUPS:
        gens, rels = _letters(catalog[name].presentation)
        _, gens, rels = rewrite(gens, rels, rng, kinds=("rename",))
        text = render(gens, rels)
        G = wd.realize_presentation(wd.parse_presentation(text))
        signs = [
            v for v in _sign_vectors(len(gens))
            if any(e < 0 for e in v) and oracles.sign_action_consistent(rels, v)
        ]
        actions = [None] + ([rng.choice(signs)] if signs else [])
        cases += [(name, text, G, gamma, v) for gamma in GAMMAS for v in actions]
    rng.shuffle(cases)
    ops, record = [], []
    for name, text, G, gamma, signs in cases:
        action = None
        if signs is not None:
            r = len(gamma)
            action = tuple(
                tuple(tuple(e * (i == j) for j in range(r)) for i in range(r)) for e in signs
            )
        coeff = wd.CoefficientSystem(gamma, action)
        record.append([name, text, list(gamma), signs])
        ops.append(Op(
            "sign" if signs else "trivial",
            partial(_call, wd, "wh1_general", G, coeff),
            partial(_wh1_check, G, gamma, signs),
        ))
    return ops, record


def _sign_vectors(rank: int):
    if rank == 0:
        yield ()
        return
    for rest in _sign_vectors(rank - 1):
        yield rest + (1,)
        yield rest + (-1,)


# ---------------------------------------------------------------------------
# steinberg_words: evaluate, pd_decompose and k2_membership
# ---------------------------------------------------------------------------

STEINBERG_GROUPS = ("cyclic_4", "dicyclic_12", "binary_tetrahedral_24")
DIMS = (3, 4, 5, 6, 7, 8)
LENGTHS = (10, 20, 30, 40)
RANDOM_PER_SHAPE = 2
RELATIONS = ("additivity", "commuting", "steinberg", "w_inverse", "w_fourth")
RELATIONS_PER_DIM = 3


class _WordMaker:
    """Random Steinberg words over one realized group, as plain data.

    A coefficient is a list of ``[sign, generator word]`` terms; a letter is
    ``[i, j, coefficient]`` with 1-based indices.
    """

    def __init__(self, rng, n_gens: int):
        self.rng = rng
        self.n_gens = n_gens

    def element(self) -> list:
        return [[self.rng.randrange(self.n_gens), self.rng.choice((1, -1))]
                for _ in range(self.rng.randint(0, 4))]

    def signed(self) -> list:
        return [[self.rng.choice((1, -1)), self.element()]]

    def pair(self, n: int) -> tuple[int, int]:
        i, j = self.rng.sample(range(1, n + 1), 2)
        return i, j

    def random_word(self, n: int, length: int) -> list:
        return [[*self.pair(n), self.signed()] for _ in range(length)]

    def w_element(self, n: int) -> list:
        i, j = self.pair(n)
        (sign, word), = self.signed()
        inverse = [[g, -s] for g, s in reversed(word)]
        u = [[sign, word]]
        return [[i, j, u], [j, i, [[-sign, inverse]]], [i, j, u]]

    def relation(self, kind: str, n: int) -> list:
        rng = self.rng
        if kind == "additivity":
            i, j = self.pair(n)
            a, b = self.signed(), self.signed()
            core = [[i, j, a], [i, j, b], [i, j, _neg(a + b)]]
        elif kind == "commuting":
            while True:
                i, j = self.pair(n)
                k, l = self.pair(n)
                if j != k and i != l:
                    break
            a, b = self.signed(), self.signed()
            core = [[i, j, a], [k, l, b], [i, j, _neg(a)], [k, l, _neg(b)]]
        elif kind == "steinberg":
            i, j, k = rng.sample(range(1, n + 1), 3)
            a, b = self.signed(), self.signed()
            ab = [[a[0][0] * b[0][0], a[0][1] + b[0][1]]]
            core = [[i, j, a], [j, k, b], [i, j, _neg(a)], [j, k, _neg(b)], [i, k, _neg(ab)]]
        elif kind == "w_inverse":
            w = self.random_word(n, rng.randint(5, 15))
            core = w + _inverse(w)
        else:
            core = self.w_element(n) * 4
        u = self.random_word(n, rng.randint(3, 12))
        return u + core + _inverse(u)


def _neg(coeff: list) -> list:
    return [[-s, w] for s, w in coeff]


def _inverse(word: list) -> list:
    return [[i, j, _neg(c)] for i, j, c in reversed(word)]


def _coefficient(wd, G, coeff: list) -> dict[int, int]:
    d: dict[int, int] = {}
    for sign, letters in coeff:
        g = G.evaluate_word(wd.Word(tuple(map(tuple, letters))))
        d[g] = d.get(g, 0) + sign
    return {g: c for g, c in d.items() if c}


def _to_word(wd, G, word: list):
    st = wd.steinberg
    return st.SteinbergWord(tuple(
        st.SteinbergLetter(i, j, wd.GroupRingElement.from_dict(G, _coefficient(wd, G, c)))
        for i, j, c in word
    ))


def _evaluate_pd(wd, w, n, G):
    M = wd.evaluate(w, n, G)
    return M, wd.pd_decompose(M)


def _evaluate_check(wd, G, n, word, monomial: bool) -> Check:
    ref = oracles.reference_evaluate(
        G, n, [(i, j, _coefficient(wd, G, c)) for i, j, c in word]
    )
    want_pd = oracles.expected_pd(ref)
    if monomial and want_pd is None:
        raise ValueError("a product of w-elements must be monomial")

    want = [[wd.GroupRingElement.from_dict(G, d) for d in row] for row in ref]

    def check(out) -> Optional[str]:
        M, pd = out
        return oracles.check_matrix(M, want) or oracles.check_pd(pd, want_pd)

    return check


def _k2_check() -> Check:
    return lambda out: None if out is True else f"relation word gave {out!r}, not in K2"


def build_steinberg_words(wd, rng):
    catalog = {e.name: e for e in wd.builtin_groups(24)}
    specs = []
    for name in STEINBERG_GROUPS:
        maker = _WordMaker(rng, catalog[name].presentation.rank)
        shift = rng.randrange(len(RELATIONS))
        for d, n in enumerate(DIMS):
            for length in LENGTHS:
                for _ in range(RANDOM_PER_SHAPE):
                    specs.append([name, n, "random", maker.random_word(n, length)])
            w = []
            for _ in range(rng.randint(4, 13)):
                w += maker.w_element(n)
            specs.append([name, n, "w_word", w])
            for r in range(RELATIONS_PER_DIM):
                kind = RELATIONS[(shift + d * RELATIONS_PER_DIM + r) % len(RELATIONS)]
                specs.append([name, n, "relation", maker.relation(kind, n)])
    rng.shuffle(specs)

    groups = {name: wd.realize_presentation(catalog[name].presentation)
              for name in STEINBERG_GROUPS}
    ops = []
    for name, n, kind, word in specs:
        G = groups[name]
        w = _to_word(wd, G, word)
        if kind == "relation":
            ops.append(Op(kind, partial(_call, wd, "k2_membership", w, n, G), _k2_check))
        else:
            ops.append(Op(
                kind,
                partial(_evaluate_pd, wd, w, n, G),
                partial(_evaluate_check, wd, G, n, word, kind == "w_word"),
            ))
    return ops, specs


# name -> input sets, each built by (wd, rng) -> (operations, record of the inputs)
WORKLOADS = {
    "analyze": (build_catalog_sweep, build_large_groups),
    "algebra": (build_wh1_coeffs, build_steinberg_words),
}


def build(name: str, wd, seed: int):
    """(operations, input digest) of one workload for one seed."""
    rng = random.Random(f"{name}:{seed}")
    ops, record = [], []
    for part in WORKLOADS[name]:
        part_ops, part_record = part(wd, rng)
        ops += part_ops
        record.append(part_record)
    return ops, digest([name, seed, record])
