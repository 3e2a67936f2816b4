import dataclasses
import functools
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from whdetect import coset
from whdetect.catalog import (
    Epsilon,
    Goodness,
    SeifertInvariants,
    builtin_groups,
    get_preset,
)
from whdetect.cli import main
from whdetect.pipeline import (
    SCHEMA_VERSION,
    DetectionReport,
    analyze,
    free_abelian_rank,
    reproduce_table_73,
)
from whdetect.words import Generator, Presentation, Word, make_presentation

from conftest import run_python


# ---------------------------------------------------------------------------
# Verdict gating
# ---------------------------------------------------------------------------


@given(
    k1=st.sampled_from([True, False, None]),
    good=st.sampled_from([Goodness.GOOD, Goodness.UNKNOWN]),
    nonamb=st.sampled_from([True, False, None]),
)
def test_verdict_gating_property(k1, good, nonamb):
    from whdetect.pipeline import _verdict

    v = _verdict(nonamb, k1, good)
    if k1 is True and good is Goodness.GOOD and nonamb is not None:
        assert v == ("detectable" if nonamb else "not_detectable_by_theta")
    else:
        assert v == "preconditions_unmet"


def test_analyze_detectable_group():
    r = analyze(get_preset("cyclic_5"))
    assert r.verdict == "detectable"
    assert r.order == 5 and r.class_count == 5
    assert r.ambivalent is False and r.detection_rank == 2
    assert r.wh1_dim == 4 and r.z4_dim == 2
    assert len(r.detection_basis) == 2


def test_analyze_ambivalent_group():
    r = analyze(get_preset("dicyclic_8"))
    assert r.verdict == "not_detectable_by_theta"
    assert r.ambivalent is True and r.detection_rank == 0
    assert r.detection_basis == ()


def test_analyze_bare_presentation_needs_flags():
    p = make_presentation(["a"], ["a^3"])
    r = analyze(p)
    assert r.verdict == "preconditions_unmet"  # k1/goodness unknown
    r2 = analyze(p, k1_trivial=True, goodness=Goodness.GOOD)
    assert r2.verdict == "detectable"


def test_analyze_budget_exhausted():
    p = make_presentation(["a"], [])
    r = analyze(p, budget=50, k1_trivial=True, goodness=Goodness.GOOD)
    assert r.verdict == "preconditions_unmet"
    assert r.order is None and r.ambivalent is None


def test_analyze_seifert_infinite_via_lemma():
    r = analyze(SeifertInvariants(0, Epsilon.O1, 1))  # 3-torus
    assert r.order is None
    assert r.lemma74 == "not_ambivalent"
    assert r.ambivalent is False
    assert r.verdict == "detectable"


def test_analyze_seifert_inconclusive_infinite():
    r = analyze(SeifertInvariants(0, Epsilon.O2, 1))
    assert r.lemma74 == "inconclusive"
    assert r.verdict == "preconditions_unmet"


def test_analyze_seifert_finite():
    r = analyze(SeifertInvariants(3, Epsilon.O1, 0))
    assert r.order == 3
    assert r.verdict == "detectable"
    assert r.lemma74 == "not_ambivalent"


def test_report_json_deterministic():
    a = analyze(get_preset("dicyclic_12")).to_json()
    b = analyze(get_preset("dicyclic_12")).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["schema"] == SCHEMA_VERSION
    assert payload["name"] == "dicyclic_12"


# ---------------------------------------------------------------------------
# Classification reproduction
# ---------------------------------------------------------------------------


def test_reproduce_classification_small():
    diffs, computed = reproduce_table_73(48, budget=50_000)
    assert diffs == ()
    assert computed["cyclic_2"] and not computed["cyclic_3"]
    assert computed["dicyclic_8"] and not computed["dicyclic_12"]
    assert computed["binary_octahedral_48"]
    assert not computed["binary_tetrahedral_24"]
    assert all("dihedral" not in name for name in computed)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_analyze_preset(capsys):
    code, out = run_cli(capsys, "analyze", "--preset", "cyclic_5")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "detectable"
    assert payload["detection_rank"] == 2


def test_cli_analyze_seifert(capsys):
    code, out = run_cli(capsys, "analyze", "--seifert", "0,o1,1")
    assert code == 0
    assert json.loads(out)["lemma74"] == "not_ambivalent"


def test_cli_seifert_negative_b_equals_form():
    r = run_python("-m", "whdetect.cli", "analyze", "--seifert=-1,o1,0,(2:1),(3:1),(5:1)")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["order"] == 120


def test_cli_help_documents_negative_b_form(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # keep the example on one line
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    assert "--seifert=-1,o1,0,(2:1),(3:1),(5:1)" in capsys.readouterr().out


@pytest.mark.parametrize("datum", ["1,n1,1", "-1,n1,1,(3:1)"])
def test_cli_nonorientable_seifert_never_enumerates(datum, capsys, monkeypatch):
    """A nonorientable total space has infinite pi_1: the coset budget is not
    spent on it, and the finite-group flags do not apply."""
    calls = []
    monkeypatch.setattr(coset, "enumerate_cosets", lambda *args: calls.append(args))
    code, out = run_cli(capsys, "analyze", f"--seifert={datum}")
    assert code == 0 and calls == []
    report = json.loads(out)
    assert report["lemma74"] == "not_ambivalent"
    assert report["k1_trivial"] is None
    assert report["verdict"] == "preconditions_unmet"


INFINITE_ABELIANIZATION = {
    "Z": (["a"], []),
    "Z^2": (["a", "b"], ["a b A B"]),
    "Z*Z/2": (["a", "b"], ["a^2"]),
    "Z^3": (["a", "b", "c"], ["a b A B", "b c B C", "a c A C"]),
    "deficiency-0": (["a", "b"], ["a b A B", "a b A B " * 3]),
}


@pytest.mark.parametrize(
    "gens, rels", INFINITE_ABELIANIZATION.values(), ids=list(INFINITE_ABELIANIZATION)
)
def test_infinite_abelianization_never_enumerates(gens, rels, monkeypatch):
    """Free abelian rank > 0 certifies an infinite group, whose coset table
    never completes: ``analyze`` gives the budget-exhausted report without
    spending the budget."""
    p = make_presentation(gens, rels)
    with pytest.raises(coset.EnumerationBudgetExceeded):
        coset.enumerate_cosets(p, 2_000)
    calls = []
    monkeypatch.setattr(coset, "enumerate_cosets", lambda *args: calls.append(args))
    report = analyze(p, budget=2_000)
    assert calls == []
    assert report == DetectionReport(
        name="presentation", verdict="preconditions_unmet", k1_trivial=None, goodness="unknown"
    )


def test_finite_abelianization_infinite_group_spends_the_budget(monkeypatch):
    """The (2,3,7) triangle group is infinite with trivial abelianization: no
    certificate applies, so one enumeration runs to the budget."""
    p = make_presentation(["a", "b"], ["a^2", "b^3", "a b " * 7])
    assert free_abelian_rank(p) == 0
    enumerate_cosets, calls = coset.enumerate_cosets, []

    def counted(*args):
        calls.append(args)
        return enumerate_cosets(*args)

    monkeypatch.setattr(coset, "enumerate_cosets", counted)
    report = analyze(p, budget=2_000)
    assert len(calls) == 1
    assert report.verdict == "preconditions_unmet" and report.order is None


def test_cli_analyze_presentation_file(tmp_path, capsys):
    f = tmp_path / "q8.txt"
    f.write_text("gens: a, x; rels: a^4, x^2 a^-2, x^-1 a x a")
    code, out = run_cli(capsys, "analyze", "--presentation", str(f))
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "q8"
    assert payload["order"] == 8 and payload["ambivalent"] is True


def test_cli_table73(monkeypatch, capsys):
    """The catalog passes; with one expectation flipped, the command exits 1
    and prints the groups that differ as CSV."""
    code, out = run_cli(capsys, "table73", "--max-order", "24")
    assert code == 0
    assert out.startswith("PASS")
    assert "dicyclic_8" in out

    def flipped(max_order):
        return [
            dataclasses.replace(e, expected_ambivalent=False) if e.name == "dicyclic_8" else e
            for e in builtin_groups(max_order)
        ]

    monkeypatch.setattr("whdetect.pipeline.builtin_groups", flipped)
    code, out = run_cli(capsys, "table73", "--max-order", "24")
    assert code == 1
    assert out.splitlines() == [
        "name,expected_ambivalent,computed_ambivalent", "dicyclic_8,False,True"
    ]


def test_cli_analyze_preset_beyond_builtin_catalog(capsys):
    code, out = run_cli(capsys, "analyze", "--preset", "dicyclic_4000")
    assert code == 0
    payload = json.loads(out)
    assert (payload["name"], payload["order"]) == ("dicyclic_4000", 4000)
    assert payload["class_count"] == 1003 and payload["ambivalent"] is True


def test_runtime_needs_no_numpy():
    r = run_python("-c", (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "import whdetect, whdetect.cli\n"
        "print(whdetect.analyze(whdetect.get_preset('dicyclic_12')).verdict)"
    ))
    assert r.returncode == 0, r.stderr
    assert r.stdout == "detectable\n"


def test_cli_wh1(capsys):
    code, out = run_cli(capsys, "wh1", "--preset", "cyclic_3")
    assert code == 0
    payload = json.loads(out)
    assert payload["wh1_invariant_factors"] == [2, 2]
    code, out = run_cli(capsys, "wh1", "--preset", "cyclic_3", "--gamma", "0")
    assert json.loads(out)["wh1_invariant_factors"] == [0, 0]


def test_cli_steinberg_eval(capsys):
    code, out = run_cli(
        capsys,
        "steinberg",
        "eval",
        "--group",
        "cyclic_4",
        "--word",
        "x(1,2;+a) x(2,1;-a^-1) x(1,2;+a)",
    )
    assert code == 0
    assert "PD form: yes" in out
    assert "K2 member: no" in out


@pytest.mark.parametrize(
    "dim, rows",
    [
        ("3", ["[ 1  a  0 ]", "[ 0  1  0 ]", "[ 0  0  1 ]"]),
        # below the largest index of the word, the word's dimension is used
        ("1", ["[ 1  a ]", "[ 0  1 ]"]),
    ],
)
def test_cli_steinberg_eval_dim(capsys, dim, rows):
    code, out = run_cli(
        capsys, "steinberg", "eval", "--group", "cyclic_4", "--word", "x(1,2;a)", "--dim", dim
    )
    assert code == 0
    assert out.splitlines()[: len(rows) + 1] == [*rows, "PD form: no"]


def test_cli_steinberg_eval_evaluates_once(capsys, monkeypatch):
    from whdetect import cli, steinberg

    evaluate, calls = steinberg.evaluate, []

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(cli, "evaluate", counted)
    monkeypatch.setattr(steinberg, "evaluate", counted)
    code, out = run_cli(
        capsys, "steinberg", "eval", "--group", "cyclic_4", "--word", "x(1,2;+a) x(1,2;-a)"
    )
    assert code == 0 and "K2 member: yes" in out
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--preset", "nope"],
        ["analyze", "--seifert", "0,zz,1"],
        ["wh1", "--preset", "cyclic_4", "--gamma", "x"],
        ["steinberg", "eval", "--group", "cyclic_4", "--word", "y(1,2)"],
        ["wh1", "--preset", "cyclic_5", "--budget", "2"],
        ["analyze", "--presentation", "/nonexistent/presentation.txt"],
        ["analyze", "--preset", "dicyclic_6"],
        ["analyze", "--seifert", "1,o2,0"],
        ["wh1", "--preset", "cyclic_4", "--gamma=2,-3"],
        ["wh1", "--preset", "cyclic_4", "--gamma="],
        ["analyze", "--presentation", "tests/data/repeated_rels.txt"],
        ["analyze", "--seifert", "0,o1,1", "--budget", "0"],
        ["analyze", "--seifert", "0,o1,1", "--budget", "-3"],
        ["analyze", "--presentation", "tests/data/z2.txt", "--budget", "0"],
        ["analyze", "--seifert=0,o1,0,(2)"],
        ["analyze", "--seifert=0,o1,0,(2:1:3)"],
        ["analyze", "--seifert=x,o1,1"],
        ["analyze", "--seifert=0,o1,1.5"],
        ["analyze", "--seifert=0,,o1,0"],
        ["analyze", "--seifert=,0,o1,1"],
        ["analyze", "--seifert=0,o1,1,"],
        ["analyze", "--seifert=0,o1,0,(2:1"],
        ["analyze", "--seifert=0,o1,0,2:1"],
        ["analyze", "--seifert=0,o1,0,((2:1))"],
        ["wh1", "--preset", "cyclic_4", "--gamma", "2,,3"],
        ["steinberg", "eval", "--group", "cyclic_4", "--word", "x(1,2;a)", "--dim", "101"],
    ],
    ids=[
        "unknown-preset", "bad-seifert", "bad-gamma", "bad-steinberg-word",
        "budget-exhausted", "missing-presentation-file", "non-canonical-preset",
        "seifert-genus-too-small", "negative-gamma-factor", "empty-gamma",
        "repeated-section", "seifert-budget-0", "seifert-budget-negative",
        "z2-budget-0", "seifert-fiber-without-beta", "seifert-fiber-with-three-parts",
        "seifert-b-not-an-integer", "seifert-genus-not-an-integer",
        "seifert-empty-eps", "seifert-empty-b", "seifert-trailing-comma",
        "seifert-fiber-unclosed", "seifert-fiber-unparenthesized",
        "seifert-fiber-double-parentheses", "gamma-empty-factor",
        "steinberg-dim-101",
    ],
)
def test_cli_input_error_is_one_line_exit_2(argv):
    r = run_python("-m", "whdetect.cli", *argv)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("whdetect: error: ")
    assert r.stdout == ""


def test_cli_key_error_in_a_command_is_not_an_input_error(monkeypatch):
    """Only input errors become a one-line exit 2: a KeyError raised inside
    a command, such as an element index out of range, leaves ``main``."""
    from whdetect import cli

    def out_of_range(*args, **kwargs):
        raise KeyError(7)

    monkeypatch.setattr(cli, "analyze", out_of_range)
    with pytest.raises(KeyError):
        main(["analyze", "--preset", "cyclic_4"])


@pytest.mark.parametrize("fiber", ["(2)", "(2:1:3)", "", "(2:1", "2:1", "((2:1))"])
def test_cli_malformed_seifert_fiber_names_it(fiber, capsys):
    assert main(["analyze", f"--seifert=0,o1,0,{fiber}"]) == 2
    err = capsys.readouterr().err
    assert f"seifert fiber {fiber!r}" in err and "(alpha:beta)" in err


@pytest.mark.parametrize(
    "datum, named",
    [
        ("x,o1,1", ["seifert b 'x' is not an integer"]),
        ("0,o1,1.5", ["seifert genus g '1.5' is not an integer"]),
        ("0,zz,1", ["seifert base type eps 'zz'", "o1, o2, n1, n2, n3, n4"]),
        (",0,o1,1", ["seifert b '' is not an integer"]),
        ("0,,o1,0", ["seifert base type eps ''", "o1, o2, n1, n2, n3, n4"]),
        ("0,o1,,(2:1)", ["seifert genus g '' is not an integer"]),
    ],
)
def test_cli_malformed_seifert_field_names_it(datum, named, capsys):
    assert main(["analyze", f"--seifert={datum}"]) == 2
    err = capsys.readouterr().err
    for text in named + ["b,eps,g,(alpha:beta),..."]:
        assert text in err
    assert "invalid literal" not in err and "not a valid Epsilon" not in err


def test_cli_seifert_whitespace_around_numbers_is_accepted(capsys):
    assert run_cli(capsys, "analyze", "--seifert= -1 , o1 , 0 , ( 2 : 1 ) ,(2:1), (3: 1)") == (
        run_cli(capsys, "analyze", "--seifert=-1,o1,0,(2:1),(2:1),(3:1)")
    )


@pytest.mark.parametrize(
    "gamma, named",
    [("", "gamma factor 1 ''"), ("2,,3", "gamma factor 2 ''"), ("2,x", "gamma factor 2 'x'")],
)
def test_cli_malformed_gamma_names_the_factor(gamma, named, capsys):
    assert main(["wh1", "--preset", "cyclic_4", f"--gamma={gamma}"]) == 2
    err = capsys.readouterr().err
    assert named in err and "invalid literal" not in err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds the heap on Linux")
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--presentation", "HUGE_POWER"],
        ["catalog", "--max-order", "20000"],
        ["steinberg", "eval", "--group", "cyclic_4", "--word", "x(1,100000;a)"],
        ["analyze", "--seifert=100000000,o1,0,(2:1),(3:1),(5:1)"],
        ["analyze", "--seifert", "0,o1,100000000"],
        ["analyze", "--presentation", "TRIANGLE", "--budget", "100000000"],
        ["wh1", "--preset", "cyclic_3", "--gamma=" + ",".join(["0"] * 10000)],
    ],
    ids=[
        "power-a^100000000", "catalog-order-20000", "steinberg-dimension-100000",
        "seifert-b-100000000", "seifert-genus-100000000", "budget-100000000",
        "gamma-rank-10000",
    ],
)
def test_cli_oversized_input_is_refused_before_allocating(argv, tmp_path):
    """Each input would need gigabytes; within a 512 MiB address space the
    size check must come first and give the usual one-line error.  The
    (2,3,7) triangle group is infinite, so it would fill the coset budget."""
    files = {
        "HUGE_POWER": "gens: a; rels: a^100000000",
        "TRIANGLE": "gens: a, b; rels: a^2, b^3, a b a b a b a b a b a b a b",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    r = run_python(
        "-c",
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))\n"
        "from whdetect.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n",
        *[str(tmp_path / a) if a in files else a for a in argv],
    )
    assert r.returncode == 2 and r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("whdetect: error: ")


@pytest.mark.parametrize(
    "argv, verdict",
    [
        (["analyze", "--presentation", "Z2", "--budget", "100000000"], "preconditions_unmet"),
        (["analyze", "--seifert=0,o1,1", "--budget", "100000000"], "detectable"),
    ],
    ids=["z2", "seifert-0-o1-1"],
)
def test_cli_budget_limit_applies_when_an_input_is_enumerated(argv, verdict, tmp_path, capsys):
    """The coset budget that the (2,3,7) triangle group is refused at above
    reports an input that is certified infinite before any table is
    allocated: Z^2 by its abelianization, the 3-torus 0,o1,1 by the Seifert
    rule."""
    (tmp_path / "Z2").write_text("gens: a, b; rels: a b a^-1 b^-1")
    code, out = run_cli(capsys, *[str(tmp_path / a) if a == "Z2" else a for a in argv])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == verdict and report["order"] is None


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds the heap on Linux")
def test_cli_steinberg_eval_on_order_10000_fits_in_512_mib():
    """The full multiplication table of dicyclic order 10000 would need
    gigabytes; the group ring builds only the rows its products read."""
    r = run_python(
        "-c",
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))\n"
        "from whdetect.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n",
        "steinberg", "eval", "--group", "dicyclic_10000",
        "--word", "x(1,2;a) x(2,1;-a^-1) x(1,2;a)",
    )
    assert r.returncode == 0, r.stderr
    assert "PD form: yes" in r.stdout.splitlines()


def test_cli_steinberg_eval_on_order_40000_fits_in_256_mib():
    """Spelling every element along the word tree would hold hundreds of
    MiB here; the display names only the elements of its matrix."""
    r = run_python(
        "-c",
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**28, 2**28))\n"
        "from whdetect.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n",
        "steinberg", "eval", "--group", "dicyclic_40000",
        "--word", "x(1,2;a) x(2,1;-a^-1) x(1,2;a)",
    )
    assert r.returncode == 0, r.stderr
    assert "PD form: yes" in r.stdout.splitlines()


def test_cli_presentation_sections_on_two_lines_is_one_line_exit_2(tmp_path):
    """Without ``;`` the second line would be read into a generator name."""
    f = tmp_path / "two_lines.txt"
    f.write_text("gens: a\nrels: a^4\n")
    r = run_python("-m", "whdetect.cli", "analyze", "--presentation", str(f))
    assert r.returncode == 2 and r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("whdetect: error: ")


def test_cli_catalog_formats(capsys):
    code, out = run_cli(capsys, "catalog", "--max-order", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = [e["name"] for e in payload["entries"]]
    assert "dicyclic_8" in names
    code, out = run_cli(capsys, "catalog", "--max-order", "8", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("name,")


# ---------------------------------------------------------------------------
# Tietze invariance: the report depends on the group, not on its presentation
# ---------------------------------------------------------------------------

REPORT_INVARIANTS = (
    "order", "class_count", "ambivalent", "detection_rank", "wh1_dim", "z4_dim", "verdict",
)


def _rotate(p, draw):
    """Cyclically conjugate one relator."""
    i = draw(st.integers(0, len(p.relators) - 1))
    letters = p.relators[i].letters
    k = draw(st.integers(0, len(letters) - 1))
    rels = list(p.relators)
    rels[i] = Word(letters[k:] + letters[:k])
    return Presentation(p.generators, tuple(rels))


def _invert(p, draw):
    """Replace one relator by its inverse."""
    i = draw(st.integers(0, len(p.relators) - 1))
    rels = list(p.relators)
    rels[i] = rels[i].inverse()
    return Presentation(p.generators, tuple(rels))


def _redundant(p, draw):
    """Append r_i . u r_j u^-1 for a generator letter u, a consequence of the relators."""
    i, j = (draw(st.integers(0, len(p.relators) - 1)) for _ in range(2))
    u = Word(((draw(st.integers(0, p.rank - 1)), draw(st.sampled_from((1, -1)))),))
    extra = p.relators[i] * u * p.relators[j] * u.inverse()
    return Presentation(p.generators, p.relators + (extra,))


def _rename(p, draw):
    """Give the generators fresh names in a new order."""
    perm = draw(st.permutations(range(p.rank)))  # old index -> new index
    gens = tuple(Generator(f"t{k}") for k in range(p.rank))
    rels = tuple(Word(tuple((perm[g], s) for g, s in r.letters)) for r in p.relators)
    return Presentation(gens, rels)


def _invariants(p, entry):
    report = analyze(p, k1_trivial=entry.k1_trivial, goodness=entry.goodness)
    return {key: getattr(report, key) for key in REPORT_INVARIANTS}


@settings(max_examples=30, deadline=None)
@given(entry=st.sampled_from(builtin_groups(60)), data=st.data())
def test_tietze_rewrites_keep_the_report(entry, data):
    """Each rewrite alone and all four in turn present the same group, so every
    index-free field of the report stays; element indices (witness, detection
    basis) may move."""
    want = _invariants(entry.presentation, entry)
    assert want["order"] == entry.known_order
    composed = entry.presentation
    for rewrite in (_rotate, _invert, _redundant, _rename):
        assert _invariants(rewrite(entry.presentation, data.draw), entry) == want, rewrite
        composed = rewrite(composed, data.draw)
    assert _invariants(composed, entry) == want


# ---------------------------------------------------------------------------
# Direct products: an oracle that reads no element index
# ---------------------------------------------------------------------------

MAX_PRODUCT_ORDER = 2000
FACTORS = builtin_groups(MAX_PRODUCT_ORDER // 2)
CYCLIC_FACTORS = [e for e in FACTORS if e.name.startswith("cyclic_")]
OTHER_FACTORS = [e for e in FACTORS if not e.name.startswith("cyclic_")]


def direct_product(p: Presentation, q: Presentation) -> Presentation:
    """G x H: the generators of both, renamed apart, the relators of both,
    and the commutator [g, h] of every generator g of G with every generator
    h of H."""
    r = p.rank
    gens = tuple(Generator(f"{g.name}_1") for g in p.generators) + tuple(
        Generator(f"{h.name}_2") for h in q.generators
    )
    shifted = tuple(Word(tuple((h + r, s) for h, s in w.letters)) for w in q.relators)
    commutators = tuple(
        Word(((g, 1), (r + h, 1), (g, -1), (r + h, -1))) for g in range(r) for h in range(q.rank)
    )
    return Presentation(gens, p.relators + shifted + commutators)


@functools.lru_cache(maxsize=None)
def _factor_report(entry):
    return analyze(entry.presentation)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_direct_product_report_follows_from_the_factors(data):
    """The classes of G x H are the products of a class of G and one of H,
    and inversion acts on both factors, so the report of G x H, after the
    four Tietze rewrites, follows from the reports of G and H: order
    |G|.|H|, c_G.c_H classes, and (s_G + 1)(s_H + 1) self-inverse ones, the
    identity's among them, while the others pair up; the product is
    ambivalent exactly when both factors are.  Half the factors drawn are
    cyclic and half are not, so products of several generators fall on both
    sides of the abelian case.  A rewrite can make HLT define far more
    cosets than the order, as Z/314 x Z/6 with a^-314 b^-1 a^-314 b does,
    which exhausts the default budget, so the product is enumerated with
    the largest budget its rank allows, at least 1,250,000 cosets."""
    def factor(room):
        return data.draw(st.one_of(
            st.sampled_from([e for e in CYCLIC_FACTORS if e.known_order <= room]),
            st.sampled_from([e for e in OTHER_FACTORS if e.known_order <= room] or CYCLIC_FACTORS[:1]),
        ))

    g = factor(MAX_PRODUCT_ORDER)
    h = factor(MAX_PRODUCT_ORDER // g.known_order)
    a, b = _factor_report(g), _factor_report(h)
    p = direct_product(g.presentation, h.presentation)
    for rewrite in (_rotate, _invert, _redundant, _rename):
        p = rewrite(p, data.draw)
    report = analyze(p, budget=coset.MAX_TABLE_ENTRIES // (2 * p.rank))
    classes = a.class_count * b.class_count
    self_inverse = (a.class_count - 2 * a.detection_rank) * (b.class_count - 2 * b.detection_rank)
    assert report.order == a.order * b.order
    assert report.class_count == classes
    assert report.ambivalent == (a.ambivalent and b.ambivalent)
    assert report.detection_rank == (classes - self_inverse) // 2
    assert report.wh1_dim == classes - 1
    assert report.z4_dim == classes - 1 - report.detection_rank
