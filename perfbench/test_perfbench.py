"""Tests of the benchmark itself: seeded inputs, oracles and span accounting.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses

import pytest

import oracles
import run
import tracing
import workloads

wd = run.import_whdetect()


def _first_of_each_kind(name: str, seed: int = 3):
    ops, _ = workloads.build(name, wd, seed)
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


# -- seeded inputs ------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_same_digest(name):
    first = workloads.build(name, wd, 5)[1]
    assert workloads.build(name, wd, 5)[1] == first
    assert workloads.build(name, wd, 6)[1] != first


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (41, 80, 216, 314):
        q = run.tail_percentile(n)
        values = [float(i) for i in range(n)]
        assert sum(v > run.quantile(values, q) for v in values) >= run.TAIL_BEYOND
    assert run.tail_percentile(314) == 96.8


def test_rewrites_render_parseable_equivalent_text():
    import random

    from rewrite import KINDS, render, rewrite

    rng = random.Random(0)
    gens, rels = ["a", "x"], [[(0, 1)] * 6, [(1, 1)] * 2 + [(0, -1)] * 3,
                              [(1, -1), (0, 1), (1, 1), (0, 1)]]
    for kind in KINDS:
        got_kind, g2, r2 = rewrite(gens, rels, rng, kinds=(kind,))
        assert got_kind == kind
        assert render(g2, r2) != render(gens, rels)
        G = wd.realize_presentation(wd.parse_presentation(render(g2, r2)))
        assert G.order == 12


# -- oracles reject corrupted outputs -----------------------------------------


def _corruptions(out):
    """Copies of an output, each with one index-free field made wrong."""
    if isinstance(out, wd.DetectionReport):
        for key in ("order", "class_count", "detection_rank", "wh1_dim", "z4_dim"):
            v = getattr(out, key)
            yield dataclasses.replace(out, **{key: 7 if v is None else v + 1})
        yield dataclasses.replace(out, ambivalent=not out.ambivalent)
        yield dataclasses.replace(out, witness=None if out.witness is not None else 1)
        yield dataclasses.replace(out, detection_basis=out.detection_basis + (1,))
        yield dataclasses.replace(out, verdict="detectable" if out.verdict != "detectable"
                                  else "not_detectable_by_theta")
        yield dataclasses.replace(out, lemma74="bogus")
    elif isinstance(out, wd.WhiteheadGroupResult):
        yield dataclasses.replace(out, invariant_factors=out.invariant_factors + (2,))
        yield dataclasses.replace(out, invariant_factors=out.invariant_factors[1:])
    elif isinstance(out, bool):
        yield not out
    else:
        M, pd = out
        G = M.group
        rows = [list(r) for r in M.entries]
        rows[0][1] = rows[0][1] + wd.GroupRingElement.one(G)
        yield wd.GroupRingMatrix(G, tuple(map(tuple, rows))), pd
        if pd is None:
            yield M, wd.steinberg.PDForm(tuple(range(M.n)), ((1, 0),) * M.n)
        else:
            yield M, None
            yield M, dataclasses.replace(pd, diagonal=((-pd.diagonal[0][0], pd.diagonal[0][1]),)
                                         + pd.diagonal[1:])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_oracles_accept_real_and_reject_corrupted_outputs(name):
    for op in _first_of_each_kind(name):
        check = op.make_check()
        out = op.run()
        assert check(out) is None, op.kind
        bad = list(_corruptions(out))
        assert bad
        for wrong in bad:
            assert check(wrong) is not None, (op.kind, wrong)


def test_invariant_factors_canonical_form():
    assert oracles.invariant_factors([2, 6, 0, 4]) == (2, 2, 12, 0)
    assert oracles.invariant_factors([1, 3, 5]) == (15,)
    assert oracles.invariant_factors([]) == ()


def test_expected_wh1_matches_class_count_law_for_trivial_action():
    G = wd.realize_presentation(wd.catalog.dicyclic(3))
    assert oracles.expected_wh1(G, (2,), None) == (2,) * 5
    assert oracles.expected_wh1(G, (0,), None) == (0,) * 5


# -- span accounting ----------------------------------------------------------


def test_self_plus_children_equals_duration_on_synthetic_tree():
    #  0 [0, 10]
    #  +- 1 [1, 3]
    #  +- 2 [4, 8]
    #     +- 3 [4.5, 5]
    #     +- 4 [6, 7.5]
    starts = [0.0, 1.0, 4.0, 4.5, 6.0]
    ends = [10.0, 3.0, 8.0, 5.0, 7.5]
    parents = [-1, 0, 0, 2, 2]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs == pytest.approx([4.0, 2.0, 2.0, 0.5, 1.5])
    for i in range(len(starts)):
        kids = sum(ends[c] - starts[c] for c, p in enumerate(parents) if p == i)
        assert selfs[i] + kids == pytest.approx(ends[i] - starts[i])


def test_self_time_counts_overlapping_children_once():
    selfs = tracing.self_times([0.0, 1.0, 2.0], [10.0, 4.0, 5.0], [-1, 0, 0])
    assert selfs[0] == pytest.approx(6.0)


def test_traced_calls_nest_and_restore():
    original = wd.pipeline.realize_presentation
    tr = tracing.Tracer()
    tr.install()
    try:
        assert wd.pipeline.realize_presentation is not original
        tr.begin_op(0)
        wd.analyze(wd.SeifertInvariants(-1, wd.Epsilon.O1, 0, ((2, 1), (2, 1), (3, 1))))
        tr.close(0)
    finally:
        tr.uninstall()
    assert wd.pipeline.realize_presentation is original
    metrics = tracing.layer_metrics(tr, [0])
    assert metrics["coset.enumerate_cosets.per_input"] == 3
    assert metrics["catalog.fiber_order_rule.calls"] == 2
    assert metrics["pipeline.analyze.calls"] == 1
    chain = []
    i = max(i for i, n in enumerate(tr.names) if n == "coset.enumerate_cosets")
    while i >= 0:
        chain.append(tr.names[i])
        i = tr.parents[i]
    assert chain[-2:] == ["pipeline.analyze", tracing.OP]
    assert chain[0] == "coset.enumerate_cosets"
    assert "coset.realize_presentation" in chain


def test_quantile_interpolates():
    assert run.quantile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert run.quantile([5.0], 90) == 5.0


def test_typical_takes_each_inputs_median_repeat():
    m = run.Measurement([[3.0, 1.0, 2.0], [5.0, 4.0, 7.0, 6.0]], [[0, 2, 4], [1, 3, 5, 7]])
    assert m.typical() == ([2.0, 5.0], [4, 1])
