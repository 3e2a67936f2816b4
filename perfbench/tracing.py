"""Span tracing of whdetect's public functions, from outside the package.

:meth:`Tracer.install` rebinds each traced function, at every whdetect
module that holds it (the defining module and each module that imported it
by name), to a wrapper that records a span: name, start, end, parent span
and operation id.  Calls between traced functions therefore nest, e.g.
``pipeline.analyze`` -> ``catalog.fiber_order_rule`` ->
``coset.realize_presentation`` -> ``coset.enumerate_cosets``.  Spans stay in
memory; :meth:`Tracer.dump` writes them out at the end of a run.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, Optional

# (module, function, value recorded on the span, computed from (args, result))
TRACED: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("words", "parse_presentation", None),
    ("coset", "enumerate_cosets", None),
    ("coset", "realize", lambda args, out: out.order * out.order),
    ("coset", "realize_presentation", None),
    ("analysis", "conjugacy_classes", lambda args, out: out.n_classes),
    ("analysis", "is_ambivalent", None),
    ("whitehead", "involution_space", lambda args, out: out.dim),
    ("whitehead", "wh1_general", None),
    ("whitehead", "smith_normal_form", lambda args, out: len(args[0]) * len(args[0][0])),
    ("steinberg", "evaluate", lambda args, out: len(args[0].letters)),
    ("steinberg", "pd_decompose", None),
    ("steinberg", "k2_membership", None),
    ("catalog", "seifert_presentation", None),
    ("catalog", "fiber_order_rule", None),
    ("catalog", "lemma74_check", None),
    ("pipeline", "analyze", None),
)

OP = "op"  # the benchmark's own span around one operation


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.values: list[float] = []
        self.errors: list[Optional[str]] = []
        self.ring_muls: dict[int, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.values.append(0)
        self.errors.append(None)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return self.open(OP)

    def wrap(self, name: str, fn: Callable, value: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                self.close(idx)
            if value is not None:
                self.values[idx] = value(args, out)
            return out

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever a whdetect module holds it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "whdetect" or name.startswith("whdetect."))
        ]
        for mod_name, func, value in TRACED:
            original = getattr(sys.modules[f"whdetect.{mod_name}"], func)
            wrapper = self.wrap(f"{mod_name}.{func}", original, value)
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        self._restore.append((mod, attr, obj))
                        setattr(mod, attr, wrapper)
        ring = sys.modules["whdetect.steinberg"].GroupRingElement
        mul = ring.__mul__
        counts = self.ring_muls

        def counted_mul(a, b):
            counts[self._op] += 1
            return mul(a, b)

        self._restore.append((ring, "__mul__", mul))
        ring.__mul__ = counted_mul

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "op": self.ops[i], "parent": self.parents[i],
                    "start": self.starts[i], "end": self.ends[i],
                    "value": self.values[i], "error": self.errors[i],
                }) + "\n")


def self_times(
    starts: list[float], ends: list[float], parents: list[int]
) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(starts)):
        covered = 0.0
        lo_prev = starts[i]
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo = max(starts[c], lo_prev)
            hi = min(ends[c], ends[i])
            if hi > lo:
                covered += hi - lo
                lo_prev = hi
        out.append(ends[i] - starts[i] - covered)
    return out


def layer_metrics(tr: Tracer, chosen_ops: Iterable[int]) -> dict[str, float]:
    """Per-layer metrics summed over the spans of the chosen operations."""
    chosen = set(chosen_ops)
    selfs = self_times(tr.starts, tr.ends, tr.parents)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    enum_per_op: dict[int, int] = defaultdict(int)
    cells = 0
    for i, name in enumerate(tr.names):
        op = tr.ops[i]
        if op not in chosen:
            continue
        calls[name] += 1
        busy[name] += tr.ends[i] - tr.starts[i]
        self_s[name] += selfs[i]
        total[name] += tr.values[i]
        if tr.errors[i]:
            errors[name] += 1
        if name == "coset.enumerate_cosets":
            enum_per_op[op] += 1
        if name == "whitehead.smith_normal_form" and _under(tr, i, "whitehead.wh1_general"):
            cells += tr.values[i]
    return {
        "words.parse_presentation.calls": calls["words.parse_presentation"],
        "words.parse_presentation.busy_s": busy["words.parse_presentation"],
        "coset.enumerate_cosets.calls": calls["coset.enumerate_cosets"],
        "coset.enumerate_cosets.busy_s": busy["coset.enumerate_cosets"],
        "coset.enumerate_cosets.budget_exhausted": errors["coset.enumerate_cosets"],
        "coset.enumerate_cosets.per_input": max(enum_per_op.values(), default=0),
        "coset.realize.calls": calls["coset.realize"],
        "coset.realize.busy_s": busy["coset.realize"],
        "coset.realize.table_entries": total["coset.realize"],
        "analysis.conjugacy_classes.calls": calls["analysis.conjugacy_classes"],
        "analysis.conjugacy_classes.busy_s": busy["analysis.conjugacy_classes"],
        "analysis.is_ambivalent.busy_s": busy["analysis.is_ambivalent"],
        "analysis.classes_total": total["analysis.conjugacy_classes"],
        "whitehead.involution_space.calls": calls["whitehead.involution_space"],
        "whitehead.involution_space.busy_s": busy["whitehead.involution_space"],
        "whitehead.involution_space.dim_total": total["whitehead.involution_space"],
        "whitehead.wh1_general.calls": calls["whitehead.wh1_general"],
        "whitehead.wh1_general.busy_s": busy["whitehead.wh1_general"],
        "whitehead.wh1_general.self_s": self_s["whitehead.wh1_general"],
        "whitehead.wh1_general.matrix_cells": cells,
        "whitehead.smith_normal_form.calls": calls["whitehead.smith_normal_form"],
        "whitehead.smith_normal_form.busy_s": busy["whitehead.smith_normal_form"],
        "steinberg.evaluate.calls": calls["steinberg.evaluate"],
        "steinberg.evaluate.busy_s": busy["steinberg.evaluate"],
        "steinberg.evaluate.letters": total["steinberg.evaluate"],
        "steinberg.ring_mul.calls": sum(tr.ring_muls[op] for op in chosen),
        "steinberg.pd_decompose.busy_s": busy["steinberg.pd_decompose"],
        "steinberg.k2_membership.busy_s": busy["steinberg.k2_membership"],
        "catalog.seifert_presentation.busy_s": busy["catalog.seifert_presentation"],
        "catalog.fiber_order_rule.calls": calls["catalog.fiber_order_rule"],
        "catalog.fiber_order_rule.busy_s": busy["catalog.fiber_order_rule"],
        "catalog.lemma74_check.busy_s": busy["catalog.lemma74_check"],
        "pipeline.analyze.calls": calls["pipeline.analyze"],
        "pipeline.analyze.busy_s": busy["pipeline.analyze"],
        "pipeline.analyze.self_s": self_s["pipeline.analyze"],
    }


def _under(tr: Tracer, i: int, name: str) -> bool:
    p = tr.parents[i]
    while p >= 0:
        if tr.names[p] == name:
            return True
        p = tr.parents[p]
    return False


def enumerations_by_kind(
    tr: Tracer, chosen_ops: Iterable[int], kind_of: Callable[[int], str]
) -> dict[str, float]:
    """Mean ``enumerate_cosets`` calls per operation, for each input kind."""
    per_op: dict[int, int] = {op: 0 for op in chosen_ops}
    for i, name in enumerate(tr.names):
        if name == "coset.enumerate_cosets" and tr.ops[i] in per_op:
            per_op[tr.ops[i]] += 1
    sums: dict[str, list[int]] = defaultdict(list)
    for op, count in per_op.items():
        sums[kind_of(op)].append(count)
    return {k: sum(v) / len(v) for k, v in sorted(sums.items())}


def children_cover(tr: Tracer, name: str, chosen_ops: Iterable[int]) -> tuple[float, float, float]:
    """(busy, self, direct-children time) of every span called ``name``."""
    chosen = set(chosen_ops)
    selfs = self_times(tr.starts, tr.ends, tr.parents)
    ids = {i for i, n in enumerate(tr.names) if n == name and tr.ops[i] in chosen}
    busy = sum(tr.ends[i] - tr.starts[i] for i in ids)
    own = sum(selfs[i] for i in ids)
    kids = sum(tr.ends[c] - tr.starts[c] for c, p in enumerate(tr.parents) if p in ids)
    return busy, own, kids
