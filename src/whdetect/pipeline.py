"""Detection pipeline: group input -> realization -> conjugacy analysis ->
Whitehead module -> verdict, as machine-readable reports.

A group whose detection rank is positive (equivalently: not ambivalent)
admits homeomorphisms of the associated manifolds that are pseudo-isotopic
but not isotopic to the identity -- provided the first k-invariant is
trivial and the fundamental group is good.  The pipeline refuses to issue
"detectable" when either precondition flag is unknown.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional, Union

from .analysis import conjugacy_classes, is_ambivalent
from .catalog import (
    CatalogEntry,
    FiberOrder,
    Goodness,
    Lemma74Verdict,
    SeifertInvariants,
    builtin_groups,
    fiber_order_rule,
    lemma74_check,
    seifert_goodness,
    seifert_k1_trivial,
    seifert_presentation,
)
from .coset import (
    DEFAULT_MAX_COSETS,
    EnumerationBudgetExceeded,
    realize_presentation,
)
from .whitehead import cokernel_invariants, involution_space
from .words import Presentation

SCHEMA_VERSION = 1


@dataclass(frozen=True, kw_only=True)
class DetectionReport:
    """Full analysis of one group input.

    ``verdict``: "detectable" iff non-ambivalence is certified and both
    precondition flags hold; "not_detectable_by_theta" iff ambivalent with
    preconditions met; otherwise "preconditions_unmet".  Fields that need
    the finite group stay None when it is not available.
    """

    name: str
    order: Optional[int] = None
    class_count: Optional[int] = None
    ambivalent: Optional[bool] = None
    witness: Optional[int] = None
    detection_rank: Optional[int] = None
    wh1_dim: Optional[int] = None
    z4_dim: Optional[int] = None
    verdict: str
    k1_trivial: Optional[bool]
    goodness: str
    detection_basis: tuple[int, ...] = ()
    lemma74: Optional[str] = None

    def to_dict(self) -> dict:
        # an existing key keeps its place when its value is replaced
        return {
            "schema": SCHEMA_VERSION,
            **asdict(self),
            "detection_basis": list(self.detection_basis),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _verdict(
    nonambivalent: Optional[bool],
    k1_trivial: Optional[bool],
    goodness: Goodness,
) -> str:
    if k1_trivial is not True or goodness is not Goodness.GOOD:
        return "preconditions_unmet"
    if nonambivalent is None:
        return "preconditions_unmet"
    return "detectable" if nonambivalent else "not_detectable_by_theta"


AnalyzeInput = Union[CatalogEntry, Presentation, SeifertInvariants]


def free_abelian_rank(p: Presentation) -> int:
    """Free rank of the abelianization of p: the number of zero invariant
    factors of Z^rank modulo the rows of the exponent-sum matrix, one row
    per relator, by the Smith normal form that Wh1 uses."""
    sums = []
    for r in p.relators:
        row = [0] * p.rank
        for g, s in r.letters:
            row[g] += s
        sums.append(row)
    return cokernel_invariants([row for row in sums if any(row)], p.rank).count(0)


def analyze(
    entry: AnalyzeInput,
    budget: int = DEFAULT_MAX_COSETS,
    name: Optional[str] = None,
    k1_trivial: Optional[bool] = None,
    goodness: Optional[Goodness] = None,
) -> DetectionReport:
    """Produce a detection report for a catalog entry, a presentation, or
    Seifert invariants.

    For Seifert inputs with infinite fundamental group the conjugacy fields
    stay unavailable and non-ambivalence is certified (when possible) by
    the central-fiber lemma alone.

    A presentation with fewer relators than generators, or more generally
    one whose abelianization has positive :func:`free_abelian_rank`, defines
    an infinite group (Johnson, *Presentations of Groups*, 2nd ed., 1997,
    ch. 2).  Its coset table would never complete, so it gets the
    budget-exhausted report at once, without enumerating.

    Raises ValueError for a budget below 1, whatever the input kind.
    """
    if budget < 1:
        raise ValueError("max_cosets must be >= 1")
    verdict74: Optional[Lemma74Verdict] = None
    finite = True  # False for a Seifert group not known to be finite
    if isinstance(entry, CatalogEntry):
        presentation, default_name = entry.presentation, entry.name
        default_k1, default_good = entry.k1_trivial, entry.goodness
    elif isinstance(entry, SeifertInvariants):
        presentation, default_name = seifert_presentation(entry), entry.display()
        default_k1, default_good = seifert_k1_trivial(entry), seifert_goodness(entry)
        verdict74 = lemma74_check(entry, budget)
        finite = fiber_order_rule(entry, budget).kind is FiberOrder.FINITE
    else:
        presentation, default_name = entry, "presentation"
        default_k1, default_good = None, Goodness.UNKNOWN
    k1 = default_k1 if k1_trivial is None else k1_trivial
    good = default_good if goodness is None else goodness
    shared = dict(
        name=name or default_name,
        k1_trivial=k1,
        goodness=good.value,
        lemma74=None if verdict74 is None else verdict74.value,
    )
    if not finite:
        certified = verdict74 is Lemma74Verdict.NOT_AMBIVALENT
        return DetectionReport(
            ambivalent=False if certified else None,
            verdict=_verdict(certified or None, k1, good),
            **shared,
        )

    if free_abelian_rank(presentation) > 0:
        return DetectionReport(verdict="preconditions_unmet", **shared)
    try:
        G = realize_presentation(presentation, budget)
    except EnumerationBudgetExceeded:
        return DetectionReport(verdict="preconditions_unmet", **shared)
    profile = conjugacy_classes(G)
    amb = is_ambivalent(G, profile)
    space = involution_space(profile)
    # one representative per swapped pair spans the detection quotient
    basis = tuple(profile.classes[c][0] for c, _ in profile.swapped_pairs)
    return DetectionReport(
        order=G.order,
        class_count=profile.n_classes,
        ambivalent=amb.ambivalent,
        witness=amb.witness,
        detection_rank=space.quotient_dim,
        wh1_dim=space.dim,
        z4_dim=space.z4_dim,
        verdict=_verdict(not amb.ambivalent, k1, good),
        detection_basis=basis,
        **shared,
    )


@dataclass(frozen=True)
class TableDiff:
    name: str
    expected: bool
    computed: bool


def reproduce_table_73(
    max_order: int, budget: int = DEFAULT_MAX_COSETS
) -> tuple[tuple[TableDiff, ...], dict[str, bool]]:
    """Recompute ambivalence for every builtin finite 3-manifold group from
    its presentation alone and diff against the published expectations.

    Returns the diffs, empty when every expectation holds, plus the
    computed name -> ambivalent map of the groups checked.
    """
    diffs: list[TableDiff] = []
    computed: dict[str, bool] = {}
    for entry in builtin_groups(max_order):
        if not entry.three_manifold:
            continue
        G = realize_presentation(entry.presentation, budget)
        if entry.known_order is not None and G.order != entry.known_order:
            raise AssertionError(
                f"{entry.name}: enumerated order {G.order} != {entry.known_order}"
            )
        amb = is_ambivalent(G).ambivalent
        computed[entry.name] = amb
        if entry.expected_ambivalent is not None and amb != entry.expected_ambivalent:
            diffs.append(TableDiff(entry.name, entry.expected_ambivalent, amb))
    return tuple(diffs), computed
