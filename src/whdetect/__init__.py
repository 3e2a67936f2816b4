"""Algebraic detection of homeomorphisms pseudo-isotopic but not isotopic
to the identity: finite group realization from presentations, conjugacy and
ambivalence analysis, first Whitehead groups with their duality involution,
Steinberg-word bookkeeping over group rings, and a catalog of 3-manifold
fundamental groups.
"""

from .analysis import (
    AmbivalenceVerdict,
    ConjugacyProfile,
    conjugacy_classes,
    is_ambivalent,
)
from .catalog import (
    CatalogEntry,
    Epsilon,
    SeifertInvariants,
    builtin_groups,
    fiber_order_rule,
    get_preset,
    lemma74_check,
    seifert_presentation,
)
from .coset import (
    EnumerationBudgetExceeded,
    FiniteGroupRealization,
    element_order,
    enumerate_cosets,
    realize,
    realize_presentation,
)
from .pipeline import DetectionReport, analyze, reproduce_table_73
from .steinberg import (
    GroupRingElement,
    GroupRingMatrix,
    SteinbergWord,
    evaluate,
    k2_membership,
    pd_decompose,
    w_element,
)
from .whitehead import (
    CoefficientSystem,
    InvolutionSpace,
    WhiteheadGroupResult,
    involution_space,
    wh1_general,
)
from .words import (
    Generator,
    Presentation,
    Word,
    free_reduce,
    make_presentation,
    parse_presentation,
    parse_word,
)

__version__ = "0.1.0"
