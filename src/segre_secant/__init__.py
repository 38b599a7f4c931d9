"""Dimensions of higher secant varieties of Segre-Veronese embeddings.

Exact rank computation over prime fields, the complete closed-form
defectivity classification for P^n x P^1, arithmetic replays of the
inductive argument behind it, and the derived Grassmann defectivity of
Veronese varieties.
"""

from .affine import (
    AffineSchemeSpec,
    GenericityError,
    ideal_dimension,
    secant_dimension_via_reduction,
)
from .field import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    ConditionMatrix,
    PrimeField,
    RankAccumulator,
    SizingError,
    is_prime,
    rank,
    sample_point,
)
from .grassmann import (
    CorollaryReport,
    GrassmannQuery,
    GrassmannVerdict,
    check_corollary,
    grassmann_defect,
    grassmann_expected_dim,
)
from .induction import (
    LemmaConditionReport,
    ReplayCell,
    ReplayReport,
    check_lemma_conditions,
    dagger_value,
    ddagger_value,
    f_value,
    g_value,
    replay_main_theorem,
    route_case,
)
from .monomials import (
    exponent_vectors,
    split_to_bigraded,
)
from .numerology import (
    ClassificationVerdict,
    Numerology,
    ScanBudgetError,
    classify,
    closed_form_e,
    closed_form_estar,
    computed_e,
    computed_estar,
    expected_dimension,
    invariants,
    window_deficiency,
)
from .terracini import (
    DEFAULT_MEMORY_BUDGET,
    RNG_DESCRIPTION,
    SecantReport,
    SegreVeroneseSpec,
    dimension_profile,
    secant_dimension,
    tangent_matrix,
)

__version__ = "0.1.0"
