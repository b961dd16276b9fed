"""Upper bounds on inner-product expressions: evaluation, verification, tuning.

The package evaluates a catalog of Bessel / Boas-Bellman type inequalities as
pure functions of coefficient magnitudes and Gram matrices, verifies them over
seeded random instances, optimizes their conjugate-exponent parameters, and
ranks them empirically by tightness.
"""

from .space import (
    DEFAULT_PSD_TOL,
    ORACLE_REL_TOL,
    GramMatrix,
    ProblemInstance,
    RankDeficiencyError,
    ValidationError,
    VectorFamily,
    gram_of_family,
    instance_from_jsonable,
    instance_to_jsonable,
    load_instance,
    orthonormalize,
    save_instance,
)
from .variants import (
    DEFAULT_EXPONENTS,
    EXPONENT_MAX,
    MAX,
    SUM,
    Selector,
    Variant,
    VariantError,
    conjugate_exponent,
    full_catalog,
    holder,
    parse_variant,
    parse_variant_list,
)
from .bounds import (
    DEFAULT_POLICY,
    ORTHONORMAL_GATE_TOL,
    BoundEvaluation,
    IncompatibleInstanceError,
    TolerancePolicy,
    combination_norm_sq,
    evaluate_variant,
    remark4_quantities,
    remark_comparison_rows,
)
from .verify import (
    GenConfig,
    SuiteReport,
    generate_instance,
    run_suite,
)
from .tuning import (
    DEFAULT_INTERVAL,
    PROFILE_FAMILIES,
    ExponentProfile,
    RankEntry,
    TightnessRanking,
    optimize_exponent,
    profile_exponent,
    rank_variants,
)

__version__ = "0.1.0"
