"""skewcalc: exact computation in iterated Ore (skew polynomial) extensions.

Public surface: exact scalar fields, PBW presentations with a confluent
rewriting engine, named algebra families, computable invariants (centers,
growth, GK estimates, stratiform data), divisor-subalgebra closures, and
a cancellation-property rule engine with an executable counterexample
registry. The `skewcalc` command line fronts all of it.
"""

from .cancel import (
    FiniteDimAlgebra,
    ImplicationDAG,
    Verdict,
    certify,
    commutative_quotient,
    counterexample_registry,
    direct_product,
    is_vnr,
    local_decomposition,
    nilradical,
    quotient_by_ideal,
    scalar_field_algebra,
    units_generated,
    univariate_quotient,
    verify_fixture,
    verify_generating_set,
    verify_isomorphism_bounded,
    verify_morphism,
)
from .divisor import (
    ClosureReport,
    SubwordHit,
    divisor_closure,
    is_controlling,
    subalgebra_closure_bounded,
    subword_search,
)
from .errors import (
    BadParamsError,
    ExprSyntaxError,
    InsufficientDataError,
    MissingEvidenceError,
    NotADomainError,
    ResourceLimitError,
    SkewcalcError,
    ValidationError,
)
from .families import (
    FAMILY_IDS,
    FamilySpec,
    build,
    build_localized_qweyl,
    finite_rank_quantum_weyl,
    gwa,
    laurent,
    minus_one_plane,
    quantum_torus,
    quantum_weyl1,
    skew_poly,
    weyl1,
)
from .invariants import (
    CenterBasis,
    GrowthTable,
    StratTower,
    center_bounded,
    center_torus,
    gk_estimate,
    growth_dims,
    is_locally_algebraic,
    is_locally_nilpotent,
    strat_tower,
    stratiform_length,
    tower_compose,
)
from .presentation import (
    Element,
    GeneratorInfo,
    Morphism,
    OreStep,
    Presentation,
    RewriteRule,
    ValidationReport,
    commutator,
    identity_morphism,
    normal_form,
    ore_extend,
    parse_element,
    tensor_product,
)
from .scalars import (
    CYCLOTOMIC,
    PRIME,
    RATFUNC_Q,
    RATIONAL,
    FieldDescriptor,
    Scalar,
    scalar_arith,
    scalar_parse,
)

__version__ = "1.0.0"
