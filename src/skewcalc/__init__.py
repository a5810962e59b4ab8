"""skewcalc: exact computation in iterated Ore (skew polynomial) extensions.

Public surface: exact scalar fields, PBW presentations with a confluent
rewriting engine, named algebra families, computable invariants (centers,
growth, GK estimates), divisor-subalgebra closures, and
a cancellation-property rule engine with an executable counterexample
registry. The `skewcalc` command line fronts all of it.

Every library submodule is registered in `sys.modules` and as an
attribute of the package at import, but is compiled and run only on its
first attribute access, so a process pays only for the layers it uses.
"""

import importlib.util
import sys

# the public names, by the submodule that defines them
_EXPORTS = {
    "cancel": (
        "FiniteDimAlgebra", "ImplicationDAG", "Verdict", "certify",
        "commutative_quotient", "counterexample_registry", "direct_product",
        "is_vnr", "local_decomposition", "nilradical", "quotient_by_ideal",
        "scalar_field_algebra", "units_generated", "univariate_quotient",
        "verify_fixture", "verify_generating_set", "verify_isomorphism_bounded",
        "verify_morphism",
    ),
    "divisor": (
        "ClosureReport", "SubwordHit", "divisor_closure", "is_controlling",
        "subalgebra_closure_bounded", "subword_search",
    ),
    "errors": (
        "BadParamsError", "ExprSyntaxError", "InsufficientDataError",
        "MissingEvidenceError", "NotADomainError", "ResourceLimitError",
        "SkewcalcError", "ValidationError",
    ),
    "families": (
        "FAMILY_IDS", "FamilySpec", "build", "build_localized_qweyl",
        "finite_rank_quantum_weyl", "gwa", "laurent", "minus_one_plane",
        "quantum_torus", "quantum_weyl1", "skew_poly", "weyl1",
    ),
    "invariants": (
        "CenterBasis", "GrowthTable", "center_bounded", "center_torus",
        "gk_estimate", "growth_dims", "is_locally_algebraic",
        "is_locally_nilpotent",
    ),
    "presentation": (
        "Element", "GeneratorInfo", "Morphism", "OreStep", "Presentation",
        "RewriteRule", "ValidationReport", "commutator", "identity_morphism",
        "ore_extend", "parse_element", "tensor_product",
    ),
    "scalars": (
        "CYCLOTOMIC", "PRIME", "RATFUNC_Q", "RATIONAL", "FieldDescriptor",
        "Scalar", "scalar_parse",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)

__version__ = "1.0.0"


def _register_lazily(*names):
    for name in names:
        spec = importlib.util.find_spec(f"{__name__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = globals()[name] = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)  # defers the real load


# `cli` is left out: `python -m skewcalc.cli` warns when the module it runs
# is already in sys.modules
_register_lazily("errors", "scalars", "linalg", "poly", "presentation",
                 "families", "invariants", "divisor", "cancel")


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
