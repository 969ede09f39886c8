"""Thermal equilibrium states on the extended enveloping algebra of sl(2, C).

The package builds the algebra as a normal-ordering rewrite system, realizes
its lowest-weight modules as truncated matrices, constructs and evaluates
covariant KMS states (vacuum, Gibbs, mixtures over a spectral measure), and
recovers the measure back from Cartan data or sampled characteristic
functionals.
"""

from .algebra import (
    AlgebraElement,
    H,
    N,
    X,
    Y,
    commutator,
    from_swn_basis,
    reduce_word,
    to_swn_basis,
)
from .funcspace import FunctionExpr
from .grammar import ParseError, format_element, format_function, parse_element, parse_function
from .reps import TruncatedRep, build_rep, ladder_diagonal, relation_residuals, represent, scalar_product_weights
from .states import (
    CartanMeasure,
    SpectralMeasure,
    StateSpec,
    cartan_moment,
    cartan_restriction,
    chi_closed_form,
    eval_kms_recursion,
    eval_trace,
    eval_traces,
    load_state,
    save_state,
    state_from_dict,
    state_to_dict,
)
from .verify import KmsReport, gram_psd_check, kms_check, support_positivity_check

__version__ = "0.1.0"

# Recovery is imported on first use: importing it would cost every other
# caller 1-2 ms from cached bytecode, and 6-10 ms where it is compiled from
# source each time (PYTHONDONTWRITEBYTECODE set), by ``python -X importtime``
# on a 2-vCPU VM.  It needs numpy alone, like the rest of the package.
_RECOVERY_NAMES = ("IllPosed", "NotExtendable", "RecoveryResult", "chi_fit", "ladder_peel")


def __getattr__(name):
    if name in _RECOVERY_NAMES:
        from . import recovery

        return getattr(recovery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AlgebraElement",
    "CartanMeasure",
    "FunctionExpr",
    "H",
    "IllPosed",
    "KmsReport",
    "N",
    "NotExtendable",
    "ParseError",
    "RecoveryResult",
    "SpectralMeasure",
    "StateSpec",
    "TruncatedRep",
    "X",
    "Y",
    "build_rep",
    "cartan_moment",
    "cartan_restriction",
    "chi_closed_form",
    "chi_fit",
    "commutator",
    "eval_kms_recursion",
    "eval_trace",
    "eval_traces",
    "format_element",
    "format_function",
    "from_swn_basis",
    "gram_psd_check",
    "kms_check",
    "ladder_diagonal",
    "ladder_peel",
    "load_state",
    "parse_element",
    "parse_function",
    "reduce_word",
    "relation_residuals",
    "represent",
    "save_state",
    "scalar_product_weights",
    "state_from_dict",
    "state_to_dict",
    "support_positivity_check",
    "to_swn_basis",
]
