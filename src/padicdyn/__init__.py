"""Exact p-adic arithmetic and the dynamics of the generalized Ising mapping."""

from .errors import (
    BranchError,
    ConsistencyError,
    DivisionByZero,
    DomainError,
    EscapeError,
    LengthMismatch,
    NoConvergence,
    NotAFixedPoint,
    NotASquare,
    NoValidPlacement,
    PadicError,
    PoleError,
    PrecisionExhausted,
    VerificationError,
    ZeroInput,
    ZeroPartitionFunction,
)
from .fixedpoints import (
    ATTRACTING,
    INDIFFERENT,
    REPELLING,
    FixedPointReport,
    analyze,
    classify,
    discriminant,
    find_x0,
    repelling_roots,
    verify_lemma_3_4,
)
from .maps import MapParams, eval_f, eval_g, eval_k
from .padic import (
    Ball,
    PadicNumber,
    PrimeContext,
    diff_valuation,
    eq_to_precision,
    exp_p,
    in_Ep,
    is_unit,
    log_p,
    norm_diff,
    norm_str,
    parse_padic,
    sqrt_both,
    sqrt_exists,
    to_json,
)
__version__ = "1.0.0"

# the Gibbs and symbolic layers are imported on first use (PEP 562), so a call
# that never reaches one does not load its module
_ON_FIRST_USE = {
    "gibbs": (
        "CayleyTree",
        "CompatibilityReport",
        "Couplings",
        "GibbsField",
        "PlacementCandidate",
        "check_compatibility",
        "diagonal_field_from_orbit",
        "partition_fn",
        "periodic_field_from_orbit",
        "solve_7_11",
    ),
    "symbolic": (
        "BasinStatus",
        "RepellerGeometry",
        "all_words",
        "basin_status",
        "check_word",
        "k_membership",
    ),
}
_MODULE_OF = {name: module for module, names in _ON_FIRST_USE.items()
              for name in (module, *names)}


# the public names, as `import *` and dir() see them
__all__ = [*(name for name in globals() if not name.startswith("_")), *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    loaded = import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
