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
    quadratic_coeffs,
    repelling_roots,
    verify_lemma_3_4,
)
from .gibbs import (
    CayleyTree,
    CompatibilityReport,
    Couplings,
    GibbsField,
    PlacementCandidate,
    check_compatibility,
    diagonal_field_from_orbit,
    partition_fn,
    periodic_field_from_orbit,
    solve_7_11,
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
from .symbolic import (
    BasinStatus,
    RepellerGeometry,
    all_words,
    basin_status,
    check_word,
    k_membership,
)

__version__ = "1.0.0"
