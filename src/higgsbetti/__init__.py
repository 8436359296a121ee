"""Exact Poincare series and Betti numbers of rank-2 Higgs bundle moduli
spaces, for fixed and non-fixed determinant in degrees 0 and 1.

Three independent evaluation routes (Morse-stratified sums, closed-form
rational expressions, residue/coefficient-extraction calculus) over exact
rational arithmetic, plus the verification suite tying them together.
"""

from .closedforms import (
    ResidueLabel,
    ResiduePiece,
    binomial_extra,
    bivariate_route,
    corollary_closed_form,
    lemma_closed,
    lemma_direct,
    residue_combination,
    residue_piece,
)
from .report import BettiReport, CheckResult
from .series import (
    BiSeries,
    Poly,
    TruncSeries,
    XOrderExceededError,
    ZeroConstantTermError,
    binomial,
    expand_rational,
)
from .spaces import (
    CoverRangeError,
    Determinant,
    SurfaceSpec,
    anti_invariant_dim,
    bg_series,
    bu1_series,
    jacobian_series,
    sym_cover_series,
    sym_generating,
    sym_series,
)
from .strata import (
    KirwanViolation,
    ModuliSpec,
    NegativeBettiError,
    StratumIndex,
    correction_sum,
    default_truncation,
    invariant_part_series,
    kirwan_monotonicity_check,
    max_stratum,
    moduli_series,
    mu_index,
    semistable_series,
    stratification_formula,
    stratum_difference,
    stratum_space_series,
    unstable_sum,
    unstable_sum_resummed,
)
from .verify import first_mismatch, run_checks

__version__ = "0.1.0"

__all__ = [
    "BettiReport",
    "BiSeries",
    "CheckResult",
    "CoverRangeError",
    "Determinant",
    "KirwanViolation",
    "ModuliSpec",
    "NegativeBettiError",
    "Poly",
    "ResidueLabel",
    "ResiduePiece",
    "StratumIndex",
    "SurfaceSpec",
    "TruncSeries",
    "XOrderExceededError",
    "ZeroConstantTermError",
    "anti_invariant_dim",
    "bg_series",
    "binomial",
    "binomial_extra",
    "bivariate_route",
    "bu1_series",
    "corollary_closed_form",
    "correction_sum",
    "default_truncation",
    "expand_rational",
    "first_mismatch",
    "invariant_part_series",
    "jacobian_series",
    "kirwan_monotonicity_check",
    "lemma_closed",
    "lemma_direct",
    "max_stratum",
    "moduli_series",
    "mu_index",
    "residue_combination",
    "residue_piece",
    "run_checks",
    "semistable_series",
    "stratification_formula",
    "stratum_difference",
    "stratum_space_series",
    "sym_cover_series",
    "sym_generating",
    "sym_series",
    "unstable_sum",
    "unstable_sum_resummed",
]
