"""Incomplete Kloosterman sums to powerful moduli.

Exact-arithmetic evaluation of the sums, machine checks for every
identity and inequality the bound's derivation rests on, and the bound
formulas themselves with their applicability windows.  The ``kls``
console script exposes the same operations as subcommands.
"""

from .bounds import (
    BoundReport,
    ProofParameters,
    amplified_bound,
    holder_constant,
    proof_parameters,
    regime_report,
    theorem1_bound,
    theorem2_bound,
)
from .errors import (
    BudgetExceeded,
    CertificateFailure,
    DeltaOutOfRange,
    DivisibilityFailure,
    KlsError,
    NotCoprime,
)
from .factored import (
    ComplexEstimate,
    FactoredInteger,
    e_q,
    is_prime,
    kernel,
    mod_inverse,
    per_term_bound,
    q_epsilon,
)
from .klsum import SumResult, SumSpec, eval_sum, scan, shift_to_kernel
from .postnikov import (
    PostnikovContext,
    WeylCoefficients,
    denominator_Q_r,
    inverse_expansion,
    make_context,
    w_direct,
    w_poly,
    weyl_coefficients,
)
from .verify import run_suite
from .vmvt import (
    PowerSumHistogram,
    VinogradovInstance,
    j_count,
    j_count_zero,
    lemma4_bound,
    lemma4_check,
    power_sum_histogram,
)
from .weyl import (
    DampingFactor,
    RationalApproximation,
    damping_factor,
    dist_to_int,
    geometric_sum_check,
    lemma3_check,
    rational_approx,
    v_r_sum,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceeded",
    "CertificateFailure",
    "ComplexEstimate",
    "DampingFactor",
    "DeltaOutOfRange",
    "DivisibilityFailure",
    "FactoredInteger",
    "KlsError",
    "NotCoprime",
    "PostnikovContext",
    "PowerSumHistogram",
    "ProofParameters",
    "RationalApproximation",
    "SumResult",
    "SumSpec",
    "VinogradovInstance",
    "WeylCoefficients",
    "amplified_bound",
    "damping_factor",
    "denominator_Q_r",
    "dist_to_int",
    "e_q",
    "eval_sum",
    "geometric_sum_check",
    "holder_constant",
    "inverse_expansion",
    "is_prime",
    "j_count",
    "j_count_zero",
    "kernel",
    "lemma3_check",
    "lemma4_bound",
    "lemma4_check",
    "make_context",
    "mod_inverse",
    "per_term_bound",
    "power_sum_histogram",
    "proof_parameters",
    "q_epsilon",
    "rational_approx",
    "regime_report",
    "run_suite",
    "scan",
    "shift_to_kernel",
    "theorem1_bound",
    "theorem2_bound",
    "v_r_sum",
    "w_direct",
    "w_poly",
    "weyl_coefficients",
]
