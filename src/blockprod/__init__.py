"""blockprod: digit-block products, Gamma closed forms, high-precision verification.

The package computes occurrence counts of digit blocks in base-B expansions,
builds the symbolic Gamma closed forms of the associated infinite products,
evaluates both sides at arbitrary precision, and verifies the identities
(including the 4/pi product) exactly and numerically.

Everything runs in pure Python with exact integer arithmetic;
``blockprod.kernel_backend()`` names that one backend.
"""

from blockprod.bigreal import BigReal, default_decimal_digits, pi_value
from blockprod.gammafn import (
    BalanceError,
    GammaExpr,
    PoleError,
    eval_gamma_expr,
    gamma,
    gamma_ratio_product,
    log_gamma,
)
from blockprod.identities import (
    FiniteSupportFn,
    ProductSpec,
    alternating_product_estimate,
    closed_form_base2,
    closed_form_baseB,
    companion_closed_form,
    companion_partial,
    grouping_identity_holds,
    lemma1_lhs,
    lemma1_residual,
    lemma1_rhs,
    rho,
    rivoal_grouped_factors,
    rivoal_grouped_partial,
    rivoal_original_factors,
    rivoal_original_partial,
)
from blockprod.products import (
    VerifyReport,
    default_corpus,
    enumerate_words,
    eval_lhs_partial,
    tail_estimate,
    verify,
)
from blockprod.words import (
    Word,
    all_words,
    block_counts,
    count_block,
    word_value,
)

__version__ = "0.1.0"

__all__ = [
    "BalanceError",
    "BigReal",
    "FiniteSupportFn",
    "GammaExpr",
    "PoleError",
    "ProductSpec",
    "VerifyReport",
    "Word",
    "all_words",
    "alternating_product_estimate",
    "block_counts",
    "closed_form_base2",
    "closed_form_baseB",
    "companion_closed_form",
    "companion_partial",
    "count_block",
    "default_corpus",
    "default_decimal_digits",
    "enumerate_words",
    "eval_gamma_expr",
    "eval_lhs_partial",
    "gamma",
    "gamma_ratio_product",
    "grouping_identity_holds",
    "kernel_backend",
    "lemma1_lhs",
    "lemma1_residual",
    "lemma1_rhs",
    "log_gamma",
    "pi_value",
    "rho",
    "rivoal_grouped_factors",
    "rivoal_grouped_partial",
    "rivoal_original_factors",
    "rivoal_original_partial",
    "tail_estimate",
    "verify",
    "word_value",
]


def kernel_backend() -> str:
    """Name of the kernel backend; always ``"python"``."""
    return "python"
