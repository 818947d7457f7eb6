"""Every exported name resolves, so a deleted function cannot leave a dangling export,
and the package's exports are pinned, so adding or removing one is a deliberate edit here."""

import importlib
import pkgutil

import pytest

import blockprod

MODULES = ["blockprod", *sorted(m.name for m in pkgutil.iter_modules(blockprod.__path__, "blockprod."))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [n for n in exported if not hasattr(module, n)] == []


PACKAGE_EXPORTS = [
    "BalanceError", "BigReal", "FiniteSupportFn", "GammaExpr", "PoleError", "ProductSpec",
    "VerifyReport", "Word", "all_words", "alternating_product_estimate", "block_counts",
    "closed_form_base2", "closed_form_baseB", "companion_closed_form", "companion_partial",
    "count_block", "default_corpus", "default_decimal_digits", "enumerate_words",
    "eval_gamma_expr", "eval_lhs_partial", "gamma", "gamma_ratio_product",
    "grouping_identity_holds", "kernel_backend", "lemma1_lhs", "lemma1_residual", "lemma1_rhs",
    "log_gamma", "pi_value", "rho", "rivoal_grouped_factors", "rivoal_grouped_partial",
    "rivoal_original_factors", "rivoal_original_partial", "tail_estimate", "verify", "word_value",
]


def test_package_exports_are_listed():
    assert sorted(blockprod.__all__) == PACKAGE_EXPORTS
    assert "blockprod.identities" in MODULES and "blockprod.products" in MODULES
