"""Kernel backend selection: compiled extension if available, else pure Python.

The compiled backend (``blockprod._kernels_cy``, built from Cython) and the
pure backend (``blockprod._kernels_py``) implement identical integer
algorithms and return bit-identical results; only speed differs.  Set the
environment variable ``BLOCKPROD_PURE=1`` to force the pure backend.
"""

from __future__ import annotations

import os

if os.environ.get("BLOCKPROD_PURE") == "1":
    from blockprod import _kernels_py as _impl
else:
    try:
        from blockprod import _kernels_cy as _impl  # type: ignore[no-redef]
    except ImportError:
        from blockprod import _kernels_py as _impl  # type: ignore[no-redef]

BACKEND: str = _impl.BACKEND

fx_log_ratio = _impl.fx_log_ratio
fx_log1p_inv = _impl.fx_log1p_inv
logsum_word_product = _impl.logsum_word_product
logsum_ratio_product = _impl.logsum_ratio_product
logsum_companion = _impl.logsum_companion
