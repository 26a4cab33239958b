"""HYB kernel: ELL slab for the regular part, COO for the overflow.

CUSP's HYB SpMV is two dependent launches — the ELL kernel writes ``y``
and the COO kernel accumulates the long-row overflow on top (Section II,
Figure 1-b).  Both component kernels live in their own modules; this one
composes them.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DeviceSpec, Precision
from ..gpu.kernel import KernelWork
from ..gpu.memory import GatherProfile
from . import coo_segmented, ell_kernel


def execute(
    ell_cols: np.ndarray,
    ell_vals: np.ndarray,
    coo_rows: np.ndarray,
    coo_cols: np.ndarray,
    coo_vals: np.ndarray,
    x: np.ndarray,
    coo: coo_segmented.Triplets | None = None,
) -> np.ndarray:
    """Numerical HYB SpMV: ELL part, then COO accumulation.

    ``coo`` is the overflow as prepared by
    :func:`~repro.kernels.coo_segmented.prepare`, which callers that
    multiply repeatedly keep; it is prepared here when omitted.
    """
    y = ell_kernel.execute(ell_cols, ell_vals, x)
    return _add_overflow(coo_rows, coo_cols, coo_vals, x, y, coo)


def execute_many(
    ell_cols: np.ndarray,
    ell_vals: np.ndarray,
    coo_rows: np.ndarray,
    coo_cols: np.ndarray,
    coo_vals: np.ndarray,
    X: np.ndarray,
    coo: coo_segmented.Triplets | None = None,
) -> np.ndarray:
    """Batched HYB SpMM: the two component SpMMs in the same order.

    Column-by-column bitwise identical to :func:`execute` because both
    component kernels guarantee it and the accumulation order (ELL
    result first, COO overflow added on top) is unchanged.
    """
    Y = ell_kernel.execute_many(ell_cols, ell_vals, X)
    return _add_overflow(coo_rows, coo_cols, coo_vals, X, Y, coo)


def _add_overflow(rows, cols, vals, x, y, coo):
    if coo is None:
        coo = coo_segmented.prepare(rows, cols, vals, (y.shape[0], x.shape[0]))
    return coo_segmented.apply(coo, x, out=y)


def works(
    n_rows: int,
    ell_width: int,
    ell_real_nnz: int,
    coo_nnz: int,
    coo_rows_spanned: int,
    *,
    device: DeviceSpec,
    n_cols: int,
    precision: Precision,
    profile: GatherProfile,
    k: int = 1,
) -> list[KernelWork]:
    """The two launches of one HYB SpMV (empty parts are skipped)."""
    out: list[KernelWork] = []
    if ell_width > 0 and n_rows > 0:
        out.append(
            ell_kernel.work(
                n_rows,
                ell_width,
                ell_real_nnz,
                device=device,
                n_cols=n_cols,
                precision=precision,
                profile=profile,
                name="hyb-ell",
                k=k,
            )
        )
    if coo_nnz > 0:
        out.append(
            coo_segmented.work(
                coo_nnz,
                coo_rows_spanned,
                device=device,
                n_cols=n_cols,
                precision=precision,
                profile=profile,
                name="hyb-coo",
                k=k,
            )
        )
    return out
