"""COO kernel with segmented reduction (CUSP's ``spmv_coo_flat``).

One thread per non-zero; a warp-level segmented scan accumulates partial
products that belong to the same row, and carries across warp boundaries
are resolved with atomics.  Perfectly load balanced, but it pays
reduction/atomic overhead per warp — the "excessive synchronization
overhead" the paper cites for COO-family formats (Section I).

Numerically the kernel is a per-row sequential sum: row ``i`` of
``A @ x`` adds its float64 products ``vals[e] * x[cols[e]]`` one by one,
from ``0.0``, in stored order.  An ``np.bincount`` scatter computes
exactly that, because it adds each weight into its bin in array order.
:func:`prepare` lays a format's triplets out once so the scatter runs
fast: entries in *position-major* order (every row's first entry, then
every row's second, ...), which keeps each row's entries in stored
order but puts different rows next to each other, so consecutive adds
do not wait on one another; and indices widened to ``intp``, which the
gather and the scatter would otherwise re-cast on every product.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..gpu.device import DeviceSpec, Precision
from ..gpu.kernel import KernelWork
from ..gpu.memory import GatherProfile
from .common import elementwise_work


class Triplets(NamedTuple):
    """Checked triplets in the layout :func:`apply` runs."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]


def prepare(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    shape: tuple[int, int],
) -> Triplets:
    """Check the triplets against ``shape`` and lay them out for :func:`apply`.

    Unsorted and duplicate rows are fine: an entry's position is its
    rank among its row's entries in stored order (a stable sort by row),
    so ordering entries by position keeps every row's entries in stored
    order.
    """
    n_rows, n_cols = shape
    if rows.shape != cols.shape or rows.shape != vals.shape:
        raise ValueError("COO arrays must have equal length")
    if rows.size and not (
        0 <= rows.min() and rows.max() < n_rows
        and 0 <= cols.min() and cols.max() < n_cols
    ):
        raise ValueError("COO indices out of range for the shape")
    order = _position_major(rows, n_rows)
    return Triplets(
        rows[order].astype(np.intp, copy=False),
        cols[order].astype(np.intp, copy=False),
        vals[order],
        (n_rows, n_cols),
    )


def _position_major(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """The permutation that sorts entries by their position in their row."""
    counts = np.bincount(rows, minlength=n_rows)
    starts = np.cumsum(counts) - counts
    if np.all(rows[1:] >= rows[:-1]):
        position = np.arange(rows.size)
        position -= np.repeat(starts, counts)
    else:
        by_row = np.argsort(rows, kind="stable")
        position = np.empty(rows.size, dtype=np.intp)
        position[by_row] = np.arange(rows.size) - starts[rows[by_row]]
    return np.argsort(position, kind="stable")


def apply(
    op: Triplets, x: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``y = A @ x`` for ``x`` of shape ``(n_cols,)`` or ``(n_cols, k)``.

    The float64 row sums are cast to ``x.dtype`` and added onto a zero
    vector, or onto ``out`` in place when provided (the HYB kernel adds
    the COO overflow on top of the ELL part's result).  A block runs
    the single-vector scatter once per column, so every column is
    bitwise identical to the product of that column alone.
    """
    if out is None:
        out = np.zeros((op.shape[0],) + x.shape[1:], dtype=x.dtype)
    if op.vals.size:
        if x.ndim == 1:
            acc = _row_sums(op, x)
        else:
            columns = np.ascontiguousarray(x.T, dtype=np.float64)
            acc = np.array([_row_sums(op, column) for column in columns]).T
        out += acc.astype(out.dtype, copy=False)
    return out


def _row_sums(op: Triplets, x: np.ndarray) -> np.ndarray:
    prod = x.astype(np.float64, copy=False).take(op.cols)
    np.multiply(op.vals, prod, out=prod)
    return np.bincount(op.rows, weights=prod, minlength=op.shape[0])


def execute(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    x: np.ndarray,
    n_rows: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Numerical COO SpMV (or SpMM for a 2-D ``x``) straight from triplets.

    Formats that multiply repeatedly keep :func:`prepare`'s result and
    call :func:`apply`.
    """
    return apply(prepare(rows, cols, vals, (n_rows, x.shape[0])), x, out)


def work(
    nnz: int,
    n_rows_spanned: int,
    *,
    device: DeviceSpec,
    n_cols: int,
    precision: Precision,
    profile: GatherProfile,
    name: str = "coo-segmented",
    k: int = 1,
) -> KernelWork:
    """Cost model for the segmented-reduction COO launch."""
    return elementwise_work(
        name,
        total_elements=nnz,
        rows_spanned=n_rows_spanned,
        device=device,
        n_cols=n_cols,
        precision=precision,
        profile=profile,
        index_bytes_per_elem=8.0,  # row index + column index
        reduction=True,
        k=k,
    )
