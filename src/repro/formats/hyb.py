"""HYB format: ELL for the regular head, COO for the long-tail overflow.

The best general-purpose format in the NVIDIA libraries for power-law
matrices (Section V), and ACSR's main adversary in Figures 5–7.  The ELL
width ``k`` follows the CUSP heuristic the paper cites in Section II: the
maximum ``k`` such that at least ``R = max(4096, n_rows / 3)`` rows have
``k`` or more non-zeros.  Rows shorter than ``k`` are zero-padded (the
~33% average padding the paper measures); entries beyond ``k`` spill into
the COO part.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..gpu.device import DEFAULT_HOST, DeviceSpec, INDEX_BYTES, Precision
from ..gpu.kernel import KernelWork
from ..kernels import coo_segmented, hyb_kernel
from .base import (
    FormatCapacityError,
    PreprocessReport,
    SpMVFormat,
    transfer_report_s,
)
from .csr import CSRMatrix
from .ell import MAX_SLOTS, build_ell_slabs


def hyb_ell_width(nnz_per_row: np.ndarray, n_rows: int) -> int:
    """The CUSP ``k`` heuristic (Section II).

    Maximum ``k`` with at least ``max(4096, n_rows/3)`` rows of length
    >= ``k``.  Returns 0 for matrices too small/sparse to justify an ELL
    part (everything goes to COO).
    """
    if n_rows == 0:
        return 0
    required = max(4096, n_rows // 3)
    if n_rows < required:
        # Tiny matrices: fall back to a proportional threshold.
        required = max(1, n_rows // 3)
    hist = np.bincount(np.minimum(nnz_per_row, nnz_per_row.max()))
    # rows_with_at_least[k] = number of rows with >= k non-zeros.
    rows_with_at_least = np.cumsum(hist[::-1])[::-1]
    ks = np.nonzero(rows_with_at_least >= required)[0]
    if ks.size == 0:
        return 0
    return int(ks.max())


class HYBFormat(SpMVFormat):
    """CUSP-style hybrid ELL + COO."""

    name = "hyb"

    def __init__(
        self,
        ell_cols: np.ndarray,
        ell_vals: np.ndarray,
        coo_rows: np.ndarray,
        coo_cols: np.ndarray,
        coo_vals: np.ndarray,
        n_cols: int,
        total_nnz: int,
        ell_real_nnz: int,
        preprocess: PreprocessReport,
        profile,
        coo_rows_spanned: int = -1,
    ) -> None:
        self.ell_cols = ell_cols
        self.ell_vals = ell_vals
        self.coo_rows = coo_rows
        self.coo_cols = coo_cols
        self.coo_vals = coo_vals
        self._n_cols = n_cols
        self._nnz = total_nnz
        self.ell_real_nnz = ell_real_nnz
        self.preprocess = preprocess
        self._profile = profile
        if coo_rows_spanned < 0:
            from ..util import count_unique

            coo_rows_spanned = (
                count_unique(self.coo_rows) if self.coo_nnz else 0
            )
        self._coo_rows_spanned = coo_rows_spanned

    @classmethod
    def from_csr(cls, csr: CSRMatrix, *, width: int | None = None) -> "HYBFormat":
        """Build from CSR.

        Accepted kwargs: ``width`` — ELL slab width; ``None`` (default)
        applies the CUSP heuristic.  Unknown kwargs raise ``TypeError``.
        """
        k = hyb_ell_width(csr.nnz_per_row, csr.n_rows) if width is None else width
        if k > 0 and csr.n_rows * k > MAX_SLOTS:
            raise FormatCapacityError(
                f"HYB ELL slab {csr.n_rows}x{k} exceeds the capacity guard"
            )
        ell_cols, ell_vals, ell_real = build_ell_slabs(csr, k)

        # Overflow: entries beyond position k of each row go to COO.
        lengths = csr.nnz_per_row
        over = np.maximum(lengths - k, 0)
        total_over = int(over.sum())
        if total_over:
            row_ids = np.repeat(np.arange(csr.n_rows, dtype=np.int64), over)
            within = np.arange(total_over, dtype=np.int64) - np.repeat(
                np.cumsum(over) - over, over
            )
            src = np.repeat(csr.row_off[:-1] + k, over) + within
            coo_rows = row_ids.astype(np.int32)
            coo_cols = csr.col_idx[src].copy()
            coo_vals = csr.values[src].copy()
        else:
            coo_rows = np.zeros(0, dtype=np.int32)
            coo_cols = np.zeros(0, dtype=np.int32)
            coo_vals = np.zeros(0, dtype=csr.values.dtype)

        vb = csr.precision.value_bytes
        slots = csr.n_rows * k
        device_bytes = (
            slots * (vb + INDEX_BYTES)
            + total_over * (vb + 2 * INDEX_BYTES)
            + (csr.n_rows + csr.n_cols) * vb
        )
        stored = slots + total_over
        padding = 0.0 if stored == 0 else 1.0 - csr.nnz / stored
        report = PreprocessReport(
            format_name=cls.name,
            # Histogram pass + slab scatter/zero-fill + overflow extraction.
            host_s=DEFAULT_HOST.stream_time(csr.nnz + slots + csr.nnz + total_over),
            transfer_s=transfer_report_s(device_bytes),
            device_bytes=device_bytes,
            padding_fraction=padding,
            notes=f"k={k}, coo_nnz={total_over}",
        )
        return cls(
            ell_cols,
            ell_vals,
            coo_rows,
            coo_cols,
            coo_vals,
            csr.n_cols,
            csr.nnz,
            ell_real,
            report,
            csr.gather_profile,
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ell_cols.shape[0], self._n_cols)

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def ell_width(self) -> int:
        return int(self.ell_cols.shape[1])

    @property
    def coo_nnz(self) -> int:
        return int(self.coo_vals.shape[0])

    @property
    def precision(self) -> Precision:
        return (
            Precision.SINGLE
            if self.ell_vals.dtype == np.float32
            else Precision.DOUBLE
        )

    @cached_property
    def _coo_triplets(self) -> coo_segmented.Triplets:
        """The overflow's kernel triplets, built on the first product."""
        return coo_segmented.prepare(
            self.coo_rows, self.coo_cols, self.coo_vals, self.shape
        )

    def multiply(self, x: np.ndarray) -> np.ndarray:
        return hyb_kernel.execute(
            self.ell_cols,
            self.ell_vals,
            self.coo_rows,
            self.coo_cols,
            self.coo_vals,
            x,
            coo=self._coo_triplets,
        )

    def multiply_many(self, X: np.ndarray) -> np.ndarray:
        return hyb_kernel.execute_many(
            self.ell_cols,
            self.ell_vals,
            self.coo_rows,
            self.coo_cols,
            self.coo_vals,
            self._vector_block(X),
            coo=self._coo_triplets,
        )

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        rows_spanned = self._coo_rows_spanned
        works = hyb_kernel.works(
            self.n_rows,
            self.ell_width,
            self.ell_real_nnz,
            self.coo_nnz,
            rows_spanned,
            device=device,
            n_cols=self.n_cols,
            precision=self.precision,
            profile=self._profile,
            k=k,
        )
        return works or [KernelWork.empty("hyb", self.precision)]
