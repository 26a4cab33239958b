"""ELLPACK format: a zero-padded dense slab, column-major on the device.

Every row is padded to the longest row's length (Section II).  On a
power-law matrix the padding explodes — a 1M-row matrix with one 10k-nnz
row stores 10 *billion* slots — so construction enforces a capacity guard
and raises :class:`FormatCapacityError`, the ``∅`` of the paper's tables.
Pure ELL is therefore only practical for low-variance matrices; its real
role here is as the regular half of HYB and BRC.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DEFAULT_HOST, DeviceSpec, INDEX_BYTES, Precision
from ..gpu.kernel import KernelWork
from ..kernels import ell_kernel
from .base import (
    FormatCapacityError,
    PreprocessReport,
    SpMVFormat,
    transfer_report_s,
)
from .csr import CSRMatrix

#: Refuse to materialise slabs above this many slots (padding explosion).
MAX_SLOTS = 200_000_000


def build_ell_slabs(
    csr: CSRMatrix, width: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Materialise ``(cols, vals)`` slabs of ``width`` columns from CSR.

    Rows longer than ``width`` contribute only their first ``width``
    entries (HYB routes the remainder to COO).  Returns the slabs and the
    number of real (non-padding) entries stored.
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    n_rows = csr.n_rows
    if width == 0 or n_rows == 0:
        return (
            np.full((n_rows, 0), ell_kernel.PAD_COL, dtype=np.int32),
            np.zeros((n_rows, 0), dtype=csr.values.dtype),
            0,
        )
    if n_rows * width > MAX_SLOTS:
        raise FormatCapacityError(
            f"ELL slab of {n_rows}x{width} exceeds the capacity guard"
        )
    cols = np.full((n_rows, width), ell_kernel.PAD_COL, dtype=np.int32)
    vals = np.zeros((n_rows, width), dtype=csr.values.dtype)
    take = np.minimum(csr.nnz_per_row, width)
    total = int(take.sum())
    if total:
        row_ids = np.repeat(np.arange(n_rows, dtype=np.int64), take)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(take) - take, take
        )
        src = np.repeat(csr.row_off[:-1], take) + within
        cols[row_ids, within] = csr.col_idx[src]
        vals[row_ids, within] = csr.values[src]
    return cols, vals, total


class ELLFormat(SpMVFormat):
    """Pure ELLPACK: width = longest row."""

    name = "ell"

    def __init__(
        self,
        cols: np.ndarray,
        vals: np.ndarray,
        n_cols: int,
        real_nnz: int,
        preprocess: PreprocessReport,
        profile,
    ) -> None:
        self.cols = cols
        self.vals = vals
        self._n_cols = n_cols
        self.real_nnz = real_nnz
        self.preprocess = preprocess
        self._profile = profile

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "ELLFormat":
        """Build from CSR.  Accepts no kwargs (width = longest row);
        unknown kwargs raise ``TypeError``."""
        width = csr.max_nnz_row
        cols, vals, real = build_ell_slabs(csr, width)
        if real != csr.nnz:
            raise AssertionError("full-width ELL must store every entry")
        vb = csr.precision.value_bytes
        slots = csr.n_rows * width
        device_bytes = slots * (vb + INDEX_BYTES) + (
            csr.n_rows + csr.n_cols
        ) * vb
        padding = 0.0 if slots == 0 else 1.0 - csr.nnz / slots
        report = PreprocessReport(
            format_name=cls.name,
            # Scatter every entry into the slab + zero-fill the padding.
            host_s=DEFAULT_HOST.stream_time(slots + csr.nnz),
            transfer_s=transfer_report_s(device_bytes),
            device_bytes=device_bytes,
            padding_fraction=padding,
            notes=f"width={width}",
        )
        return cls(
            cols, vals, csr.n_cols, real, report, csr.gather_profile
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.cols.shape[0], self._n_cols)

    @property
    def nnz(self) -> int:
        return self.real_nnz

    @property
    def width(self) -> int:
        return int(self.cols.shape[1])

    @property
    def precision(self) -> Precision:
        return (
            Precision.SINGLE
            if self.vals.dtype == np.float32
            else Precision.DOUBLE
        )

    def multiply(self, x: np.ndarray) -> np.ndarray:
        return ell_kernel.execute(self.cols, self.vals, x)

    def multiply_many(self, X: np.ndarray) -> np.ndarray:
        X = self._vector_block(X)
        return ell_kernel.execute_many(self.cols, self.vals, X)

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        return [
            ell_kernel.work(
                self.n_rows,
                self.width,
                self.real_nnz,
                device=device,
                n_cols=self.n_cols,
                precision=self.precision,
                profile=self._profile,
                k=k,
            )
        ]
