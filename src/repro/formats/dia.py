"""DIA format: per-diagonal dense storage.

Bell & Garland [5] show DIA is "the superior format for structural
matrices which have non-zeros on only a few diagonals" (Section IX).  It
is hopeless for graphs — a power-law adjacency matrix touches almost every
diagonal — so, like ELL, it carries a capacity guard and exists to round
out the related-work comparison set and the format-selection example.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DEFAULT_HOST, DeviceSpec, Precision
from ..gpu.kernel import KernelWork
from ..gpu.memory import coalesced_bytes
from ..gpu.warp import WARP_SIZE
from ..kernels.common import INST_PER_ITER, ROW_SETUP_INSTS, launch_for_threads
from .base import (
    FormatCapacityError,
    PreprocessReport,
    SpMVFormat,
    transfer_report_s,
)
from .csr import CSRMatrix

#: Refuse to materialise more than this many diagonal slots.
MAX_SLOTS = 200_000_000


class DIAFormat(SpMVFormat):
    """Dense storage of every occupied diagonal."""

    name = "dia"

    def __init__(
        self,
        offsets: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
        real_nnz: int,
        preprocess: PreprocessReport,
    ) -> None:
        self.offsets = offsets
        self.data = data  # (n_diags, n_rows)
        self._shape = shape
        self.real_nnz = real_nnz
        self.preprocess = preprocess

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "DIAFormat":
        """Build from CSR.  Accepts no kwargs; unknown kwargs raise
        ``TypeError``."""
        rows = np.repeat(
            np.arange(csr.n_rows, dtype=np.int64), csr.nnz_per_row
        )
        diags = csr.col_idx.astype(np.int64) - rows
        offsets = np.unique(diags)
        n_diags = offsets.shape[0]
        if n_diags * csr.n_rows > MAX_SLOTS:
            raise FormatCapacityError(
                f"DIA would need {n_diags} diagonals x {csr.n_rows} rows"
            )
        data = np.zeros((n_diags, csr.n_rows), dtype=csr.values.dtype)
        diag_pos = np.searchsorted(offsets, diags)
        data[diag_pos, rows] = csr.values
        vb = csr.precision.value_bytes
        slots = n_diags * csr.n_rows
        device_bytes = slots * vb + n_diags * 4 + (
            csr.n_rows + csr.n_cols
        ) * vb
        report = PreprocessReport(
            format_name=cls.name,
            host_s=DEFAULT_HOST.stream_time(slots + csr.nnz),
            transfer_s=transfer_report_s(device_bytes),
            device_bytes=device_bytes,
            padding_fraction=0.0 if slots == 0 else 1.0 - csr.nnz / slots,
            notes=f"diagonals={n_diags}",
        )
        return cls(offsets, data, csr.shape, csr.nnz, report)

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return self.real_nnz

    @property
    def n_diags(self) -> int:
        return int(self.offsets.shape[0])

    @property
    def precision(self) -> Precision:
        return (
            Precision.SINGLE
            if self.data.dtype == np.float32
            else Precision.DOUBLE
        )

    def multiply(self, x: np.ndarray) -> np.ndarray:
        n_rows, n_cols = self._shape
        y = np.zeros(n_rows, dtype=np.float64)
        rows = np.arange(n_rows, dtype=np.int64)
        for d, off in enumerate(self.offsets):
            cols = rows + off
            valid = (cols >= 0) & (cols < n_cols)
            y[valid] += (
                self.data[d, valid].astype(np.float64)
                * x.astype(np.float64)[cols[valid]]
            )
        return y.astype(x.dtype, copy=False)

    def multiply_many(self, X: np.ndarray) -> np.ndarray:
        # Same per-diagonal accumulation order as `multiply`, widened
        # over the vector block: each column sees the identical sequence
        # of elementwise multiply-adds, so columns stay bitwise equal to
        # the single-vector product.
        X = self._vector_block(X)
        n_rows, n_cols = self._shape
        Xf = X.astype(np.float64)
        Y = np.zeros((n_rows, X.shape[1]), dtype=np.float64)
        rows = np.arange(n_rows, dtype=np.int64)
        for d, off in enumerate(self.offsets):
            cols = rows + off
            valid = (cols >= 0) & (cols < n_cols)
            Y[valid, :] += (
                self.data[d, valid].astype(np.float64)[:, None]
                * Xf[cols[valid], :]
            )
        return Y.astype(X.dtype, copy=False)

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        if k < 1:
            raise ValueError("k must be >= 1")
        n_rows = self._shape[0]
        if n_rows == 0 or self.n_diags == 0:
            return [KernelWork.empty("dia", self.precision)]
        vb = self.precision.value_bytes
        n_warps = -(-n_rows // WARP_SIZE)
        # One fully coalesced iteration per diagonal; x accesses along a
        # diagonal are sequential, so they stream rather than gather.
        # Every warp is identical, so one weighted entry describes all.
        compute = np.full(
            1,
            self.n_diags * INST_PER_ITER + ROW_SETUP_INSTS,
            dtype=np.float64,
        )
        per_iter = coalesced_bytes(WARP_SIZE * vb) * 2.0  # data + x stream
        dram = np.full(1, self.n_diags * per_iter, dtype=np.float64)
        if k > 1:
            from ..kernels.common import INST_PER_EXTRA_VEC

            compute = compute + (k - 1) * (
                self.n_diags * INST_PER_EXTRA_VEC + 1.0
            )
            # The diagonal data streams once; the x stream and y writes
            # repeat per extra vector of the block.
            x_stream = coalesced_bytes(WARP_SIZE * vb)
            dram = dram + (k - 1) * self.n_diags * x_stream
        return [
            KernelWork(
                name="dia",
                compute_insts=compute,
                dram_bytes=dram,
                mem_ops=np.full(1, float(self.n_diags)),
                flops=2.0 * self.real_nnz * k,
                precision=self.precision,
                launch=launch_for_threads(n_rows),
                warp_weights=np.full(1, float(n_warps)),
                k=k,
            )
        ]
