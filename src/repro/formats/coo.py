"""COO format: coordinate triplets with a segmented-reduction kernel."""

from __future__ import annotations

import numpy as np

from ..gpu.device import DEFAULT_HOST, DeviceSpec, INDEX_BYTES
from ..gpu.kernel import KernelWork
from ..kernels import coo_segmented
from .base import PreprocessReport, TripletFormat, transfer_report_s
from .csr import CSRMatrix


class COOFormat(TripletFormat):
    """Row/col/value triplets, row-major sorted (CUSP's COO)."""

    name = "coo"

    def __init__(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
        preprocess: PreprocessReport,
        profile,
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self._shape = shape
        self.preprocess = preprocess
        self._profile = profile
        from ..util import count_unique

        self._rows_spanned = count_unique(self.rows) if self.nnz else 0

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "COOFormat":
        """Build from CSR.  Accepts no kwargs; unknown kwargs raise
        ``TypeError``."""
        rows = np.repeat(
            np.arange(csr.n_rows, dtype=np.int64), csr.nnz_per_row
        ).astype(np.int32)
        vb = csr.precision.value_bytes
        device_bytes = (
            csr.nnz * (vb + 2 * INDEX_BYTES)
            + (csr.n_rows + csr.n_cols) * vb
        )
        report = PreprocessReport(
            format_name=cls.name,
            # One expansion pass over row_off -> row indices.
            host_s=DEFAULT_HOST.stream_time(csr.nnz),
            transfer_s=transfer_report_s(device_bytes),
            device_bytes=device_bytes,
            notes="row-index expansion only",
        )
        return cls(
            rows=rows,
            cols=csr.col_idx.copy(),
            vals=csr.values.copy(),
            shape=csr.shape,
            preprocess=report,
            profile=csr.gather_profile,
        )

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        rows_spanned = self._rows_spanned
        return [
            coo_segmented.work(
                self.nnz,
                rows_spanned,
                device=device,
                n_cols=self.n_cols,
                precision=self.precision,
                profile=self._profile,
                k=k,
            )
        ]
