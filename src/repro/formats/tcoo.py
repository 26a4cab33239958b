"""TCOO format: tile-COO with exhaustive tile search (Yang et al. [28]).

The matrix is split into vertical tiles so each tile's slice of ``x``
stays resident in the texture cache while the tile's elements stream
through a COO kernel.  The tile count is an input parameter found by
exhaustive search (Section V: "we performed an exhaustive search to find
the best number of tiles"), where every candidate pays a transform, a
transfer and a trial run — the ~3k-SpMV preprocessing of Figure 4.
Single precision only, like the reference implementation.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DEFAULT_HOST, DeviceSpec, GTX_TITAN, INDEX_BYTES, Precision
from ..gpu.kernel import KernelWork
from ..gpu.simulator import simulate_kernel
from ..kernels import tcoo_kernel
from .base import PreprocessReport, TripletFormat, transfer_report_s
from .csr import CSRMatrix

#: Exhaustively searched tile counts.
TILE_CANDIDATES = tuple(range(1, 129))


class TCOOFormat(TripletFormat):
    """Column-tiled COO at the searched-optimal tile count."""

    name = "tcoo"

    def __init__(
        self,
        n_tiles: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
        preprocess: PreprocessReport,
        profile,
        tile_order: np.ndarray,
    ) -> None:
        self.n_tiles = n_tiles
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self._shape = shape
        self.preprocess = preprocess
        self._profile = profile
        #: Element permutation grouping elements by tile.
        self.tile_order = tile_order

    @classmethod
    def from_csr(
        cls,
        csr: CSRMatrix,
        *,
        tuning_device: DeviceSpec = GTX_TITAN,
        candidates: tuple[int, ...] = TILE_CANDIDATES,
    ) -> "TCOOFormat":
        """Build TCOO by exhaustively searching the tile-count space.

        Accepted kwargs: ``tuning_device`` — the GPU the search is priced
        against (default GTX TITAN); ``candidates`` — tile counts to try
        (default 1..128).  Unknown kwargs raise ``TypeError``.
        """
        if csr.precision is not Precision.SINGLE:
            # Single precision only, like BCCOO (Section V).
            raise ValueError("TCOO supports single precision only")
        if not candidates:
            raise ValueError("need at least one tile-count candidate")

        vb = csr.precision.value_bytes
        data_bytes = csr.nnz * (vb + 2 * INDEX_BYTES)
        best_tiles = None
        best_time = float("inf")
        tuning_s = 0.0
        for t in candidates:
            work = tcoo_kernel.work(
                csr.nnz,
                csr.n_rows,
                t,
                device=tuning_device,
                n_cols=csr.n_cols,
                precision=csr.precision,
                profile=csr.gather_profile,
            )
            trial = simulate_kernel(tuning_device, work).time_s
            # Every candidate re-buckets the elements by tile, ships the
            # layout to the device, and runs one trial.
            tuning_s += (
                DEFAULT_HOST.stream_time(2 * csr.nnz)
                + transfer_report_s(data_bytes)
                + trial
            )
            if trial < best_time:
                best_time = trial
                best_tiles = t
        assert best_tiles is not None

        rows = np.repeat(
            np.arange(csr.n_rows, dtype=np.int64), csr.nnz_per_row
        ).astype(np.int32)
        tile_width = max(1, -(-csr.n_cols // best_tiles))
        tile_of = csr.col_idx.astype(np.int64) // tile_width
        order = np.argsort(tile_of, kind="stable")

        device_bytes = data_bytes + (csr.n_rows + csr.n_cols) * vb
        report = PreprocessReport(
            format_name=cls.name,
            host_s=DEFAULT_HOST.stream_time(2 * csr.nnz),
            transfer_s=transfer_report_s(device_bytes),
            tuning_s=tuning_s,
            device_bytes=device_bytes,
            notes=f"searched {len(candidates)} tile counts -> {best_tiles}",
        )
        return cls(
            n_tiles=best_tiles,
            rows=rows[order],
            cols=csr.col_idx[order].copy(),
            vals=csr.values[order].copy(),
            shape=csr.shape,
            preprocess=report,
            profile=csr.gather_profile,
            tile_order=order,
        )

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        return [
            tcoo_kernel.work(
                self.nnz,
                self.n_rows,
                self.n_tiles,
                device=device,
                n_cols=self.n_cols,
                precision=self.precision,
                profile=self._profile,
                k=k,
            )
        ]
