"""SIC format: CSR with Segmented Interleave Combination (Feng et al. [13]).

The one comparison the paper could NOT run: "Since their implementation
was not available, it was not feasible to perform an experimental
performance comparison with ACSR" (Section IX).  This module supplies the
missing comparator from the paper's own description: SIC "put[s] rows
into 3 segments and combine[s] data in each segment by interleaving rows
into blocks", and — like BCCOO/BRC/TCOO — "requires expensive
preprocessing operations such as sorting and re-formatting".

Implementation per that description:

* rows are classified into three segments by length (short / medium /
  long, thresholds at 8 and 64 non-zeros);
* within each segment, consecutive rows are interleaved into 32-row
  blocks stored column-major at the block's max width (an ELL slab per
  block), so a warp reads 32 different rows' k-th elements in one
  coalesced transaction;
* the long segment bounds its block width by splitting rows, BRC-style.

Preprocessing pays the classification scan, the full data re-format, and
a stable per-segment ordering — landing its Figure 4 bill between HYB's
and BRC's, as its design suggests.
"""

from __future__ import annotations

import numpy as np

from ..gpu.device import DEFAULT_HOST, DeviceSpec, INDEX_BYTES
from ..gpu.kernel import KernelWork, merge_concurrent
from ..kernels import brc_kernel
from .base import PreprocessReport, TripletFormat, transfer_report_s
from .brc import split_row_lengths
from .csr import CSRMatrix

#: Segment boundaries on row length (inclusive upper bounds; the last
#: segment is unbounded but width-limited by row splitting).
SEGMENT_BOUNDS = (8, 64)

#: Rows interleaved per block (one warp's worth).
BLOCK_ROWS = 32

#: Width cap for the long segment's blocks.
MAX_LONG_WIDTH = 256


def classify_segments(lengths: np.ndarray) -> np.ndarray:
    """Segment index (0/1/2) per row; empty rows stay in segment 0."""
    lengths = np.asarray(lengths, dtype=np.int64)
    seg = np.zeros(lengths.shape[0], dtype=np.int64)
    seg[lengths > SEGMENT_BOUNDS[0]] = 1
    seg[lengths > SEGMENT_BOUNDS[1]] = 2
    return seg


class SICFormat(TripletFormat):
    """Three length segments, each interleaved into ELL-style blocks."""

    name = "sic"

    def __init__(
        self,
        blocks: list[tuple[int, int, int]],
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
        stored_slots: int,
        segment_rows: tuple[int, int, int],
        preprocess: PreprocessReport,
        profile,
    ) -> None:
        #: ``(n_rows, width, real_nnz)`` per interleave block.
        self.blocks = blocks
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self._shape = shape
        self.stored_slots = stored_slots
        #: Row counts of the short/medium/long segments.
        self.segment_rows = segment_rows
        self.preprocess = preprocess
        self._profile = profile

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "SICFormat":
        """Build from CSR.  Accepts no kwargs; unknown kwargs raise
        ``TypeError``."""
        lengths = csr.nnz_per_row
        seg = classify_segments(lengths)

        blocks: list[tuple[int, int, int]] = []
        stored = 0
        seg_counts = []
        for s in (0, 1, 2):
            members = np.nonzero(seg == s)[0]
            seg_counts.append(int(members.shape[0]))
            seg_lengths = lengths[members]
            if s == 2:
                # Long rows are split so no block exceeds the width cap.
                seg_lengths, _owner = split_row_lengths(
                    seg_lengths, MAX_LONG_WIDTH
                )
            n = int(seg_lengths.shape[0])
            if n == 0:
                continue
            starts = np.arange(0, n, BLOCK_ROWS, dtype=np.int64)
            ends = np.minimum(starts + BLOCK_ROWS, n)
            csum = np.concatenate(([0], np.cumsum(seg_lengths)))
            sums = csum[ends] - csum[starts]
            if s == 0:
                # The *Combination* of SIC: several short rows share one
                # interleave lane, so the block packs to its mean
                # occupancy rather than padding to its max.
                widths = np.maximum(1, -(-sums // BLOCK_ROWS))
                slots = np.full(starts.shape[0], BLOCK_ROWS) * widths
            else:
                widths = np.maximum.reduceat(seg_lengths, starts)
                slots = (ends - starts) * widths
            keep = sums > 0
            blocks.extend(
                (int(e - st), int(w), int(sm))
                for st, e, w, sm in zip(
                    starts[keep], ends[keep], widths[keep], sums[keep]
                )
            )
            stored += int(np.sum(slots[keep]))

        coo_rows = np.repeat(
            np.arange(csr.n_rows, dtype=np.int64), lengths
        ).astype(np.int32)

        vb = csr.precision.value_bytes
        device_bytes = (
            stored * (vb + INDEX_BYTES)
            + csr.n_rows * INDEX_BYTES
            + (csr.n_rows + csr.n_cols) * vb
        )
        report = PreprocessReport(
            format_name=cls.name,
            # Classification scan + full interleaved re-format (a
            # gather/scatter per stored slot) + per-segment ordering.
            host_s=(
                DEFAULT_HOST.stream_time(csr.n_rows + 2 * csr.nnz + stored)
                + DEFAULT_HOST.sort_time(seg_counts[2] or 1)
            ),
            transfer_s=transfer_report_s(device_bytes),
            device_bytes=device_bytes,
            padding_fraction=(
                0.0 if stored == 0 else 1.0 - csr.nnz / stored
            ),
            notes=(
                f"segments short/med/long = "
                f"{seg_counts[0]}/{seg_counts[1]}/{seg_counts[2]}, "
                f"blocks={len(blocks)}"
            ),
        )
        return cls(
            blocks=blocks,
            rows=coo_rows,
            cols=csr.col_idx.copy(),
            vals=csr.values.copy(),
            shape=csr.shape,
            stored_slots=stored,
            segment_rows=tuple(seg_counts),
            preprocess=report,
            profile=csr.gather_profile,
        )

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        works = brc_kernel.block_works(
            self.blocks,
            device=device,
            n_cols=self.n_cols,
            precision=self.precision,
            profile=self._profile,
            k=k,
        )
        if not works:
            return [KernelWork.empty("sic", self.precision)]
        # Three segment kernels fused into one launch-per-segment pool;
        # modelled as a single pooled execution like the BRC fusion.
        return [merge_concurrent(works, name="sic")]
