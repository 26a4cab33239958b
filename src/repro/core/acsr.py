"""ACSR — the paper's contribution, packaged as an :class:`SpMVFormat`.

An :class:`ACSRFormat` *is* a CSR matrix plus bin metadata: no data
movement, no padding, no reformatting.  Its preprocessing bill is the
device-side binning scan (a few SpMV-equivalents — Figure 4's ACSR bar),
and its SpMV is the Algorithm 1 driver: bin-specific grids for G2 and a
dynamic-parallelism parent for the long-tail G1 when the device supports
it.

Because the G1/G2 split depends on the device, launch plans are resolved
lazily per device and cached.
"""

from __future__ import annotations

import numpy as np

from ..formats.base import PreprocessReport, SpMVFormat
from ..formats.csr import CSRMatrix
from ..gpu.device import DeviceSpec, GTX_TITAN, Precision
from ..gpu.kernel import KernelWork, merge_concurrent
from ..gpu.simulator import simulate_kernel
from ..kernels import acsr_dp
from .binning import Binning, binning_scan_work, compute_binning
from .dispatch import (
    ACSRPlan,
    ACSRTiming,
    bin_works,
    build_plan,
    dp_children_works,
    execute,
    time_spmv,
)
from .parameters import ACSRParams


#: One pooled cudaMalloc for the bin row-index storage (the histogram
#: pass exists precisely so a single allocation suffices) plus stream
#: setup.
POOLED_ALLOC_OVERHEAD_S = 5.0e-5


class ACSRFormat(SpMVFormat):
    """Adaptive CSR: binning + (optional) dynamic parallelism."""

    name = "acsr"

    def __init__(
        self,
        csr: CSRMatrix,
        binning: Binning,
        params: ACSRParams,
        preprocess: PreprocessReport,
    ) -> None:
        self.csr = csr
        self.binning = binning
        self.params = params
        self.preprocess = preprocess
        self._plans: dict[tuple[str, ACSRParams], ACSRPlan] = {}
        self._timings: dict[tuple[str, ACSRParams, int], ACSRTiming] = {}

    @classmethod
    def from_csr(
        cls,
        csr: CSRMatrix,
        *,
        params: ACSRParams | None = None,
        device: DeviceSpec = GTX_TITAN,
    ) -> "ACSRFormat":
        """Bin the rows and price the scan on ``device``.

        Accepted kwargs: ``params`` — :class:`ACSRParams` overriding the
        paper's defaults (default: ``ACSRParams()``); ``device`` — the GPU
        the binning scan is priced on (default GTX TITAN).  Unknown kwargs
        raise ``TypeError``.
        """
        params = params or ACSRParams()
        binning = compute_binning(csr.nnz_per_row)
        # Two passes over the row lengths (histogram, then bucketed
        # scatter of row ids into one pooled allocation) plus the trivial
        # host-side G1/G2 grouping.
        scan = binning_scan_work(csr.n_rows, csr.precision)
        device_s = (
            2.0 * simulate_kernel(device, scan).time_s
            + POOLED_ALLOC_OVERHEAD_S
        )
        report = PreprocessReport(
            format_name=cls.name,
            host_s=1e-6 * binning.n_bins,  # G1/G2 grouping on the host
            transfer_s=0.0,  # CSR data is already resident; bins are built on device
            device_s=device_s,
            device_bytes=csr.device_bytes() + csr.n_rows * 4,
            notes=f"bins={binning.n_bins}, scan on {device.name}",
        )
        return cls(csr, binning, params, report)

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def plan_for(self, device: DeviceSpec) -> ACSRPlan:
        """The device-resolved G1/G2 launch plan (cached)."""
        key = (device.name, self.params)
        plan = self._plans.get(key)
        if plan is None:
            plan = build_plan(
                self.binning, self.params, device, mu=self.csr.mu
            )
            self._plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # SpMVFormat interface
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @property
    def precision(self) -> Precision:
        return self.csr.precision

    def multiply(self, x: np.ndarray) -> np.ndarray:
        """Exact SpMV result.

        The bin/DP decomposition computes exactly the per-row dot products
        of CSR SpMV (verified against :func:`repro.core.dispatch.execute`
        in the tests), so iteration-heavy callers take the direct path.
        """
        return self.csr.matvec(x)

    def multiply_many(self, X: np.ndarray) -> np.ndarray:
        return self.csr.matmat(self._vector_block(X))

    def multiply_via_plan(self, x: np.ndarray, device: DeviceSpec = GTX_TITAN) -> np.ndarray:
        """SpMV composed from the actual bin + DP kernels (slower, exact)."""
        return execute(self.csr, self.plan_for(device), x)

    def kernel_works(self, device: DeviceSpec, k: int = 1) -> list[KernelWork]:
        """All launches of one SpMV (children merged as one concurrent pool).

        Used by generic tooling; note the base-class sequence timing does
        not include device-side launch overheads — prefer
        :meth:`spmv_time_s` / :meth:`spmm_time_s`, which route through the
        DP model.  ``k > 1`` widens the data grids to the batched (SpMM)
        variant; the DP parent is control-only and stays ``k=1``.
        """
        plan = self.plan_for(device)
        works = list(bin_works(self.csr, plan, device, k=k))
        if plan.g1_rows.size:
            works.append(
                acsr_dp.parent_work(int(plan.g1_rows.shape[0]), self.precision)
            )
            works.append(
                merge_concurrent(
                    dp_children_works(self.csr, plan, device, k=k),
                    name="acsr-dp-children",
                )
            )
        if not works:
            works = [KernelWork.empty("acsr", self.precision)]
        return works

    def timing(self, device: DeviceSpec, k: int = 1) -> ACSRTiming:
        """Full ACSR timing breakdown on ``device`` (cached per device/k)."""
        key = (device.name, self.params, k)
        timing = self._timings.get(key)
        if timing is None:
            timing = time_spmv(self.csr, self.plan_for(device), device, k=k)
            self._timings[key] = timing
        return timing

    def spmv_time_s(self, device: DeviceSpec) -> float:
        return self.timing(device).time_s

    def spmm_time_s(self, device: DeviceSpec, k: int = 1) -> float:
        """Batched SpMM time through the DP-aware ACSR model.

        ``spmm_time_s(device, 1)`` is byte-identical to
        :meth:`spmv_time_s` — the ``k=1`` batch reuses the cached single-
        vector timing.
        """
        if k < 1:
            raise ValueError("vector-block width k must be >= 1")
        return self.timing(device, k=k).time_s

    def run_spmv(self, x: np.ndarray, device: DeviceSpec):
        from ..formats.base import SpMVResult

        x = np.asarray(x, dtype=self.precision.numpy_dtype)
        if x.shape != (self.n_cols,):
            raise ValueError(f"x must have shape ({self.n_cols},)")
        plan = self.plan_for(device)
        y = execute(self.csr, plan, x)  # the real kernel decomposition
        timing = time_spmv(self.csr, plan, device)
        return SpMVResult(
            y=y,
            time_s=timing.time_s,
            timings=(timing.pool,),
            flops=2.0 * self.nnz,
        )

    def run_spmm(self, X: np.ndarray, device: DeviceSpec):
        """Batched ``Y = A @ X`` through the real bin/DP decomposition.

        Each column runs :func:`repro.core.dispatch.execute` (so the
        numerics match the kernel decomposition exactly, column by
        column); the time is one ``k``-wide batched launch of the same
        plan via :meth:`timing`.
        """
        from ..formats.base import SpMMResult

        X = self._vector_block(X)
        k = int(X.shape[1])
        plan = self.plan_for(device)
        Y = np.stack(
            [execute(self.csr, plan, X[:, j]) for j in range(k)], axis=1
        )
        timing = self.timing(device, k=k)
        return SpMMResult(
            Y=Y,
            time_s=timing.time_s,
            timings=(timing.pool,),
            flops=2.0 * self.nnz * k,
            k=k,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def grid_counts(self, device: DeviceSpec) -> tuple[int, int]:
        """Table V's ``(BS, RS)``: bin-specific and row-specific grids."""
        plan = self.plan_for(device)
        return (plan.n_bin_grids, plan.n_row_grids)

    def trace(self, device: DeviceSpec):
        """A :class:`~repro.gpu.trace.KernelTrace` of one SpMV.

        Shows the launch bill, the pooled bin/DP execution, and (when it
        exceeds the pool) the child-enqueue stream — exportable to
        ``chrome://tracing`` via ``trace.save(path)``.
        """
        from ..gpu.trace import KernelTrace, TraceEvent

        timing = self.timing(device)
        tr = KernelTrace(device_name=device.name)
        tr.add_span(
            "launch x%d" % (timing.n_bin_grids + (1 if timing.n_row_grids else 0)),
            timing.launch_s,
            category="overhead",
        )
        pool_ev = tr.append_timing(timing.pool, stream=0)
        if timing.n_row_grids:
            tr.add(
                TraceEvent(
                    name=f"dp-enqueue x{timing.n_row_grids}",
                    start_s=pool_ev.start_s,
                    duration_s=timing.enqueue_s,
                    stream=1,
                    category="overhead",
                    args={"children": timing.n_row_grids},
                )
            )
        return tr
