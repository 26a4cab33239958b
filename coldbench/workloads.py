"""The benchmark's four cold-path workloads.

Each workload builds its inputs from the run seed in :meth:`setup`
(which starts cold: the serve workloads clear the in-session corpus and
plan caches, so it stays cold when called in a process that ran another
workload before) and exposes numbered ops.  ``op(i)``
runs one user-visible operation, checks its output, and returns the
modelled-output bytes that feed the run's fingerprint plus the list of
failed checks (empty when the op is correct).

Op ``i`` repeats op ``i % period`` exactly, so the runner can verify
that a repeated op reproduces its modelled output byte for byte.

The layer functions are called through their modules (``corpus.synthesize``,
``report.write_serve_jsonl``) so the traced run's wrappers see them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import struct
from pathlib import Path

import numpy as np

from repro.core.acsr import ACSRFormat
from repro.data import corpus
from repro.formats import convert
from repro.formats.base import FormatCapacityError
from repro.gpu.device import DEVICES, get_device
from repro.obs import export, tracing
from repro.obs.registry import MetricsRegistry
from repro.serve import loadgen, plans, report
from repro.serve.monitor import MonitorConfig, ServeMonitor
from repro.serve.queries import CompletedQuery, ShedQuery
from repro.serve.server import AsyncServeEngine, ServeConfig, ServeEngine

TITAN = get_device("GTXTitan")

#: Where ``serve_observed`` writes its JSONL (inside the checkout).
OUT_DIR = Path(__file__).resolve().parent / "_out"

#: The ``serve-sim --slo`` objective the observed workload monitors.
OBSERVED_SLO = "p99<=0.005@10s"


def _floats(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _positive(values) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


class Workload:
    """Interface of one workload (see the module docstring)."""

    name = "abstract"
    #: Distinct ops; op ``i`` repeats op ``i % period``.
    period = 1
    #: Ops hashed into the fingerprint (run at least this many).
    fingerprint_ops = 1
    #: Stop only after a whole number of periods (heterogeneous ops).
    whole_rounds = False

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        """Untimed per-op preparation (default: none)."""

    def op(self, i: int) -> tuple[bytes, list[str]]:
        raise NotImplementedError

    def baseline(self, i: int) -> None:
        """Traced runs only: an unobserved twin of op ``i`` (default: none)."""


class CellsCold(Workload):
    """One Table I analog per op: synthesize, build ACSR, model, multiply."""

    name = "cells_cold"
    whole_rounds = True

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        target = 2e4 if tiny else 1e6
        self.cells = [(s, min(1.0, target / s.nnz)) for s in corpus.TABLE_I]
        self.period = self.fingerprint_ops = len(self.cells)

    def setup(self) -> None:
        # Warm-up: the first cell once, so lazy imports and first-touch
        # allocations at the working-set size are paid before timing.
        self._cell(*self.cells[0])

    def _cell(self, spec, scale: float) -> tuple[bytes, list[str]]:
        csr = corpus.synthesize(spec, scale, seed=self.seed)
        fmt = ACSRFormat.from_csr(csr)
        spmv = fmt.spmv_time_s(TITAN)
        spmm = fmt.spmm_time_s(TITAN, k=8)
        rng = np.random.default_rng([self.seed, csr.nnz])
        x = rng.standard_normal(csr.n_cols).astype(csr.values.dtype)
        y = fmt.multiply(x)
        a = csr.to_scipy()
        x64 = x.astype(np.float64)
        ref = a @ x64
        tol = 1e-4 * (abs(a) @ np.abs(x64))
        problems = []
        if y.shape != ref.shape or not np.all(np.abs(y - ref) <= tol):
            problems.append(f"{spec.abbrev}: multiply differs from scipy")
        if not _positive((spmv, spmm)):
            problems.append(f"{spec.abbrev}: modelled time not finite and positive")
        out = spec.abbrev.encode() + struct.pack("<q", csr.nnz) + _floats(spmv, spmm)
        return out, problems

    def op(self, i: int) -> tuple[bytes, list[str]]:
        spec, scale = self.cells[i % self.period]
        return self._cell(spec, scale)


class FormatSweep(Workload):
    """One (matrix, format) pair per op over prebuilt CSR matrices."""

    name = "format_sweep"
    whole_rounds = True
    matrices = ("WIK", "RAL", "ENR")

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.target = 2e4 if tiny else 1e6
        self.formats = convert.available_formats()
        self.period = self.fingerprint_ops = len(self.matrices) * len(self.formats)

    def setup(self) -> None:
        self.csr = {}
        for key in self.matrices:
            spec = corpus.get_spec(key)
            csr = corpus.synthesize(spec, min(1.0, self.target / spec.nnz), seed=self.seed)
            csr.gather_profile  # filled in set-up: the sweep never pays it
            self.csr[key] = csr

    def op(self, i: int) -> tuple[bytes, list[str]]:
        j = i % self.period
        key = self.matrices[j // len(self.formats)]
        name = self.formats[j % len(self.formats)]
        tag = f"{key}/{name}".encode()
        try:
            fmt = convert.build_format(name, self.csr[key])
        except FormatCapacityError:
            return tag + b":capacity", []
        except ValueError as exc:
            if "single precision" not in str(exc):
                raise
            return tag + b":precision", []
        times = [fmt.spmv_time_s(d) for d in DEVICES.values()]
        times.append(fmt.spmm_time_s(TITAN, k=8))
        problems = [] if _positive(times) else [f"{key}/{name}: bad modelled time"]
        return tag + b":ok" + _floats(*times), problems


class ServeCold(Workload):
    """One drain of a window of a Zipf/burst trace, numerics cold."""

    name = "serve_cold"
    fingerprint_ops = 8

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.window = 4 if tiny else 16
        self.period = 64 if tiny else 256
        self.graphs = (("WIK", 0.002 if tiny else 0.05), ("ENR", 0.05 if tiny else 1.0))
        if tiny:
            self.fingerprint_ops = 2

    def _engine(self) -> ServeEngine:
        engine = ServeEngine(TITAN, ServeConfig())
        self.plans = [engine.register(k, scale=s) for k, s in self.graphs]
        return engine

    def setup(self) -> None:
        corpus.clear_cache()
        plans.clear_plan_cache()
        engine = self._engine()
        config = engine.config
        gap = loadgen.auto_interarrival_s(
            self.plans, config.gpus, config.epsilon, config.restart
        )
        self.trace = loadgen.generate_trace(
            loadgen.TraceConfig(n_requests=self.window * self.period, seed=self.seed),
            engine.registered_graphs(),
            gap,
        )

    def prepare(self, i: int) -> None:
        # A fresh engine per window keeps every op's numerics cold;
        # plans and operators come from the session cache.
        self.engine = self._engine()

    async def _drain(self, window):
        front = AsyncServeEngine(self.engine)
        futures = [front.submit(r.tenant, r.graph, r.node, r.arrival_s) for r in window]
        result = await front.drain()
        return result, futures

    def op(self, i: int) -> tuple[bytes, list[str]]:
        j = i % self.period
        window = self.trace[j * self.window:(j + 1) * self.window]
        result, futures = asyncio.run(self._drain(window))
        problems = []
        for fut in futures:
            out = fut.result() if fut.done() else None
            if isinstance(out, CompletedQuery):
                if out.latency_s != out.queue_wait_s + out.formation_s + out.compute_s:
                    problems.append(f"rid {out.request.rid}: latency is not the sum of its terms")
            elif not isinstance(out, ShedQuery):
                problems.append("a request ended neither completed nor shed")
        if len(result.requests) != len(window):
            problems.append("drain lost requests")
        iterations = [getattr(r, "iterations", -1) for r in result.requests]
        out = "\n".join(report.serve_report_lines(result)).encode()
        return out + struct.pack(f"<{len(iterations)}q", *iterations), problems


class ServeObserved(Workload):
    """Replay a warm, hub-skewed trace under monitor + tracer, then export."""

    name = "serve_observed"

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.n_requests = 24 if tiny else 32
        self.scale = 0.05 if tiny else 1.0

    def setup(self) -> None:
        corpus.clear_cache()
        plans.clear_plan_cache()
        self.engine = ServeEngine(TITAN, ServeConfig())
        plan = self.engine.register("ENR", scale=self.scale)
        config = self.engine.config
        gap = loadgen.auto_interarrival_s([plan], config.gpus, config.epsilon, config.restart)
        trace = loadgen.generate_trace(
            loadgen.TraceConfig(n_requests=self.n_requests, seed=self.seed, node_zipf_s=2.0),
            self.engine.registered_graphs(),
            gap,
        )
        # Every seed spans the same virtual time, so the monitor's
        # sampling grid (the op's main cost) is the same size.
        stretch = self.n_requests * gap / trace[-1].arrival_s
        self.trace = tuple(
            dataclasses.replace(r, arrival_s=r.arrival_s * stretch) for r in trace
        )
        self.engine.run_trace(self.trace)  # warms the query cache
        self.engine.registry = MetricsRegistry()
        self.reference = report.serve_report_lines(self.engine.run_trace(self.trace))
        OUT_DIR.mkdir(parents=True, exist_ok=True)

    def op(self, i: int) -> tuple[bytes, list[str]]:
        self.engine.registry = MetricsRegistry()
        monitor = ServeMonitor(MonitorConfig(slos=(OBSERVED_SLO,)))
        tracer = tracing.QueryTracer(
            tracing.TracingConfig(seed=self.seed, head_rate=1.0), monitor=monitor
        )
        result = self.engine.run_trace(self.trace, monitor=monitor, tracer=tracer)
        serve_path = report.write_serve_jsonl(
            result, OUT_DIR / "serve.jsonl", monitor=monitor, seed=self.seed
        )
        trace_path = tracing.write_trace_jsonl(
            tracer, OUT_DIR / "trace.jsonl", seed=self.seed
        )
        problems = [
            f"{p.name}: {err}"
            for p in (serve_path, trace_path)
            for err in export.validate_profile_jsonl(p)
        ]
        if report.serve_report_lines(result) != self.reference:
            problems.append("observed serve report differs from the unobserved reference")
        return serve_path.read_bytes() + trace_path.read_bytes(), problems

    def baseline(self, i: int) -> None:
        self.engine.registry = MetricsRegistry()
        self.engine.run_trace(self.trace)


WORKLOADS = {w.name: w for w in (CellsCold, FormatSweep, ServeCold, ServeObserved)}
