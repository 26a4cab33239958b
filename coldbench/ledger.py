"""Per-layer wall-clock ledger for the traced benchmark run.

The traced run wraps the public entry points of each layer, patching
every name where a caller looks it up: module-level bindings in every
loaded ``repro.*`` module (so ``rwr`` bound in ``repro.serve.server`` is
wrapped too), methods in the ``__dict__`` of each class that defines
them, and the entries of the format registry.  Nothing under ``src/``
changes, and :meth:`Patches.undo` restores every original object.

Each wrapped call records a span ``(layer, start_ns, end_ns, parent)``
kept in memory.  A layer's *self* time is its span minus its direct
children, and the root's own self time is the residual ``other``.  Spans
nest strictly (``Ledger.close`` refuses one closed out of order) and
times are integer nanoseconds, so these self times telescope exactly to
the wall time of the root span: the sum is exact by construction, not a
check that a run could fail.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

#: Roots the benchmark opens around its own phases.
ROOT_SETUP = "setup"
ROOT_OP = "op"
ROOT_PREPARE = "prepare"
ROOT_BASELINE = "baseline"

#: Layers of the ledger, in report order (module names of ``repro``).
LAYERS = (
    "data.synthesize",
    "formats.from_coo",
    "formats.gather_profile",
    "formats.from_csr",
    "core.binning",
    "core.time_spmv",
    "kernels.kernel_works",
    "gpu.simulate",
    "formats.multiply",
    "formats.multiply_many",
    "apps.rwr",
    "serve.plan_build",
    "serve.operator_build",
    "serve.run_trace",
    "obs.export",
)

#: Layers whose calls also record a ``tracemalloc`` peak.
MEMORY_LAYERS = ("data.synthesize", "formats.from_coo")

#: Layers reported again for the set-up phase, where their work lives
#: on the workloads that do not time them per op.
SETUP_LAYERS = (
    "data.synthesize",
    "formats.from_coo",
    "formats.gather_profile",
    "formats.from_csr",
    "kernels.kernel_works",
    "gpu.simulate",
    "formats.multiply",
    "apps.rwr",
    "serve.plan_build",
    "serve.operator_build",
    "serve.run_trace",
)

_MB = 1024.0 * 1024.0


@dataclass
class Span:
    layer: str
    start_ns: int
    parent: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)
    peak_bytes: int = 0


class Ledger:
    """In-memory span recorder with nested ``tracemalloc`` peaks."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._open_layers: dict[str, int] = defaultdict(int)
        # One [current-at-entry, running-peak] frame per open memory span.
        self._mem: list[list[int]] = []

    # -- recording --------------------------------------------------------
    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, 0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open_layers[layer] += 1
        self.spans[idx].start_ns = time.perf_counter_ns()
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end_ns = time.perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span.layer!r} closed out of order")
        self._open_layers[span.layer] -= 1

    @contextmanager
    def root(self, name: str):
        """A root span of the benchmark itself around the ``with`` body."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _mem_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        else:
            peak = tracemalloc.get_traced_memory()[1]
            if self._mem:
                self._mem[-1][1] = max(self._mem[-1][1], peak)
            tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        self._mem.append([current, current])

    def _mem_exit(self) -> int:
        start, running = self._mem.pop()
        peak = max(running, tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        else:
            tracemalloc.stop()
        return peak - start

    def wrap(self, layer: str, fn, count=None):
        """``fn`` recording a ``layer`` span per call.

        ``count(args, kwargs, result)`` returns a dict of counters; it
        is called only for the outermost span of ``layer`` so nested
        calls (a builder calling ``from_csr``) are not counted twice.
        """
        memory = layer in MEMORY_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if memory:
                self._mem_enter()
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                if memory:
                    self.spans[idx].peak_bytes = self._mem_exit()
            if count is not None and self._open_layers[layer] == 0:
                self.spans[idx].counts = count(args, kwargs, result)
            return result

        return wrapper

    # -- export -----------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """Write every span, one JSON object a line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "layer": s.layer,
                            "start_ns": s.start_ns,
                            "end_ns": s.end_ns,
                            "parent": s.parent,
                            "counts": s.counts,
                            "peak_bytes": s.peak_bytes,
                        }
                    )
                    + "\n"
                )

    # -- aggregation ------------------------------------------------------
    def root_ledgers(self, name: str) -> list["RootLedger"]:
        """One :class:`RootLedger` per root span called ``name``, in order."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                children[s.parent].append(i)
        out = []
        for i, s in enumerate(self.spans):
            if s.parent == -1 and s.layer == name:
                out.append(self._root_ledger(i, children))
        return out

    def _root_ledger(self, root: int, children) -> "RootLedger":
        led = RootLedger(wall_ns=self.spans[root].end_ns - self.spans[root].start_ns)
        todo = [root]
        while todo:
            i = todo.pop()
            s = self.spans[i]
            kids = children.get(i, ())
            todo.extend(kids)
            self_ns = (s.end_ns - s.start_ns) - sum(
                self.spans[k].end_ns - self.spans[k].start_ns for k in kids
            )
            layer = "other" if i == root else s.layer
            led.self_ns[layer] += self_ns
            for key, v in s.counts.items():
                led.counts[key] += v
            if s.peak_bytes:
                led.peak_bytes[layer] = max(led.peak_bytes[layer], s.peak_bytes)
        return led


@dataclass
class RootLedger:
    """Self time per layer (``other`` = the root's own time) of one root."""

    wall_ns: int
    self_ns: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    peak_bytes: dict = field(default_factory=lambda: defaultdict(int))


class Patches:
    """Installed wrappers and the originals they replaced."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, name, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def function(self, ledger: Ledger, layer: str, fn, count=None) -> None:
        """Wrap ``fn`` at every binding in the loaded ``repro`` modules."""
        wrapped = ledger.wrap(layer, fn, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def method(self, ledger: Ledger, layer: str, cls, name: str, count=None) -> None:
        """Wrap ``cls.<name>`` (plain, classmethod or cached_property)."""
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            new = classmethod(ledger.wrap(layer, raw.__func__, count))
        elif isinstance(raw, cached_property):
            new = cached_property(ledger.wrap(layer, raw.func, count))
            new.__set_name__(cls, name)
        else:
            new = ledger.wrap(layer, raw, count)
        self._set(cls, name, new)

    def entry(self, ledger: Ledger, layer: str, table: dict, key) -> None:
        self._set(table, key, ledger.wrap(layer, table[key]))

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def _entries(_args, _kwargs, works) -> dict:
    return {"kernels.entries": sum(len(w.compute_insts) for w in works)}


def _multiply(args, _kwargs, _y) -> dict:
    return {
        "formats.multiply_calls": 1,
        "formats.multiply_bytes": args[0].device_bytes(),
    }


def _multiply_many(args, kwargs, _y) -> dict:
    X = args[1] if len(args) > 1 else kwargs["X"]
    return {"formats.multiply_many_cols": X.shape[1]}


def _rwr(_args, _kwargs, result) -> dict:
    return {
        "apps.rwr_calls": 1,
        "apps.rwr_queries": 1,
        "apps.rwr_iterations": result.iterations,
    }


def _rwr_batch(_args, _kwargs, result) -> dict:
    return {
        "apps.rwr_calls": 1,
        "apps.rwr_queries": int(result.iterations.size),
        "apps.rwr_iterations": int(result.iterations.sum()),
    }


def _run_trace(_args, _kwargs, result) -> dict:
    return {
        "serve.requests": len(result.requests),
        "serve.admitted": len(result.admitted),
        "serve.shed": len(result.shed),
        "serve.batches": len(result.batches),
        "serve.width_sum": sum(b.k for b in result.batches),
    }


def install(ledger: Ledger) -> Patches:
    """Wrap every layer's public calls; ``.undo()`` the result to remove.

    Call after the workload has imported what it uses, so every
    ``repro`` module that binds a wrapped name is already loaded.
    """
    from importlib import import_module

    from repro.core import binning, dispatch
    from repro.data import corpus
    from repro.formats import base, convert
    from repro.formats.csr import CSRMatrix
    from repro.gpu import simulator
    from repro.obs import export, tracing
    from repro.serve import plans, report, server

    rwr = import_module("repro.apps.rwr")  # the package re-exports the function
    p = Patches()
    p.function(ledger, "data.synthesize", corpus.synthesize)
    p.method(ledger, "formats.from_coo", CSRMatrix, "from_coo")
    p.method(ledger, "formats.gather_profile", CSRMatrix, "gather_profile")
    for key in list(convert.FORMAT_BUILDERS):
        p.entry(ledger, "formats.from_csr", convert.FORMAT_BUILDERS, key)
    for cls in set(_all_subclasses(base.SpMVFormat)):
        own = cls.__dict__
        if "from_csr" in own:
            p.method(ledger, "formats.from_csr", cls, "from_csr")
        if "kernel_works" in own:
            p.method(ledger, "kernels.kernel_works", cls, "kernel_works", _entries)
        if "multiply" in own:
            p.method(ledger, "formats.multiply", cls, "multiply", _multiply)
        if "multiply_many" in own:
            p.method(ledger, "formats.multiply_many", cls, "multiply_many", _multiply_many)
    p.function(ledger, "core.binning", binning.compute_binning)
    p.function(ledger, "core.time_spmv", dispatch.time_spmv)
    p.function(
        ledger, "gpu.simulate", simulator.simulate_kernel,
        lambda a, k, r: {"gpu.simulate_launches": 1},
    )
    p.function(
        ledger, "gpu.simulate", simulator.simulate_many,
        lambda a, k, r: {"gpu.simulate_launches": len(r)},
    )
    p.function(ledger, "apps.rwr", rwr.rwr, _rwr)
    p.function(ledger, "apps.rwr", rwr.run_rwr_batch, _rwr_batch)
    p.function(ledger, "serve.plan_build", plans.plan_for)
    p.function(ledger, "serve.operator_build", plans.operator_format)
    p.method(ledger, "serve.run_trace", server.ServeEngine, "run_trace", _run_trace)
    p.function(ledger, "obs.export", report.write_serve_jsonl)
    p.function(ledger, "obs.export", tracing.write_trace_jsonl)
    p.function(ledger, "obs.export", export.validate_profile_jsonl)
    return p


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(
    ops: list[RootLedger],
    baselines: list[RootLedger],
    setups: list[RootLedger],
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` of one traced run.

    Times are mean self seconds per op of the timed phase; ``setup.*``
    times are mean self seconds per set-up.  Where op ``j``'s baseline
    root holds an unobserved replay of the same trace, the observed
    replay's extra self time over its baseline moves from
    ``serve.run_trace`` to ``obs.observer``, keeping the sum exact.
    """
    n = len(ops)
    self_ns: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    peaks: dict[str, int] = defaultdict(int)
    for j, led in enumerate(ops):
        op_self = dict(led.self_ns)
        if "serve.run_trace" in baselines[j].self_ns:
            run = op_self.get("serve.run_trace", 0)
            base = baselines[j].self_ns["serve.run_trace"]
            observer = min(run, max(0, run - base))
            op_self["serve.run_trace"] = run - observer
            op_self["obs.observer"] = observer
        for layer, v in op_self.items():
            self_ns[layer] += v
        for key, v in led.counts.items():
            counts[key] += v
        for layer, v in led.peak_bytes.items():
            peaks[layer] = max(peaks[layer], v)

    def sec(layer: str) -> float:
        return _per(self_ns.get(layer, 0), n) / 1e9

    m: dict[str, tuple[float, str]] = {}
    m["trace.ops"] = (float(n), "count")
    m["trace.op_wall_s"] = (_per(sum(o.wall_ns for o in ops), n) / 1e9, "s/op")
    for layer in LAYERS:
        if layer == "serve.run_trace":
            m["serve.run_trace_self_s"] = (sec(layer), "s/op")
        else:
            m[f"{layer}_s"] = (sec(layer), "s/op")
    m["obs.observer_s"] = (sec("obs.observer"), "s/op")
    m["other_s"] = (sec("other"), "s/op")
    for layer in MEMORY_LAYERS:
        m[f"{layer}_peak_mb"] = (peaks.get(layer, 0) / _MB, "MB")
    for key, unit in (
        ("kernels.entries", "count/op"),
        ("gpu.simulate_launches", "count/op"),
        ("formats.multiply_calls", "count/op"),
        ("formats.multiply_bytes", "B/op"),
        ("formats.multiply_many_cols", "count/op"),
        ("apps.rwr_calls", "count/op"),
        ("apps.rwr_iterations", "count/op"),
    ):
        m[key] = (_per(counts.get(key, 0.0), n), unit)
    admitted = counts.get("serve.admitted", 0.0)
    batches = counts.get("serve.batches", 0.0)
    m["serve.cold_query_frac"] = (
        _per(counts.get("apps.rwr_queries", 0.0), admitted), "ratio"
    )
    m["serve.batch_width_mean"] = (
        _per(counts.get("serve.width_sum", 0.0), batches), "count"
    )
    m["serve.shed_frac"] = (
        _per(counts.get("serve.shed", 0.0), counts.get("serve.requests", 0.0)),
        "ratio",
    )
    s = len(setups)
    setup_ns: dict[str, int] = defaultdict(int)
    for led in setups:
        for layer, v in led.self_ns.items():
            setup_ns[layer] += v
    listed = 0
    for layer in SETUP_LAYERS:
        listed += setup_ns.get(layer, 0)
        m[f"setup.{layer}_s"] = (_per(setup_ns.get(layer, 0), s) / 1e9, "s/setup")
    m["setup.other_s"] = (
        _per(sum(setup_ns.values()) - listed, s) / 1e9, "s/setup"
    )
    return m
