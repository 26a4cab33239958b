"""A golden pin on a cold serve replay's report and iteration counts.

The width-1 ``== rwr()`` identities in ``test_server.py`` compare the
engine against the same numeric kernel it runs, so a drift in that
kernel moves both sides together and passes.  This test pins the
*output* instead: the sha256 of a fresh engine's report lines plus the
per-request RWR iteration counts of a small Zipf/burst trace over WIK
and ENR.  A small numeric drift rarely moves an iteration count, so a
second digest pins the bytes of the RWR score vectors of the trace's
distinct queries; it catches any drift that survives the cast of the
kernel's float64 row sums to the float32 scores (a prefix-sum
difference does; a reordered sum often does not, which
``tests/kernels/test_triplet_kernel.py`` catches instead).  Both
digests were recorded with the historical row-major ``np.bincount``
kernel.
"""

from __future__ import annotations

import hashlib
import struct

from repro.apps.rwr import rwr
from repro.gpu.device import GTX_TITAN, Precision
from repro.serve import (
    ServeConfig,
    ServeEngine,
    TraceConfig,
    auto_interarrival_s,
    generate_trace,
    operator_format,
    serve_report_lines,
)

GRAPHS = (("WIK", 0.002), ("ENR", 0.05))

#: Recorded on the bincount kernel; see the module docstring.
PINNED_SHA256 = "3250bccc9f1b8e3b3d4a2d5b163419c767893d8d42a4482cca29404df57189ac"
PINNED_SCORES_SHA256 = "24f3a01962082d85cd37021be6213ae41e49597fef6d7bb3cae8f5adf8c0821a"


def fresh_engine_and_trace():
    engine = ServeEngine(GTX_TITAN, ServeConfig())
    plans = [engine.register(key, scale=scale) for key, scale in GRAPHS]
    config = engine.config
    gap = auto_interarrival_s(plans, config.gpus, config.epsilon, config.restart)
    trace = generate_trace(
        TraceConfig(n_requests=64, seed=11), engine.registered_graphs(), gap
    )
    return engine, plans, trace


def test_cold_replay_matches_the_pinned_digest():
    engine, _plans, trace = fresh_engine_and_trace()
    result = engine.run_trace(trace)
    iterations = [getattr(r, "iterations", -1) for r in result.requests]
    # Guard against a vacuous pin: the replay must run real RWR numerics.
    assert sum(i > 0 for i in iterations) >= 8
    blob = "\n".join(serve_report_lines(result)).encode()
    blob += struct.pack(f"<{len(iterations)}q", *iterations)
    assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256


def test_cold_query_scores_match_the_pinned_digest():
    engine, plans, trace = fresh_engine_and_trace()
    config = engine.config
    digest = hashlib.sha256()
    for plan in plans:
        fmt = operator_format(
            plan.abbrev, plan.format_name, Precision(plan.precision), plan.scale
        )
        for node in sorted({r.node for r in trace if r.graph == plan.abbrev}):
            scores = rwr(
                fmt,
                GTX_TITAN,
                node,
                restart=config.restart,
                epsilon=config.epsilon,
                max_iterations=config.max_iterations,
            ).vector
            digest.update(scores.tobytes())
    assert digest.hexdigest() == PINNED_SCORES_SHA256
