"""Cold-path benchmark of the ACSR reproduction.

    python3 coldbench/run.py --workload cells_cold --seed 1 --seconds 15 --trace 0

Runs one workload in this single-threaded process: imports and one cold
set-up, then ops in a loop until ``--seconds`` have passed (a traced run
splits them between its traced ops and their untraced re-run).  Every op's
output is checked; a failed check or an exception counts as a failed op.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ledger (see ``ledger.py``) with
``--trace 1``.  A line above it carries the modelled-output
fingerprint.

``setup_s`` is the wall time from process start to the first timed op.
An untraced run measures it once itself and, after its timed phase,
once more in each of ``SETUP_SAMPLES - 1`` fresh processes started with
``--setup-only``; it reports the median of these cold samples.

The end-to-end times are wall times scaled to a reference host speed:
each op's wall (and each set-up sample) is multiplied by
``CAL_REF_S / calibrate()``, the fixed reference task timed next to it.
On a shared host whose speed drifts by a quarter over minutes this keeps
two runs of the same code comparable; the unscaled median is printed
beside the result.
"""

import os
import time


def _process_start() -> float:
    """The ``time.perf_counter()`` reading at which this process started.

    Linux gives the start in clock ticks since boot; elsewhere this
    falls back to the moment this module starts running.
    """
    now = time.perf_counter()
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return now - (time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return now


_T0 = _process_start()

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import ledger  # noqa: E402  (no NumPy or repro import at module level)

ROOT = Path(__file__).resolve().parents[1]

#: Cold set-ups measured per untraced run, each in a fresh process;
#: ``setup_s`` reports their median.
SETUP_SAMPLES = 3

#: Environment of a steady run: one BLAS/OpenMP thread, and none of the
#: package's own knobs (disk caches, global scale, JIT) left on.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)
REPRO_VARS = ("REPRO_CELL_CACHE", "REPRO_SCALE", "REPRO_JIT", "REPRO_QUICK")

#: Timings are reported as if the host ran :func:`calibrate` in exactly
#: this many seconds (see ``DESIGN.md``, "Host-speed normalisation").
CAL_REF_S = 0.05
#: Seconds between calibrations in the timed phase.
CAL_EVERY_S = 1.0


@functools.cache
def _cal_keys():
    import numpy as np

    return np.random.default_rng(0).permutation(1 << 18)


def calibrate() -> float:
    """Seconds this host takes, right now, for one fixed reference task.

    The task mixes what the workloads spend their time on, Python object
    churn and a NumPy sort larger than a core's private cache, and calls
    nothing in ``repro``, so no change to the package can change it.
    """
    import numpy as np

    keys = _cal_keys()
    t = time.perf_counter()
    json.dumps({f"k{i}": {"v": i * 0.5, "l": [i, i + 1]} for i in range(6000)})
    np.argsort(keys, kind="stable")
    return time.perf_counter() - t


def host_scale() -> float:
    """Factor from this host's current speed to the reference speed."""
    return CAL_REF_S / statistics.median(calibrate() for _ in range(3))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every input (for the benchmark's own tests)",
    )
    p.add_argument(
        "--setup-only", action="store_true",
        help="set up, print {\"setup_s\": ...} and exit (one setup_s sample)",
    )
    return p.parse_args(argv)


@dataclass
class Timed:
    """What one timed loop measured, one entry per op."""

    walls: list = field(default_factory=list)  # op wall seconds
    iters: list = field(default_factory=list)  # loop seconds, calibration excluded
    scales: list = field(default_factory=list)  # host-speed factor at the op
    done: list = field(default_factory=list)  # op indices
    outputs: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def reference_walls(self) -> list:
        return [w * s for w, s in zip(self.walls, self.scales)]

    def reference_iters(self) -> list:
        return [w * s for w, s in zip(self.iters, self.scales)]


def _timed_loop(wl, seconds: float, indices=None, led=None) -> Timed:
    """Run ops until ``seconds`` pass (or exactly ``indices``).

    The host's speed is measured with :func:`calibrate` at most every
    ``CAL_EVERY_S`` seconds, before an op, and each op is scaled by the
    latest measurement.
    """
    t = Timed()

    def scoped(name, fn, i):
        if led is None:
            return fn(i)
        with led.root(name):
            return fn(i)

    start = time.perf_counter()
    cal_at = -CAL_EVERY_S
    i = 0
    while True:
        if indices is not None:
            if i >= len(indices):
                break
        elif i >= wl.fingerprint_ops:
            elapsed = time.perf_counter() - start
            if not wl.whole_rounds:
                if elapsed >= seconds:
                    break
            elif i % wl.period == 0:
                # Stop at the round boundary nearest to ``seconds``.
                half_round = elapsed / (i // wl.period) / 2
                if elapsed + half_round >= seconds:
                    break
        if time.perf_counter() - cal_at >= CAL_EVERY_S:
            scale = CAL_REF_S / calibrate()
            cal_at = time.perf_counter()
        k = i if indices is None else indices[i]
        began = time.perf_counter()
        scoped(ledger.ROOT_PREPARE, wl.prepare, k)
        gc.collect()
        problems = []
        t0 = time.perf_counter()
        try:
            out, problems = scoped(ledger.ROOT_OP, wl.op, k)
        except Exception:  # a crashing op is a failed op; the run goes on
            traceback.print_exc(file=sys.stderr)
            out, problems = b"error", ["op raised"]
        t.walls.append(time.perf_counter() - t0)
        if led is not None:
            scoped(ledger.ROOT_BASELINE, wl.baseline, k)
        key = k % wl.period
        if key in t.outputs and t.outputs[key] != out:
            problems = problems + ["repeated op changed its modelled output"]
        t.outputs.setdefault(key, out)
        if problems:
            t.failures.append((k, problems))
        t.done.append(k)
        t.iters.append(time.perf_counter() - began)
        t.scales.append(scale)
        i += 1
    return t


def fingerprint(wl, outputs) -> str:
    h = hashlib.sha256()
    for key in range(wl.fingerprint_ops):
        h.update(hashlib.sha256(outputs[key]).digest())
    return h.hexdigest()


def _setup_sample(args) -> float:
    """``setup_s`` of one fresh ``--setup-only`` process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
        "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run(args) -> dict:
    """Measure one workload; returns the result object to print."""
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny")
    led = patches = None
    if args.trace:
        led = ledger.Ledger()
        patches = ledger.install(led)
        with led.root(ledger.ROOT_SETUP):
            wl.setup()
    else:
        wl.setup()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        return {"setup_s": setup_s * host_scale()}

    if led is None:
        setup_s *= host_scale()
    # A traced run spends half its time on traced ops and about half on
    # their untraced re-run (for ``trace.overhead_ratio``), so it takes
    # no longer than an untraced run.
    seconds = args.seconds / 2 if led is not None else args.seconds
    timed = _timed_loop(wl, seconds, led=led)
    attempted = len(timed.done)
    failures = timed.failures
    if led is None:
        metrics = {
            "ops_per_s": (attempted / sum(timed.reference_iters()), "1/s"),
            "op_p50_s": (statistics.median(timed.reference_walls()), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        print(
            f"{args.workload}: op_p50_s over {attempted} ops; unscaled op wall "
            f"median {statistics.median(timed.walls):.4f} s, host-speed factor "
            f"median {statistics.median(timed.scales):.4f}"
        )
    else:
        patches.undo()
        workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
        led.write_jsonl(workloads.OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = ledger.layer_metrics(
            led.root_ledgers(ledger.ROOT_OP),
            led.root_ledgers(ledger.ROOT_BASELINE),
            led.root_ledgers(ledger.ROOT_SETUP),
        )
        # Tracing overhead: the same ops again, untraced.
        plain = _timed_loop(wl, 0.0, indices=timed.done)
        attempted += len(plain.done)
        failures = failures + plain.failures
        metrics["trace.overhead_ratio"] = (sum(timed.walls) / sum(plain.walls), "ratio")
    failed = len(failures)
    for k, problems in failures:
        print(f"op {k} failed: {'; '.join(problems)}", file=sys.stderr)
    outputs = timed.outputs
    print(f"fingerprint {args.workload} seed={args.seed} sha256={fingerprint(wl, outputs)}")
    if led is None:
        # The other cold set-ups, after the timed phase so they cannot
        # disturb it, with this run's inputs released first.
        del wl, outputs, timed
        gc.collect()
        samples = [setup_s] + [_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics["setup_s"] = (statistics.median(samples), "s")
        print(f"{args.workload}: setup_s samples " + " ".join(f"{v:.4f}" for v in samples))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in REPRO_VARS:
        os.environ.pop(var, None)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
