"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root:

    PYTHONPATH=src python -m pytest coldbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, "coldbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    fingerprint = next(l for l in lines if l.startswith("fingerprint "))
    return json.loads(lines[-1]), fingerprint


@pytest.fixture(scope="module")
def runs():
    """Two untraced runs and one traced run of every workload."""
    return {
        (w, trace, k): _result(_cli(w, trace))
        for w in workloads.WORKLOADS
        for trace, k in ((0, 0), (0, 1), (1, 0))
    }


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(runs, workload, trace, section):
    result, _ = runs[(workload, trace, 0)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fingerprint_is_the_same_traced_untraced_and_rerun(runs, workload):
    fps = {runs[(workload, t, k)][1] for t, k in ((0, 0), (0, 1), (1, 0))}
    assert len(fps) == 1


def test_fingerprint_follows_the_seed():
    _, a = _result(_cli("format_sweep", 0, seed=3))
    _, b = _result(_cli("format_sweep", 0, seed=4))
    assert a.split("sha256=")[1] != b.split("sha256=")[1]


def test_traced_ledger_adds_up_to_the_op_wall(runs):
    result, _ = runs[("cells_cold", 1, 0)]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    parts = [
        v for k, v in m.items()
        if k.endswith("_s") and not k.startswith(("setup.", "trace."))
    ]
    assert sum(parts) == pytest.approx(m["trace.op_wall_s"], rel=1e-9)
    assert m["data.synthesize_s"] + m["formats.from_coo_s"] > 0.5 * m["trace.op_wall_s"]


def test_serve_observed_runs_no_numerics(runs):
    result, _ = runs[("serve_observed", 1, 0)]
    assert result["metrics"]["apps.rwr_calls"]["value"] == 0
    assert result["metrics"]["obs.observer_s"]["value"] > 0


def _main(capsys, workload, trace=0):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wrong_output_counts_as_failed_op(monkeypatch, capsys):
    from repro.core.acsr import ACSRFormat

    right = ACSRFormat.multiply
    monkeypatch.setattr(ACSRFormat, "multiply", lambda self, x: right(self, x) + 1.0)
    result = _main(capsys, "cells_cold")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_crashing_op_counts_as_failed_op(monkeypatch, capsys):
    from repro.formats import convert

    real = convert.build_format

    def build_format(name, csr, **kwargs):
        if name == "coo":
            raise RuntimeError("injected")
        return real(name, csr, **kwargs)

    monkeypatch.setattr(convert, "build_format", build_format)
    result = _main(capsys, "format_sweep")
    assert result["correct"] is False
    assert result["failed"] == len(workloads.FormatSweep.matrices)


def test_changed_serve_report_counts_as_failed_op(monkeypatch, capsys):
    real_setup = workloads.ServeObserved.setup

    def setup(self):
        real_setup(self)
        self.reference = self.reference[:-1]

    monkeypatch.setattr(workloads.ServeObserved, "setup", setup)
    result = _main(capsys, "serve_observed")
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_ledger_self_times_sum_exactly_and_count_outermost_calls():
    led = ledger.Ledger()
    inner = led.wrap("formats.multiply", lambda n: n, lambda a, k, r: {"calls": 1})

    def outer(n):
        return sum(inner(i) for i in range(n))

    wrapped = led.wrap("formats.multiply", outer, lambda a, k, r: {"calls": 1})
    with led.root(ledger.ROOT_OP):
        wrapped(3)
        led.wrap("apps.rwr", lambda: np.ones(1 << 16))()
    (op,) = led.root_ledgers(ledger.ROOT_OP)
    assert sum(op.self_ns.values()) == op.wall_ns
    assert set(op.self_ns) == {"other", "formats.multiply", "apps.rwr"}
    assert op.counts["calls"] == 1


def test_ledger_memory_peak_is_measured_around_the_call():
    led = ledger.Ledger()
    synth = led.wrap("data.synthesize", lambda: np.ones(1 << 20).sum())
    with led.root(ledger.ROOT_OP):
        synth()
    (op,) = led.root_ledgers(ledger.ROOT_OP)
    assert op.peak_bytes["data.synthesize"] >= 8 * (1 << 20)


def test_patches_undo_restores_every_original():
    from repro.apps import rwr as rwr_fn
    from repro.formats.csr import CSRMatrix
    from repro.serve import server

    before = (server.rwr, CSRMatrix.__dict__["from_coo"], CSRMatrix.__dict__["gather_profile"])
    patches = ledger.install(ledger.Ledger())
    assert server.rwr is not rwr_fn
    patches.undo()
    after = (server.rwr, CSRMatrix.__dict__["from_coo"], CSRMatrix.__dict__["gather_profile"])
    assert after == before and server.rwr is rwr_fn


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "coldbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _cli("cells_cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_setup_only_reports_one_cold_setup_sample():
    proc = subprocess.run(
        [
            sys.executable, "coldbench/run.py", "--workload", "serve_observed",
            "--seed", "3", "--seconds", "0", "--size", "tiny", "--setup-only",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(sample) == ["setup_s"]
    # Counted from process start, so it includes the interpreter and imports.
    assert sample["setup_s"] > 0.05


def test_op_times_are_scaled_by_the_latest_calibration(monkeypatch):
    # A host at half the reference speed: every op counts half its wall.
    monkeypatch.setattr(run, "calibrate", lambda: 2 * run.CAL_REF_S)
    wl = workloads.WORKLOADS["cells_cold"](3, True)
    wl.setup()
    timed = run._timed_loop(wl, 0.0)
    assert timed.scales == [0.5] * len(timed.walls)
    assert timed.reference_walls() == [w / 2 for w in timed.walls]
    assert run.host_scale() == 0.5
