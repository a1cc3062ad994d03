"""Tests of the benchmark itself: tracing changes no output, counts add up.

Run from the repository root with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gradcert  # noqa: E402
import gradcert.cli  # noqa: E402
import numpy as np  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _run_items(items):
    return [fn() for _, fn in items]


def _digests(outcomes):
    return [wl.item_digest(o) for o in outcomes]


@pytest.fixture()
def grid_items(tmp_path):
    # dim-10 cells only: every kappa and layout, a fraction of a second.
    items = wl.GridSmall(3, tmp_path).round(0)
    return [item for item in items if "/dim=10/" in item[0]]


def test_traced_digests_equal_untraced(grid_items):
    plain = _run_items(grid_items)
    with tracing.Tracer():
        traced = _run_items(grid_items)
    assert _digests(traced) == _digests(plain)
    assert all(o.ok for o in plain)


def test_ag_steps_match_trace_lengths(grid_items):
    with tracing.Tracer() as tracer:
        outcomes = _run_items(grid_items)
    layers = tracer.layer_metrics()
    assert layers["solvers.ag.steps"] == sum(o.extra["steps"]["ag"] for o in outcomes)
    assert layers["solvers.cg.steps"] == sum(o.extra["steps"]["cg_classic"] for o in outcomes)
    assert layers["generate.problems"] == len(outcomes)
    assert layers["potential.certify.calls"] == 2 * len(outcomes)
    assert layers["solvers.grad_calls_per_ag_step"] == 1.0
    assert tracer.missing == []


def test_noisy_matvec_calls_match_iterations(tmp_path):
    workload = wl.NoiseSweep(5, tmp_path)
    with tracing.Tracer() as tracer:
        outcomes = _run_items(workload.round(0))
    layers = tracer.layer_metrics()
    # One operator product per CG step; no run here breaks down mid-step.
    assert all(o.extra["stop_reason"] != "not_positive_definite" for o in outcomes)
    assert layers["perturb.noisy_matvec.calls"] == sum(o.extra["iterations"] for o in outcomes)
    assert layers["solvers.cg.steps"] == layers["perturb.noisy_matvec.calls"]
    assert layers["perturb.detect.busy_s"] >= layers["perturb.detect.self_s"] > 0.0


def test_cli_items_counted_per_command(tmp_path):
    workload = wl.CliPipeline(0, tmp_path)
    first_cell = workload.round(0)[:7]  # dim 50, kappa 100: all seven commands
    plain = _run_items(first_cell)
    with tracing.Tracer() as tracer:
        traced = _run_items(first_cell)
    workload.close()
    assert _digests(traced) == _digests(plain)
    layers = tracer.layer_metrics()
    assert layers["cli.gen.calls"] == 1
    assert layers["cli.run.calls"] == 2
    assert layers["cli.certify.calls"] == 2
    assert layers["cli.identities.calls"] == 1
    assert layers["cli.perturb.calls"] == 1
    assert layers["cli.nonzero_exits"] == sum(not o.ok for o in traced)
    assert layers["traces.write.rows"] == layers["traces.read.rows"] > 0
    assert layers["problems.save.bytes"] > 0


def test_restore_puts_originals_back():
    before = (gradcert.run, gradcert.cli.main, gradcert.SplitMix64.gaussian_vector, np.linalg.cholesky)
    with tracing.Tracer():
        assert gradcert.run is not before[0]
    after = (gradcert.run, gradcert.cli.main, gradcert.SplitMix64.gaussian_vector, np.linalg.cholesky)
    assert after == before


def test_known_false_alarm_is_counted(tmp_path):
    # dim=50, kappa=100, log_uniform, seed 0: the identity battery flags this
    # clean problem, so the identities item fails and is marked as known.
    workload = wl.CliPipeline(0, tmp_path)
    prob = str(tmp_path / "p.json")
    gen = ["gen", "--dim", "50", "--ell", "1", "--lip", "100", "--seed", "0", "--out", prob]
    assert workload._item(gen, [prob], (50, 1e2)).ok
    outcome = workload._item(["identities", "--problem", prob], [], (50, 1e2))
    assert not outcome.ok and outcome.known
    # The same failure reported for a dim-200 cell is not the known defect.
    outcome = workload._item(["identities", "--problem", prob], [], (200, 1e2))
    assert not outcome.ok and not outcome.known


def _identities_stdout(worst, tol=1e-8):
    return (f"50 CG steps: worst identity residual {worst:.3e} (tol {tol:g}), "
            "rho alignment 1.000e-15\nidentity violation detected\n")


def test_only_roundoff_identity_alarms_at_dim_50_are_known():
    assert wl.known_false_alarm("identities", (50, 1e2), 1, _identities_stdout(1.5e-8))
    assert wl.known_false_alarm("identities", (50, 1e6), 1, _identities_stdout(1.9e-8))
    assert not wl.known_false_alarm("identities", (200, 1e6), 1, _identities_stdout(1.5e-8))
    # Far past the tolerance is not roundoff; within it, rho failed instead.
    assert not wl.known_false_alarm("identities", (50, 1e2), 1, _identities_stdout(2e-7))
    assert not wl.known_false_alarm("identities", (50, 1e2), 1, _identities_stdout(9e-9))
    assert not wl.known_false_alarm("identities", (50, 1e2), 2, _identities_stdout(1.5e-8))
    assert not wl.known_false_alarm("identities", (50, 1e2), 1, "identity violation detected\n")
    assert not wl.known_false_alarm("certify", (50, 1e2), 1, _identities_stdout(1.5e-8))


def test_round_inputs_follow_the_seed(tmp_path):
    names = [name for name, _ in wl.GridLarge(7, tmp_path).round(2)]
    assert names == [name for name, _ in wl.GridLarge(7, tmp_path).round(2)]
    assert names != [name for name, _ in wl.GridLarge(8, tmp_path).round(2)]


def test_result_line_and_bare_directory(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noise_sweep", "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # 0.2 s plans one round of the four etas.
    assert result["attempted"] == len(wl.NOISE_ETAS)
    end_to_end = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(result["metrics"]) == end_to_end

    # A traced run in a fresh checkout, with no work directory yet.
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, fresh / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", fresh)
    traced = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "noise_sweep", "--seconds", "0.2",
         "--trace", "1"],
        cwd=fresh, capture_output=True, text=True, timeout=170,
    )
    assert traced.returncode == 0, traced.stderr
    result = json.loads(traced.stdout.strip().splitlines()[-1])
    assert result["correct"]
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(result["metrics"]) == per_layer
    assert (fresh / ".bench_work" / "spans-noise_sweep.csv").is_file()

    # Without the program next to it the benchmark must fail, printing no result.
    bare_dir = tmp_path / "bare"
    shutil.copytree(BENCH, bare_dir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare_dir)
    bare = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_small", "--seconds", "1"],
        cwd=bare_dir, capture_output=True, text=True, timeout=170,
    )
    assert bare.returncode != 0
    assert '"correct"' not in bare.stdout


def test_run_length_is_a_fixed_number_of_rounds():
    # The same seconds give the same rounds, so a seed's items and failed
    # items repeat however fast the machine runs.
    assert wl.GridLarge.rounds_for(20.0) == round(20.0 / wl.GridLarge.round_s)
    assert wl.CliPipeline.rounds_for(0.2) == 1
    for cls in wl.WORKLOADS.values():
        assert cls.rounds_for(0.0) == 1


def test_speed_scale_uses_samples_near_the_item():
    probe = speed.SpeedProbe()
    probe.times = [0.0, 0.1, 0.2, 5.0]
    probe.kernel_s = [1e-3, 2e-3, 4e-3, 8e-3]
    # Samples within WINDOW_S of [0.1, 0.15] are the first three.
    assert probe.scale(0.1, 0.15) == speed.factor(2e-3)
    # No sample within the window: the nearest one sets the scale.
    assert probe.scale(3.0, 3.1) == speed.factor(8e-3)


def test_p50_is_the_median_over_slots():
    # Two rounds of four slots; the plain median (26.0) would fall between
    # the clusters of slots 1 and 2.
    lat = np.array([1.0, 10.0, 40.0, 41.0, 4.0, 40.0, 90.0, 41.0])
    # Slot geometric means 2, 20, 60, 41; their median is (20 + 41) / 2.
    assert run._slot_p50(lat, 2) == pytest.approx(30.5)


def test_raising_item_is_a_failed_item():
    outcome = run._run_item(wl, lambda: 1 / 0)
    assert not outcome.ok and not outcome.known
    assert "ZeroDivisionError" in outcome.note
