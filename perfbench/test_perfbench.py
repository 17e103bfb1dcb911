"""The benchmark's own test (about four minutes on 2 cores):

    python3 -m pytest -q perfbench/test_perfbench.py

Runs the traced benchmark twice per workload, with different seeds, and checks
that the exact counters repeat bit for bit, that each workload's dominant
layer owns most of its traced wall time, that the speed probe scales call
time by the nearby probe times, and that run.py refuses to run in a
directory holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# the layer each workload exists to stress, and the share of wall it must own
DOMINANT = {
    "kl-tower": "klring.structure_constants_s",
    "classify": "classifier.solve_s",
    "verify": "classifier.bruteforce_s",
}
MIN_SHARE = 0.8


def is_exact_counter(name: str) -> bool:
    return (
        name.endswith("_calls")
        or name.startswith("classifier.solutions.")
        or name == "classifier.bound_touched_profiles"
    )


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.fixture(scope="module", params=WORKLOADS)
def traced_pair(request):
    runs = []
    for seed in (1, 2):
        proc = bench(request.param, seed, trace=1)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return request.param, runs


def test_traced_runs_are_correct_and_complete(traced_pair):
    _, runs = traced_pair
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert set(run["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_exact_counters_repeat(traced_pair):
    _, (first, second) = traced_pair
    counters = [name for name in first["metrics"] if is_exact_counter(name)]
    assert counters
    for name in counters:
        assert first["metrics"][name] == second["metrics"][name], name


def test_dominant_layer_owns_the_wall(traced_pair):
    workload, runs = traced_pair
    for run in runs:
        metrics = run["metrics"]
        share = metrics[DOMINANT[workload]]["value"] / metrics["trace.wall_s"]["value"]
        assert share >= MIN_SHARE, (workload, share)


def test_speed_probe_scaling():
    sys.path.insert(0, str(HERE))
    import speed

    # probes of 1 ms every 10 ms on a core twice as slow as the reference,
    # then of 0.25 ms on one twice as fast
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_PROBE_S
    probe.probes = [(t / 100, t / 100 + 2 * ref) for t in range(100)]
    probe.probes += [(t / 100, t / 100 + ref / 2) for t in range(100, 200)]
    raw, scaled = probe.measure(0.05, 0.5)
    assert raw == pytest.approx(0.45 - 45 * 2 * ref)
    assert scaled == pytest.approx(raw / 2)
    raw, scaled = probe.measure(1.5, 1.9)
    assert raw == pytest.approx(0.4 - 40 * ref / 2)
    assert scaled == pytest.approx(raw * 2)


def test_refuses_to_run_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(WORKLOADS[0], 1, trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
