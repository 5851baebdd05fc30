"""Checks of the benchmark itself: tracer coverage, output digests, contract.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from speed import NOMINAL_S, WINDOW_S, calibrate, scale, slowdown  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, load_reference  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def ref():
    return load_reference()


def _ready(name):
    wl = WORKLOADS[name]
    wl.setup()
    return wl


def _run_traced(wl, seed, ops):
    """Run `ops` ops under a fresh tracer; returns (tracer, digests, items)."""
    tracer = Tracer()
    tracer.install()
    digests, items = [], 0
    try:
        for inp in itertools.islice(wl.inputs(seed), ops):
            done, out = wl.run(wl.prepare(inp))
            items += done
            digests.append(wl.digest(out))
    finally:
        tracer.uninstall()
    return tracer, digests, items


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", ["collapse-fast", "collapse-tableau", "singleshot"])
def test_trial_wrappers_fire_at_every_binding_site(name):
    wl = _ready(name)
    ops = 2
    tracer, _, trials = _run_traced(wl, 3, ops)
    calls = tracer.calls()
    # montecarlo calls trial_rng through its own `from .noise import` binding
    assert calls["noise.trial_rng"] == trials
    assert calls["noise.sample_qubit_noise"] == trials
    if name.startswith("collapse"):
        assert calls["flux.repair_flux"] == 6 * trials  # 3 pairs x 2 bases
        assert calls["jump.JumpContext.cached_string_correction"] == 6 * trials
        assert calls["boundary.boundary_structure"] == 0
        assert calls["jump.single_shot_ec"] == 0
    if name == "collapse-fast":
        assert calls["montecarlo.CollapseEngine.run_trial"] == trials
        assert calls["tableau.Tableau.expect"] == 0
        assert calls["pauli.PauliOperator.__mul__"] == 0
    if name == "collapse-tableau":
        assert calls["jump.collapse"] == trials  # bound in montecarlo
        assert calls["flux.extract_flux"] == 6 * trials  # bound in jump
        assert calls["jump.discard_qubits"] == trials
        assert calls["jump.ideal_decode_2d"] == trials
    if name == "singleshot":
        assert calls["jump.single_shot_ec"] == 2 * trials  # bound in montecarlo
        assert calls["montecarlo.run_single_shot_trials"] == 2 * ops  # one per code
        assert calls["boundary.boundary_structure"] == 2 * trials  # bound in jump
        assert calls["colex.validate"] == 2 * trials  # bound in boundary
        assert calls["flux.repair_flux"] == 0
        # state preparation once per call (3 states per op), none per trial
        assert calls["tableau.from_stabilizers"] == 3 * ops
    assert calls["scheduler.schedule"] == calls["scheduler.verify"] == 0


def test_schedule_wrappers_fire():
    wl = _ready("schedule")
    tracer, _, steps = _run_traced(wl, 3, 5)
    calls = tracer.calls()
    assert calls["scheduler.schedule"] == calls["scheduler.verify"] == 5
    assert calls["noise.trial_rng"] == 0
    metrics = tracer.layer_metrics(0, steps)
    assert metrics["scheduler.swaps_per_step"] > 0


def test_uninstall_restores_every_binding():
    import colexjump
    from colexjump import montecarlo, noise

    def bindings():  # ids only: holding the functions would be a stray reference
        return [id(m.trial_rng) for m in (noise, montecarlo, colexjump)]

    before = bindings()
    tracer = Tracer()
    tracer.install()
    assert bindings() != before and len(set(bindings())) == 1
    tracer.uninstall()
    assert bindings() == before


def test_missed_binding_site_is_an_error():
    from colexjump import noise

    noise._held_elsewhere = [noise.trial_rng]  # a reference the tracer cannot rebind
    try:
        with pytest.raises(RuntimeError, match="noise.trial_rng"):
            Tracer().install()
    finally:
        del noise._held_elsewhere
    tracer = Tracer()
    tracer.install()  # nothing left over from the failed attempt
    tracer.uninstall()


def test_traced_and_untraced_digests_equal(ref):
    wl = _ready("collapse-fast")
    inputs = list(itertools.islice(wl.inputs(5), 4))
    plain = [wl.digest(wl.run(wl.prepare(inp))[1]) for inp in inputs]
    _, traced, _ = _run_traced(wl, 5, 4)
    assert plain == traced == [ref[pool][k] for pool, k in inputs]


def test_fast_and_tableau_engines_agree_chunk_for_chunk(ref):
    tableau = _ready("collapse-tableau")
    for pool, k in itertools.islice(tableau.inputs(11), 2):
        got = tableau.digest(tableau.run(k)[1])
        assert got == tableau.digest(tableau.run(k, engine="fast")[1]) == ref[pool][k]


def test_ops_scale_by_the_calibrations_near_them():
    assert slowdown([NOMINAL_S, 2 * NOMINAL_S]) == 1.5
    jobs = calibrate(5)
    assert len(jobs) == 5 and all(t > 0 for t in jobs)
    far = 10 * WINDOW_S
    batches = [(0.0, [NOMINAL_S]), (far, [2 * NOMINAL_S, 4 * NOMINAL_S])]
    spans = [(0.0, 0.2), (far, far + 0.3), (far / 3 - 0.1, far / 3 + 0.1)]
    # no batch lies within WINDOW_S of the last op: the nearest one counts
    assert scale(spans, batches) == pytest.approx([0.2, 0.1, 0.2])


def test_inputs_depend_on_the_seed_only():
    for wl in WORKLOADS.values():
        first = list(itertools.islice(wl.inputs(7), 200))
        assert first == list(itertools.islice(wl.inputs(7), 200))
        assert first != list(itertools.islice(wl.inputs(8), 200))


def test_reference_pools_match_the_inputs(ref):
    wl = WORKLOADS["schedule"]
    pools = {pool for pool, _ in itertools.islice(wl.inputs(1), 200)}
    assert pools == {"schedule-small", "schedule-big"}
    assert set(ref) == {
        "collapse-fast", "collapse-tableau", "singleshot", "schedule-small", "schedule-big"
    }


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["per_layer"] == [
        {"name": m["name"], "unit": m["unit"], "better": m["better"]} for m in METRICS
    ]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = [*RUN, "--workload", name, "--seed", "4", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    for m in METRICS:
        value = metrics[m["name"]]["value"]
        if name in m["zero_on"]:
            assert value == 0, m["name"]
        if name in m["exercised"]:
            assert value > 0, m["name"]


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = [*RUN, "--workload", "schedule", "--seed", "2", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "schedule", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
