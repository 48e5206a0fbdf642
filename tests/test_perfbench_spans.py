"""The benchmark's span tracer must find every name it wraps in tsclab.

``perfbench/spans.py`` wraps tsclab functions by module and attribute name,
so a rename in ``src``, or a path that stops calling a wrapped name, breaks
traced benchmark runs; these tests make the suite fail the same way.  They
only read ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import tsclab.envs
import tsclab.sim
from tsclab.agents.bundle import PolicyBundle
from tsclab.baselines import FixedTimeController
from tsclab.harness.runner import PolicyController, run_episode
from tsclab.neural import Mlp
from tsclab.sim import FlowProfile, IntersectionLayout, N_LANES, PhasePlan
from tsclab.staterep import make_observation

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_target():
    spans = load_spans()
    raw_step = tsclab.envs.step
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tsclab.envs.step is not raw_step
        flows = FlowProfile.uniform([400.0] * N_LANES)
        result = run_episode(IntersectionLayout(), PhasePlan(), flows,
                             FixedTimeController(), seed=3, horizon_s=300,
                             record_events=True)
    finally:
        tracer.uninstall()
    assert tsclab.envs.step is raw_step and tsclab.sim.step is raw_step
    assert len(tracer.durations["sim.step"]) == 300
    entered = sum(1 for _t, _lane, event, _vid in result.events if event == "enter")
    assert tracer.counters["sim.vehicles"] == entered > 0


def test_tracer_times_a_loaded_kplanes_policy(tmp_path):
    path = tmp_path / "policy.tscw"
    PolicyBundle("ppo", "queue", Mlp([68, 8, 3], "tanh", seed=0), None,
                 make_observation("kplanes")).save(path)
    tracer = load_spans().Tracer()
    with tracer:
        controller = PolicyController(PolicyBundle.load(path), sample_seed=0)
        run_episode(IntersectionLayout(), PhasePlan(), FlowProfile.uniform([400.0] * N_LANES),
                    controller, seed=3, horizon_s=300)
    decisions = len(tracer.durations["runner.decide"])
    assert len(tracer.durations["bundle.load"]) == 1
    assert decisions > 0
    assert len(tracer.durations["staterep.kplanes"]) == decisions
