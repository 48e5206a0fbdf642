"""The benchmark's span tracer must find every name it wraps in tsclab.

``perfbench/spans.py`` wraps tsclab functions by module and attribute name,
so a rename in ``src``, or a path that stops calling a wrapped name, breaks
traced benchmark runs; these tests make the suite fail the same way.  They
only read ``perfbench/``.
"""

import importlib.util
from pathlib import Path

from conftest import uniform_profile
import tsclab.envs
import tsclab.harness.cli
import tsclab.sim
from tsclab.agents.bundle import PolicyBundle
from tsclab.agents.ppo import PpoConfig
from tsclab.baselines import DynamicWebsterController, FixedTimeController
from tsclab.envs import SignalControlEnv
from tsclab.harness.runner import PolicyController, run_episode
from tsclab.neural import Mlp
from tsclab.rewards import RewardSpec
from tsclab.sim import IntersectionLayout, N_LANES, PhasePlan, SimState
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
        flows = uniform_profile([400.0] * N_LANES)
        sim = SimState(IntersectionLayout(), PhasePlan(), flows, 3)
        run_episode(sim, FixedTimeController(), 300)
    finally:
        tracer.uninstall()
    assert tsclab.envs.step is raw_step and tsclab.sim.step is raw_step
    assert len(tracer.durations["sim.step"]) == 300
    # an untraced twin with the same seed draws the same arrivals
    twin = SimState(IntersectionLayout(), PhasePlan(), flows, 3)
    entered = sum(sum(raw_step(twin).arrivals) for _ in range(300))
    assert tracer.counters["sim.vehicles"] == entered > 0


def test_tracer_times_every_webster_tick_and_recompute():
    # the window work stays inside on_tick, and each recompute solves the
    # cycle formula once, so the two spans count ticks and log rows
    layout, plan = IntersectionLayout(), PhasePlan()
    sim = SimState(layout, plan, uniform_profile([400.0] * N_LANES), 3)
    controller = DynamicWebsterController(layout, plan)
    with load_spans().Tracer() as tracer:
        run_episode(sim, controller, 300)
    assert len(tracer.durations["baselines.webster_tick"]) == 300
    assert (len(tracer.durations["baselines.webster_recompute"])
            == len(controller.recompute_log) > 0)


def test_tracer_times_a_loaded_kplanes_policy(tmp_path):
    path = tmp_path / "policy.tscw"
    PolicyBundle("ppo", "queue", Mlp([68, 8, 3], "tanh", seed=0), None,
                 make_observation("kplanes")).save(path)
    tracer = load_spans().Tracer()
    with tracer:
        controller = PolicyController(PolicyBundle.load(path), sample_seed=0)
        run_episode(SimState(IntersectionLayout(), PhasePlan(),
                             uniform_profile([400.0] * N_LANES), 3), controller, 300)
    decisions = len(tracer.durations["runner.decide"])
    assert len(tracer.durations["bundle.load"]) == 1
    assert decisions > 0
    assert len(tracer.durations["staterep.kplanes"]) == decisions


def test_tracer_pairs_each_ppo_update_with_its_two_adam_steps():
    # ppo.update spans pair the surrogate with the policy and the value Adam
    # step that follow it; a fused optimizer or a renamed trainer breaks them
    env = SignalControlEnv(IntersectionLayout(), PhasePlan(),
                           uniform_profile([400.0] * N_LANES), make_observation("expanded"),
                           RewardSpec(), 0)

    def config(budget_s):
        return PpoConfig(n_steps=10, batch_size=5, n_epochs=3, hidden_sizes=(8,),
                         total_timesteps=budget_s)

    # training stops after the first rollout that ends at or past its budget;
    # each run resets the environment
    env.reset()
    one_rollout = tsclab.harness.cli.train_ppo(env, config(env.clock_s + 1), 0)
    cfg = config(int(one_rollout.log[0].sim_time_s) + 1)
    with load_spans().Tracer() as tracer:
        result = tsclab.harness.cli.train_ppo(env, cfg, 0)
    updates = len(result.log) * cfg.n_epochs * (cfg.n_steps // cfg.batch_size)
    assert len(result.log) == 2
    assert len(tracer.durations["ppo.train"]) == 1
    assert len(tracer.durations["ppo.surrogate"]) == updates
    assert len(tracer.durations["ppo.update"]) == tracer.counters["work.updates"] == updates
    assert len(tracer.durations["neural.adam"]) == 2 * updates


def test_tracer_counts_one_adam_step_per_autoencoder_minibatch():
    # the encoder and decoder share one parameter vector, so a minibatch is
    # one Adam step after a forward and a backward through each network
    flows = uniform_profile([400.0] * N_LANES)
    with load_spans().Tracer() as tracer:
        states = tsclab.harness.cli.collect_state_buffer(300, flows, seed=0)
        tsclab.harness.cli.train_autoencoder(
            states, tsclab.harness.cli.untrained_autoencoder(8, seed=0), epochs=2)
    minibatches = 3 * 2  # 300 states in minibatches of 128, 128 and 44, twice
    assert len(tracer.durations["autoencoder.collect"]) == 1
    assert len(tracer.durations["autoencoder.fit"]) == 1
    assert len(tracer.durations["neural.adam"]) == tracer.counters["work.updates"] == minibatches
    assert len(tracer.durations["neural.forward"]) == 2 * minibatches
    assert len(tracer.durations["neural.backward"]) == 2 * minibatches
    assert "ppo.update" not in tracer.durations
