"""Learning agent tests: advantage estimation, the clipped surrogate and its
gradients, rollout/replay plumbing, the policy-gradient and Q-learning
trainers on a toy task, the state autoencoder, and bundle persistence."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsclab.agents.autoencoder import (
    CANONICAL_LATENTS,
    collect_state_buffer,
    load_autoencoder,
    reconstruction_mse,
    save_autoencoder,
    train_autoencoder,
)
from tsclab.agents.bundle import PolicyBundle
from tsclab.agents.dqn import (
    DqnConfig,
    ReplayBuffer,
    epsilon_at,
    train_dqn,
)
from tsclab.agents.ppo import (
    MiniBatch,
    PpoConfig,
    RolloutBuffer,
    clipped_objective,
    compute_gae,
    normalize_advantages,
    ppo_surrogate,
    train_ppo,
)
from tsclab.envs import SignalControlEnv, run_to_decision
from tsclab.errors import ConfigurationError, DivergenceError
from tsclab.neural import Mlp, log_softmax, softmax
from tsclab.rewards import RewardSpec
from tsclab.sim import (FlowProfile, IntersectionLayout, N_LANES, PhasePlan,
                        apply_action, at_decision_point, new_simulation)
from tsclab.staterep import ExpandedObservation, KPlanesParams, StateNormalizers
from tsclab.weights import save_arrays


# -- advantage estimation --------------------------------------------------------


def test_gae_single_step():
    adv, ret = compute_gae([1.0], [0.0], 0.0, gamma=0.99, lam=0.95)
    assert adv[0] == pytest.approx(1.0, abs=1e-15)
    assert ret[0] == pytest.approx(1.0, abs=1e-15)


def test_gae_lambda_zero_is_one_step_td():
    rng = np.random.Generator(np.random.PCG64(0))
    r = rng.normal(size=20)
    v = rng.normal(size=20)
    next_value = 0.7
    adv, _ = compute_gae(r, v, next_value, gamma=0.9, lam=0.0)
    v_next = np.append(v[1:], next_value)
    np.testing.assert_allclose(adv, r + 0.9 * v_next - v, atol=1e-12)


def test_gae_three_step_hand_recursion():
    adv, ret = compute_gae([1.0, 0.0, 1.0], [0.5, 0.5, 0.5], 0.0,
                           gamma=0.99, lam=0.95)
    d2 = 1.0 + 0.0 - 0.5
    d1 = 0.0 + 0.99 * 0.5 - 0.5
    d0 = 1.0 + 0.99 * 0.5 - 0.5
    a2 = d2
    a1 = d1 + 0.99 * 0.95 * a2
    a0 = d0 + 0.99 * 0.95 * a1
    np.testing.assert_allclose(adv, [a0, a1, a2], atol=1e-12)
    np.testing.assert_allclose(ret, adv + 0.5, atol=1e-12)


def test_gae_lambda_one_matches_discounted_returns():
    rng = np.random.Generator(np.random.PCG64(5))
    n = 50
    r = rng.normal(size=n)
    v = rng.normal(size=n)
    next_value = -0.3
    gamma = 0.97
    _, ret = compute_gae(r, v, next_value, gamma=gamma, lam=1.0)
    expected = np.empty(n)
    acc = next_value
    for t in range(n - 1, -1, -1):
        acc = r[t] + gamma * acc
        expected[t] = acc
    np.testing.assert_allclose(ret, expected, atol=1e-10)


def test_gae_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        compute_gae([1.0, 2.0], [0.0], 0.0, 0.99, 0.95)
    with pytest.raises(ValueError):
        compute_gae(np.ones((2, 2)), np.ones((2, 2)), 0.0, 0.99, 0.95)


def test_normalize_advantages_moments():
    rng = np.random.Generator(np.random.PCG64(3))
    adv = normalize_advantages(rng.normal(loc=5.0, scale=3.0, size=512))
    assert abs(adv.mean()) < 1e-9
    assert abs(adv.std() - 1.0) < 1e-6


# -- clipped surrogate -----------------------------------------------------------


def test_clipped_objective_reference_points():
    assert clipped_objective(2.0, -1.0, 0.2) == pytest.approx(-2.0, abs=1e-15)
    assert clipped_objective(1.5, 1.0, 0.2) == pytest.approx(1.2, abs=1e-15)
    assert clipped_objective(0.5, 1.0, 0.2) == pytest.approx(0.5, abs=1e-15)
    assert clipped_objective(1.0, 1.0, 0.2) == pytest.approx(1.0, abs=1e-15)


@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=300, deadline=None)
def test_clipped_objective_never_exceeds_unclipped(ratio, advantage, epsilon):
    value = float(clipped_objective(ratio, advantage, epsilon))
    assert value <= ratio * advantage + 1e-15
    clipped = min(max(ratio, 1.0 - epsilon), 1.0 + epsilon) * advantage
    assert value == min(ratio * advantage, clipped)


def _surrogate_batch(seed, n=8, obs_dim=4, n_actions=3, offset_scale=0.3):
    rng = np.random.Generator(np.random.PCG64(seed))
    policy = Mlp([obs_dim, 8, n_actions], "tanh", seed=seed)
    value_net = Mlp([obs_dim, 8, 1], "tanh", seed=seed + 1)
    obs = rng.normal(size=(n, obs_dim))
    actions = rng.integers(0, n_actions, size=n)
    logp = log_softmax(policy.predict(obs))[np.arange(n), actions]
    old_log_probs = logp - rng.normal(scale=offset_scale, size=n)
    batch = MiniBatch(
        obs=obs,
        actions=actions,
        old_log_probs=old_log_probs,
        advantages=rng.normal(size=n),
        returns=rng.normal(size=n),
    )
    return batch, policy, value_net


def test_surrogate_identity_policy_has_unit_ratios():
    batch, policy, value_net = _surrogate_batch(seed=2, offset_scale=0.0)
    res = ppo_surrogate(batch, policy, value_net, clip_epsilon=0.2)
    assert res.mean_ratio_dev == 0.0
    assert res.clip_fraction == 0.0
    assert res.policy_loss == pytest.approx(-float(batch.advantages.mean()),
                                            abs=1e-12)


def test_surrogate_flags_nonfinite_ratios():
    batch, policy, value_net = _surrogate_batch(seed=2)
    batch.old_log_probs[0] = -np.inf
    with pytest.raises(DivergenceError):
        ppo_surrogate(batch, policy, value_net, clip_epsilon=0.2)


def _fd_gradient(f, flat, h=1e-5):
    out = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        up = f(bumped)
        bumped[i] -= 2 * h
        down = f(bumped)
        out[i] = (up - down) / (2 * h)
    return out


def _rel_err(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_surrogate_gradients_match_finite_differences():
    eps = 0.2
    ent_coef = 0.01
    val_coef = 0.5
    batch = policy = value_net = None
    for seed in range(50):
        batch, policy, value_net = _surrogate_batch(seed=seed)
        logp = log_softmax(policy.predict(batch.obs))[
            np.arange(len(batch.actions)), batch.actions]
        ratio = np.exp(logp - batch.old_log_probs)
        # keep every sample away from the clip corners and zero advantage so
        # the objective is differentiable around this parameter point
        if (np.abs(ratio - (1 - eps)) > 1e-2).all() \
                and (np.abs(ratio - (1 + eps)) > 1e-2).all() \
                and (np.abs(batch.advantages) > 1e-3).all():
            break
    else:
        pytest.fail("no kink-free batch found")

    res = ppo_surrogate(batch, policy, value_net, eps, val_coef, ent_coef)
    n = batch.obs.shape[0]
    rows = np.arange(n)

    def policy_part(flat):
        net = policy.copy()
        net.set_flat(flat)
        logp_all = log_softmax(net.predict(batch.obs))
        probs = np.exp(logp_all)
        r = np.exp(logp_all[rows, batch.actions] - batch.old_log_probs)
        objective = clipped_objective(r, batch.advantages, eps)
        entropy = -np.sum(probs * logp_all, axis=1)
        return -float(objective.mean()) - ent_coef * float(entropy.mean())

    analytic = np.concatenate([g.ravel() for pair in res.policy_grads for g in pair])
    numeric = _fd_gradient(policy_part, policy.get_flat())
    assert _rel_err(analytic, numeric) < 1e-4

    def value_part(flat):
        net = value_net.copy()
        net.set_flat(flat)
        err = net.predict(batch.obs)[:, 0] - batch.returns
        return val_coef * float(np.mean(err * err))

    analytic_v = np.concatenate([g.ravel() for pair in res.value_grads for g in pair])
    numeric_v = _fd_gradient(value_part, value_net.get_flat())
    assert _rel_err(analytic_v, numeric_v) < 1e-4


# -- rollout buffer --------------------------------------------------------------


def test_rollout_buffer_lifecycle():
    buf = RolloutBuffer(4, 2)
    for i in range(4):
        buf.add(np.array([i, i]), i % 3, -0.1, 0.5, 0.2)
    assert buf.full
    with pytest.raises(ValueError):
        buf.add(np.zeros(2), 0, 0.0, 0.0, 0.0)
    buf.finalize(0.0, 0.99, 0.95)
    assert abs(buf.advantages.mean()) < 1e-9
    rng = np.random.Generator(np.random.PCG64(0))
    batches = list(buf.minibatches(2, rng))
    assert [len(b.actions) for b in batches] == [2, 2]
    seen = np.sort(np.concatenate([b.obs[:, 0] for b in batches]))
    np.testing.assert_array_equal(seen, [0.0, 1.0, 2.0, 3.0])
    buf.reset()
    assert not buf.full and buf.advantages is None


def test_rollout_buffer_order_checks():
    buf = RolloutBuffer(3, 2)
    with pytest.raises(ValueError):
        buf.finalize(0.0, 0.99, 0.95)
    with pytest.raises(ValueError):
        next(buf.minibatches(2, np.random.Generator(np.random.PCG64(0))))


def test_ppo_config_validation():
    for bad in (
        dict(gamma=1.0),
        dict(gamma=0.0),
        dict(gae_lambda=0.0),
        dict(gae_lambda=1.5),
        dict(clip_epsilon=0.0),
        dict(clip_epsilon=1.0),
        dict(batch_size=0),
        dict(batch_size=300, n_steps=200),
        dict(n_epochs=0),
        dict(learning_rate=-1e-3),
        dict(total_timesteps=-1),
    ):
        with pytest.raises(ConfigurationError):
            PpoConfig(**bad)
    assert PpoConfig(gae_lambda=1.0).gae_lambda == 1.0


# -- decision driver -------------------------------------------------------------


@st.composite
def driver_scenarios(draw):
    g_min = draw(st.integers(1, 20))
    g_max = g_min + draw(st.integers(0, 40))
    plan = PhasePlan(
        programmed_green_s=tuple(draw(st.floats(g_min, g_max)) for _ in range(4)),
        yellow_s=draw(st.integers(1, 8)),
        g_min_s=g_min,
        g_max_s=g_max,
        delta_time_s=draw(st.integers(1, 15)),
    )
    # idle lanes up to well past the 1800 veh/h saturation flow
    flows = FlowProfile.uniform([draw(st.floats(0.0, 2500.0)) for _ in range(N_LANES)])
    return plan, flows, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=50, deadline=None)
@given(driver_scenarios())
def test_run_to_decision_reaches_decisions_within_yellow_plus_g_max(scenario):
    plan, flows, seed = scenario
    sim = new_simulation(IntersectionLayout(), plan, flows, seed)
    actions = np.random.Generator(np.random.PCG64(seed))
    horizon = 2000
    flags = []  # per tick since the last decision: did it end on a decision point

    def on_tick(report):
        assert report.tick == sim.clock
        flags.append(at_decision_point(sim))

    while run_to_decision(sim, horizon, on_tick):
        assert flags[-1] and not any(flags[:-1])
        assert len(flags) <= plan.yellow_s + plan.g_max_s
        assert sim.clock < horizon
        flags.clear()
        apply_action(sim, int(actions.integers(0, 3)))
    assert sim.clock == horizon
    assert not any(flags[:-1])


# -- trainers on environments ----------------------------------------------------


def traffic_env_factory(rate=300.0):
    layout = IntersectionLayout()
    plan = PhasePlan()
    flows = FlowProfile.uniform([rate] * N_LANES)

    def factory(seed):
        return SignalControlEnv(layout, plan, flows, ExpandedObservation(),
                                RewardSpec(), seed)

    return factory


def test_train_ppo_zero_budget_returns_untrained_bundle():
    result = train_ppo(traffic_env_factory(), PpoConfig(total_timesteps=0), seed=1)
    assert result.log == []
    assert result.cycle_records == []
    assert result.bundle.algo == "ppo"
    assert result.bundle.repr_kind == "expanded"
    assert result.bundle.reward_kind == "queue"
    assert result.bundle.policy.layer_sizes == (19, 64, 64, 3)
    assert result.bundle.value.layer_sizes == (19, 64, 64, 1)


def test_train_ppo_deterministic():
    cfg = PpoConfig(learning_rate=1e-3, n_steps=30, batch_size=15, n_epochs=2,
                    total_timesteps=400)

    def run():
        return train_ppo(traffic_env_factory(), cfg, seed=7)

    a, b = run(), run()
    np.testing.assert_array_equal(a.bundle.policy.get_flat(),
                                  b.bundle.policy.get_flat())
    np.testing.assert_array_equal(a.bundle.value.get_flat(),
                                  b.bundle.value.get_flat())
    assert a.log == b.log
    assert a.cycle_records == b.cycle_records
    assert len(a.log) >= 2


class BanditEnv:
    """Two-context bandit where action 0 always pays 1; the optimal policy is
    trivially known, which makes it an oracle for the trainers."""

    obs_dim = 2
    n_actions = 3

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.clock_s = 0

    def _draw(self):
        obs = np.zeros(2)
        obs[int(self.rng.integers(2))] = 1.0
        return obs

    def reset(self):
        self.clock_s = 0
        return self._draw()

    def step(self, action):
        reward = 1.0 if action == 0 else 0.0
        self.clock_s += 1
        return self._draw(), reward, {}


def test_train_ppo_learns_bandit():
    cfg = PpoConfig(learning_rate=3e-3, n_steps=64, batch_size=32,
                    total_timesteps=4000, hidden_sizes=(16,))
    result = train_ppo(BanditEnv, cfg, seed=0)
    for context in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        probs = softmax(result.bundle.policy.predict(context))
        assert probs[0] > 0.95
    rewards = [row.mean_reward for row in result.log]
    assert rewards[-1] > rewards[0]


# -- autoencoder -----------------------------------------------------------------


def constant_buffer(n=256):
    vec = np.zeros(19)
    vec[1] = 1.0
    vec[7:11] = (0.2, 0.4, 0.1, 0.3)
    vec[15:19] = 0.5
    return np.tile(vec, (n, 1))


def test_autoencoder_fits_constant_buffer():
    states = constant_buffer()
    result = train_autoencoder(states, k=8, epochs=150, lr=1e-2, seed=0)
    assert result.final_mse < 1e-6
    assert result.mse_history[0] > result.final_mse
    assert result.final_mse == result.mse_history[-1]
    recon = reconstruction_mse(result.encoder, result.decoder, states)
    assert recon == pytest.approx(result.final_mse, abs=1e-12)


def test_autoencoder_zero_epochs_reports_initial_mse():
    states = constant_buffer(32)
    result = train_autoencoder(states, k=4, epochs=0, seed=1)
    assert len(result.mse_history) == 1
    assert result.final_mse == result.mse_history[0]
    assert result.encoder.layer_sizes == (19, 32, 4)
    assert result.decoder.layer_sizes == (4, 32, 19)


def test_autoencoder_validation():
    with pytest.raises(ConfigurationError):
        train_autoencoder(np.zeros((10, 8)), k=4)
    with pytest.raises(ConfigurationError):
        train_autoencoder(np.zeros((0, 19)), k=4)
    with pytest.raises(ConfigurationError):
        train_autoencoder(constant_buffer(8), k=0)
    with pytest.raises(ConfigurationError):
        train_autoencoder(constant_buffer(8), k=True)
    with pytest.raises(ConfigurationError):
        train_autoencoder(constant_buffer(8), k="4")
    with pytest.raises(ConfigurationError):
        train_autoencoder(constant_buffer(8), k=4, epochs=-1)


def test_autoencoder_warns_on_unusual_latent(caplog):
    with caplog.at_level(logging.WARNING, logger="tsclab.agents.autoencoder"):
        train_autoencoder(constant_buffer(8), k=5, epochs=0)
    assert any("5" in rec.getMessage() for rec in caplog.records)
    assert 5 not in CANONICAL_LATENTS


def test_autoencoder_save_load_round_trip(tmp_path):
    result = train_autoencoder(constant_buffer(16), k=8, epochs=0, seed=3)
    path = tmp_path / "ae.bin"
    save_autoencoder(result, path, seed=3)
    encoder, decoder = load_autoencoder(path)
    assert encoder.layer_sizes == (19, 32, 8)
    assert decoder.layer_sizes == (8, 32, 19)
    for orig, loaded in zip(result.encoder.parameters(), encoder.parameters()):
        np.testing.assert_array_equal(loaded, orig.astype(np.float32))


def test_load_autoencoder_rejects_other_files(tmp_path):
    path = tmp_path / "planes.bin"
    save_arrays(path, [np.ones((2, 2, 1))], tag="kind=kplanes", seed=0)
    with pytest.raises(ConfigurationError):
        load_autoencoder(path)


def test_collect_state_buffer_shape_and_determinism():
    flows = FlowProfile.uniform([300.0] * N_LANES)
    states = collect_state_buffer(50, flows, seed=4)
    assert states.shape == (50, 19)
    assert (states >= -1.0).all() and (states <= 1.0).all()
    again = collect_state_buffer(50, flows, seed=4)
    np.testing.assert_array_equal(states, again)
    other = collect_state_buffer(50, flows, seed=5)
    assert not np.array_equal(states, other)
    with pytest.raises(ConfigurationError):
        collect_state_buffer(0, flows)


# -- deep Q baseline -------------------------------------------------------------


def test_dqn_config_validation():
    for bad in (
        dict(replay_capacity=10, batch_size=20),
        dict(batch_size=0, replay_capacity=10),
        dict(gamma=1.0),
        dict(epsilon_start=0.5, epsilon_end=0.8),
        dict(epsilon_start=1.5),
        dict(epsilon_decay_steps=0),
        dict(target_sync_interval=0),
        dict(log_interval_steps=0),
    ):
        with pytest.raises(ConfigurationError):
            DqnConfig(**bad)


def test_epsilon_schedule():
    cfg = DqnConfig()
    assert epsilon_at(cfg, 0) == 1.0
    assert epsilon_at(cfg, 10_000) == pytest.approx(0.525)
    assert epsilon_at(cfg, 20_000) == pytest.approx(0.05, abs=1e-12)
    assert epsilon_at(cfg, 10 ** 9) == pytest.approx(0.05, abs=1e-12)
    assert epsilon_at(cfg, -5) == 1.0


def test_replay_buffer_is_circular():
    buf = ReplayBuffer(3, 1)
    assert len(buf) == 0
    for i in range(5):
        buf.add(np.array([float(i)]), i, float(i), np.array([float(i)]))
    assert len(buf) == 3
    assert sorted(buf.obs[:, 0]) == [2.0, 3.0, 4.0]
    obs, actions, rewards, next_obs = buf.sample(
        8, np.random.Generator(np.random.PCG64(0)))
    assert obs.shape == (8, 1) and actions.shape == (8,)
    assert set(actions.tolist()) <= {2, 3, 4}


class RecordingEnv(BanditEnv):
    """Bandit variant that logs every action it receives."""

    def __init__(self, seed):
        super().__init__(seed)
        self.taken = []

    def step(self, action):
        self.taken.append(action)
        return super().step(action)


def test_dqn_explores_uniformly_before_updates():
    holder = {}

    def factory(seed):
        holder["env"] = RecordingEnv(seed)
        return holder["env"]

    cfg = DqnConfig(replay_capacity=50_000, batch_size=50_000,
                    epsilon_start=1.0, epsilon_end=1.0,
                    total_timesteps=30_000, log_interval_steps=10_000)
    result = train_dqn(factory, cfg, seed=9)
    taken = np.array(holder["env"].taken)
    assert len(taken) == 30_000
    freqs = np.bincount(taken, minlength=3) / len(taken)
    np.testing.assert_allclose(freqs, 1 / 3, atol=0.02)
    # the exploration column reports the (constant) epsilon
    assert all(row.policy_entropy == 1.0 for row in result.log)
    assert len(result.log) == 3


def test_train_dqn_learns_bandit():
    cfg = DqnConfig(learning_rate=1e-3, replay_capacity=2000, batch_size=32,
                    target_sync_interval=250, epsilon_decay_steps=5000,
                    total_timesteps=6000, hidden_sizes=(16,),
                    log_interval_steps=1000)
    result = train_dqn(BanditEnv, cfg, seed=0)
    assert result.bundle.algo == "dqn"
    assert result.bundle.value is None
    for context in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        assert result.bundle.greedy_action(context) == 0


def test_train_dqn_deterministic():
    cfg = DqnConfig(replay_capacity=500, batch_size=16, epsilon_decay_steps=500,
                    total_timesteps=800, hidden_sizes=(8,),
                    log_interval_steps=400)
    a = train_dqn(BanditEnv, cfg, seed=3)
    b = train_dqn(BanditEnv, cfg, seed=3)
    np.testing.assert_array_equal(a.bundle.policy.get_flat(),
                                  b.bundle.policy.get_flat())
    assert a.log == b.log


# -- policy bundle persistence ---------------------------------------------------


def test_bundle_round_trip_full(tmp_path):
    bundle = PolicyBundle(
        algo="ppo",
        repr_kind="kplanes",
        reward_kind="queue",
        policy=Mlp([68, 64, 64, 3], "tanh", seed=1),
        value=Mlp([68, 64, 64, 1], "tanh", seed=2),
        ae_encoder=Mlp([19, 32, 8], "relu", seed=3),
        kplanes=KPlanesParams(seed=7),
        norms=StateNormalizers(cycles_max=36.0),
        seed=11,
    )
    path = tmp_path / "policy.bin"
    bundle.save(path)
    loaded = PolicyBundle.load(path)
    assert (loaded.algo, loaded.repr_kind, loaded.reward_kind) == (
        "ppo", "kplanes", "queue")
    assert loaded.seed == 11
    assert loaded.norms == bundle.norms
    assert loaded.policy.layer_sizes == (68, 64, 64, 3)
    assert loaded.policy.hidden_activation == "tanh"
    assert loaded.value.layer_sizes == (68, 64, 64, 1)
    assert loaded.ae_encoder.layer_sizes == (19, 32, 8)
    assert loaded.kplanes.seed == 7
    for a, b in zip(bundle.kplanes.planes, loaded.kplanes.planes):
        np.testing.assert_array_equal(a, b)
    for orig, got in zip(bundle.policy.parameters(), loaded.policy.parameters()):
        np.testing.assert_array_equal(got, orig.astype(np.float32))
    obs = np.zeros(68)
    assert loaded.greedy_action(obs) in (0, 1, 2)


def test_bundle_round_trip_minimal(tmp_path):
    bundle = PolicyBundle(algo="dqn", repr_kind="dqn40", reward_kind="queue",
                          policy=Mlp([40, 16, 3], "relu", seed=0))
    path = tmp_path / "q.bin"
    bundle.save(path)
    loaded = PolicyBundle.load(path)
    assert loaded.value is None
    assert loaded.ae_encoder is None
    assert loaded.kplanes is None
    assert loaded.policy.hidden_activation == "relu"


def test_bundle_load_rejects_other_files(tmp_path):
    result = train_autoencoder(constant_buffer(8), k=4, epochs=0)
    path = tmp_path / "ae.bin"
    save_autoencoder(result, path)
    with pytest.raises(ConfigurationError):
        PolicyBundle.load(path)
