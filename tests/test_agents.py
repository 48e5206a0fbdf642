"""Learning agent tests: advantage estimation, the clipped surrogate and its
gradients, replay plumbing, the policy-gradient and Q-learning
trainers on a toy task, the state autoencoder, and bundle persistence."""

import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rewrite_weight_file, softmax, step_crossings, uniform_profile
from tsclab.agents.autoencoder import (
    collect_state_buffer,
    load_autoencoder,
    reconstruction_mse,
    save_autoencoder,
    train_autoencoder,
    untrained_autoencoder,
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
    SurrogateResult,
    clipped_objective,
    compute_gae,
    normalize_advantages,
    ppo_surrogate,
    train_ppo,
)
from tsclab.envs import SignalControlEnv, run_to_decision
from tsclab.errors import ConfigurationError, DivergenceError
from tsclab.harness.runner import run_episode
from tsclab.neural import Adam, Mlp, log_softmax
from tsclab.rewards import REWARD_KINDS, RewardSpec
from tsclab.sim import (FREE_FLOW_SPEED_MS, FlowProfile, IntersectionLayout, N_LANES,
                        PHASE_SERVED, PhasePlan, SimState, apply_action, at_decision_point)
from tsclab.staterep import (QUEUE_MAX, REPRESENTATION_KINDS, ExpandedObservation,
                             LatentObservation, make_observation)
from tsclab.weights import load_arrays, mlp_from_arrays, save_arrays


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
    res = ppo_surrogate(batch, policy, value_net, clip_epsilon=0.2, value_coef=0.5,
                        entropy_coef=0.01)
    assert res.mean_ratio_dev == 0.0
    assert res.clip_fraction == 0.0
    assert res.policy_loss == pytest.approx(-float(batch.advantages.mean()),
                                            abs=1e-12)


def test_surrogate_flags_nonfinite_ratios():
    batch, policy, value_net = _surrogate_batch(seed=2)
    batch.old_log_probs[0] = -np.inf
    with pytest.raises(DivergenceError):
        ppo_surrogate(batch, policy, value_net, clip_epsilon=0.2, value_coef=0.5,
                      entropy_coef=0.01)


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
        net.flat[...] = flat
        logp_all = log_softmax(net.predict(batch.obs))
        probs = np.exp(logp_all)
        r = np.exp(logp_all[rows, batch.actions] - batch.old_log_probs)
        objective = clipped_objective(r, batch.advantages, eps)
        entropy = -np.sum(probs * logp_all, axis=1)
        return -float(objective.mean()) - ent_coef * float(entropy.mean())

    analytic = res.policy_grads
    numeric = _fd_gradient(policy_part, policy.flat)
    assert _rel_err(analytic, numeric) < 1e-4

    def value_part(flat):
        net = value_net.copy()
        net.flat[...] = flat
        err = net.predict(batch.obs)[:, 0] - batch.returns
        return val_coef * float(np.mean(err * err))

    analytic_v = res.value_grads
    numeric_v = _fd_gradient(value_part, value_net.flat)
    assert _rel_err(analytic_v, numeric_v) < 1e-4


def _reference_surrogate(batch, policy, value_net, clip_epsilon, value_coef,
                         entropy_coef):
    """``ppo_surrogate`` written plainly, as before it computed each quantity
    once: ``np.max``/``np.sum`` log-softmax, both branches through
    ``np.clip``, a one-hot upstream, the full input gradient and ``np.mean``."""
    n = batch.obs.shape[0]
    z = policy.forward(batch.obs)
    z = z - np.max(z, axis=-1, keepdims=True)
    logp_all = z - np.log(np.sum(np.exp(z), axis=-1, keepdims=True))
    probs = np.exp(logp_all)
    rows = np.arange(n)
    ratio = np.exp(logp_all[rows, batch.actions] - batch.old_log_probs)
    adv = batch.advantages
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon) * adv
    per_sample = np.minimum(unclipped, clipped)
    dobj_dratio = np.where(unclipped <= clipped, adv, 0.0)
    onehot = np.zeros_like(probs)
    onehot[rows, batch.actions] = 1.0
    coef = (-1.0 / n) * dobj_dratio * ratio
    upstream = coef[:, None] * (onehot - probs)
    entropy = -np.sum(probs * logp_all, axis=1)
    upstream += (entropy_coef / n) * probs * (logp_all + entropy[:, None])
    policy_grads, _ = policy.backward(upstream)
    v_err = value_net.forward(batch.obs)[:, 0] - batch.returns
    value_grads, _ = value_net.backward((2.0 * value_coef / n) * v_err[:, None])
    return SurrogateResult(
        policy_loss=-float(per_sample.mean()),
        value_loss=float(np.mean(v_err * v_err)),
        entropy=float(entropy.mean()),
        policy_grads=policy_grads,
        value_grads=value_grads,
        mean_ratio_dev=float(np.mean(np.abs(ratio - 1.0))),
        clip_fraction=float(np.mean(np.abs(ratio - 1.0) > clip_epsilon)),
    )


@st.composite
def surrogate_cases(draw):
    """A minibatch, its networks and coefficients.  Ratio offsets and
    advantages include exact zeros, and about half the cases take the clip
    epsilon from one sample's ratio, so that sample sits exactly on 1 +- eps."""
    n = draw(st.integers(1, 12))
    obs_dim, n_actions = draw(st.integers(1, 5)), draw(st.integers(2, 4))
    activation = draw(st.sampled_from(("tanh", "relu")))
    seed = draw(st.integers(0, 2**32 - 1))
    policy = Mlp([obs_dim, 6, n_actions], activation, seed=seed)
    value_net = Mlp([obs_dim, 6, 1], activation, seed=seed + 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    obs = draw(st.sampled_from((0.1, 1.0, 10.0))) * rng.normal(size=(n, obs_dim))
    actions = rng.integers(0, n_actions, size=n)
    offsets = np.array(draw(st.lists(st.floats(-0.6, 0.6), min_size=n, max_size=n)))
    advantages = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    logp = log_softmax(policy.predict(obs))[np.arange(n), actions]
    old_log_probs = logp - offsets
    ratio = np.exp(logp - old_log_probs)
    edge = draw(st.integers(0, n - 1))
    if draw(st.booleans()) and ratio[edge] != 1.0:
        # within [0.5, 2] both ratio - 1 and 1 -+ (that difference) are exact
        eps = abs(ratio[edge] - 1.0)
        assert ratio[edge] in (1.0 - eps, 1.0 + eps)
    else:
        eps = draw(st.floats(0.01, 0.9))
    batch = MiniBatch(obs, actions, old_log_probs, advantages, rng.normal(size=n))
    coefs = draw(st.tuples(st.sampled_from((0.0, 0.5, 1.0)),
                           st.sampled_from((0.0, 0.005, 0.1))))
    return batch, policy, value_net, eps, *coefs


@settings(max_examples=200, deadline=None)
@given(surrogate_cases())
def test_surrogate_matches_the_plain_reference_bitwise(case):
    batch, policy, value_net, eps, value_coef, entropy_coef = case
    # the reference runs on copies: the result's gradients are the nets' own
    # grad vectors, which a backward on the same nets would overwrite
    ref = _reference_surrogate(batch, policy.copy(), value_net.copy(), eps, value_coef,
                               entropy_coef)
    got = ppo_surrogate(batch, policy, value_net, eps, value_coef, entropy_coef)
    assert got.policy_grads is policy.grad and got.value_grads is value_net.grad
    assert not np.shares_memory(got.policy_grads, ref.policy_grads)
    assert not np.shares_memory(got.value_grads, ref.value_grads)
    assert got.policy_grads.tobytes() == ref.policy_grads.tobytes()
    assert got.value_grads.tobytes() == ref.value_grads.tobytes()
    for name in ("policy_loss", "value_loss", "entropy", "mean_ratio_dev",
                 "clip_fraction"):
        assert getattr(got, name) == getattr(ref, name), name


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
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(value_coef=float("nan")),
        dict(value_coef=float("inf")),
        dict(value_coef=-0.5),
        dict(activation="sigmoid"),
        dict(hidden_sizes=(0,)),
        dict(hidden_sizes=(8, -1)),
        dict(entropy_coef=float("nan")),
        dict(entropy_coef=float("-inf")),
        dict(entropy_coef=-0.01),
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
        greens_s=tuple(draw(st.floats(g_min, g_max)) for _ in range(4)),
        yellow_s=draw(st.integers(1, 8)),
        g_min_s=g_min,
        g_max_s=g_max,
        delta_time_s=draw(st.integers(1, 15)),
    )
    # idle lanes up to well past the 1800 veh/h saturation flow
    flows = uniform_profile([draw(st.floats(0.0, 2500.0)) for _ in range(N_LANES)])
    return plan, flows, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=50, deadline=None)
@given(driver_scenarios())
def test_run_to_decision_reaches_decisions_within_yellow_plus_g_max(scenario):
    plan, flows, seed = scenario
    sim = SimState(IntersectionLayout(), plan, flows, seed)
    actions = np.random.Generator(np.random.PCG64(seed))
    horizon = 2000
    flags = []  # per tick since the last decision: did it end on a decision point

    def on_tick(ticked):
        assert ticked is sim
        flags.append(at_decision_point(sim))

    while run_to_decision(sim, horizon, on_tick):
        assert flags[-1] and not any(flags[:-1])
        assert len(flags) <= plan.yellow_s + plan.g_max_s
        assert sim.clock < horizon
        flags.clear()
        apply_action(sim, int(actions.integers(0, 3)))
    assert sim.clock == horizon
    assert not any(flags[:-1])


class ReplayController:
    """Plays a fixed list of actions, one per decision point."""

    def __init__(self, actions):
        self.actions = list(actions)
        self.played = 0

    def decide(self, sim):
        self.played += 1
        return self.actions[self.played - 1]


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(REWARD_KINDS), rate=st.floats(0.0, 1500.0),
       seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 150))
def test_env_cycles_equal_run_episode_replaying_its_actions(kind, rate, seed, n_steps):
    flows = FlowProfile.build({lane: [(0.0, 600.0, rate)] for lane in ("N0", "E1", "S0", "W0")},
                              regimes=[(0.0, 200.0, "high"), (200.0, 450.0, "low"),
                                       (450.0, 600.0, "medium")])
    env = SignalControlEnv(IntersectionLayout(), PhasePlan(), flows, ExpandedObservation(),
                           RewardSpec(kind=kind), seed)
    env.reset()
    actions = np.random.Generator(np.random.PCG64(seed)).integers(0, 3, n_steps).tolist()
    for action in actions:
        before = list(env.records)
        env.step(action)
        # a step only appends the cycles it completed
        assert env.records[:len(before)] == before
    replay = ReplayController(actions)
    records = run_episode(SimState(IntersectionLayout(), PhasePlan(), flows, seed), replay,
                          env.clock_s)
    assert replay.played == n_steps
    assert records == env.records
    # reset starts a new list, so a trainer's result keeps the run's records
    cycles = env.records
    env.reset()
    assert env.records == [] and cycles == records


@settings(max_examples=25, deadline=None)
@given(rate=st.floats(0.0, 1500.0), seed=st.integers(0, 2**32 - 1),
       n_steps=st.integers(1, 150))
def test_env_pressure_reward_matches_per_tick_counts(rate, seed, n_steps):
    layout, plan = IntersectionLayout(), PhasePlan()
    flows = uniform_profile([rate] * N_LANES)
    env = SignalControlEnv(layout, plan, flows, ExpandedObservation(),
                           RewardSpec(kind="pressure"), seed)
    env.reset()
    # reference: the same run on a twin simulation, counting every tick's
    # arrivals and stopline crossings; the twin ticks by hand because a
    # tick's crossings need the lanes as they were before it
    twin = SimState(layout, plan, flows, seed)
    assert run_to_decision(twin, 4000)
    actions = np.random.Generator(np.random.PCG64(seed)).integers(0, 3, n_steps).tolist()
    for action in actions:
        reward = env.step(action)[1]
        apply_action(twin, action)
        inflow = outflow = 0
        for _ in range(4000):
            outflow += sum(step_crossings(twin))
            inflow += sum(twin.arrivals)
            if at_decision_point(twin):
                break
        assert at_decision_point(twin)
        # negated pressure: outflow (crossings) minus inflow (arrivals)
        assert reward == float(outflow) - float(inflow)
    assert twin.clock == env.clock_s


# -- trainers on environments ----------------------------------------------------


def traffic_env(seed):
    return SignalControlEnv(IntersectionLayout(), PhasePlan(),
                            uniform_profile([300.0] * N_LANES), ExpandedObservation(),
                            RewardSpec(), seed)


def test_train_ppo_zero_budget_returns_untrained_bundle():
    result = train_ppo(traffic_env(1), PpoConfig(total_timesteps=0), seed=1)
    assert result.log == []
    assert result.cycle_records == []
    assert result.bundle.algo == "ppo"
    assert result.bundle.observation.kind == "expanded"
    assert result.bundle.reward_kind == "queue"
    assert result.bundle.policy.layer_sizes == (19, 64, 64, 3)
    assert result.bundle.value.layer_sizes == (19, 64, 64, 1)


def test_train_ppo_deterministic():
    cfg = PpoConfig(learning_rate=1e-3, n_steps=30, batch_size=15, n_epochs=2,
                    total_timesteps=400)

    def run():
        return train_ppo(traffic_env(7), cfg, seed=7)

    a, b = run(), run()
    np.testing.assert_array_equal(a.bundle.policy.flat, b.bundle.policy.flat)
    np.testing.assert_array_equal(a.bundle.value.flat, b.bundle.value.flat)
    assert a.log == b.log
    assert a.cycle_records == b.cycle_records
    assert len(a.log) >= 2


class BanditEnv:
    """Two-context bandit where action 0 always pays 1; the optimal policy is
    trivially known, which makes it an oracle for the trainers."""

    obs_dim = 2
    n_actions = 3
    # the contexts come from no simulator, so a bundle has no observation
    observation = None
    reward_spec = SimpleNamespace(kind="bandit")

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.clock_s = 0

    def _draw(self):
        obs = np.zeros(2)
        obs[int(self.rng.integers(2))] = 1.0
        return obs

    def reset(self):
        self.clock_s = 0
        self.records = []
        return self._draw()

    def step(self, action):
        reward = 1.0 if action == 0 else 0.0
        self.clock_s += 1
        return self._draw(), reward


def test_train_ppo_learns_bandit():
    cfg = PpoConfig(learning_rate=3e-3, n_steps=64, batch_size=32,
                    total_timesteps=4000, hidden_sizes=(16,))
    result = train_ppo(BanditEnv(0), cfg, seed=0)
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
    result = train_autoencoder(states, untrained_autoencoder(8, seed=0), epochs=150, lr=1e-2)
    assert result.final_mse < 1e-6
    assert result.initial_mse > result.final_mse
    recon = reconstruction_mse(result.encoder, result.decoder, states)
    assert recon == result.final_mse


def test_autoencoder_zero_epochs_reports_initial_mse():
    states = constant_buffer(32)
    result = train_autoencoder(states, untrained_autoencoder(4, seed=1), epochs=0)
    assert result.final_mse == result.initial_mse
    assert result.initial_mse == reconstruction_mse(result.encoder, result.decoder, states)
    assert result.encoder.layer_sizes == (19, 32, 4)
    assert result.decoder.layer_sizes == (4, 32, 19)


def one_shot_mse(encoder, decoder, states):
    """The reconstruction error with the whole buffer in one pass through
    each network."""
    err = decoder.predict(encoder.predict(states))
    err -= states
    err *= err
    return float(np.mean(np.sum(err, axis=1)))


@pytest.mark.parametrize("n", [1, 127, 128, 129, 257, 10_000])
@pytest.mark.parametrize("k", [4, 8, 32])
def test_reconstruction_mse_equals_the_one_shot_pass_on_exact_data(n, k):
    # integer weights in {-1, 0, 1} and states in 0..3 keep every product,
    # sum and square exact, so each row's sum cannot depend on how many rows
    # BLAS multiplies at once, and the blocked mean must be the one-shot
    # mean bit for bit, tail blocks of 127, 1 and 16 rows included
    rng = np.random.Generator(np.random.PCG64(100 * n + k))
    encoder = Mlp([19, 32, k], "relu", seed=0)
    decoder = Mlp([k, 32, 19], "relu", seed=1)
    for net in (encoder, decoder):
        net.flat[...] = rng.integers(-1, 2, size=net.flat.shape)
    states = rng.integers(0, 4, size=(n, 19)).astype(np.float64)
    mse = reconstruction_mse(encoder, decoder, states)
    assert mse > 0.0
    assert mse == one_shot_mse(encoder, decoder, states)


@pytest.mark.parametrize("n", [129, 257, 1000, 10_000])
@pytest.mark.parametrize("k", [4, 8, 32])
def test_reconstruction_mse_is_the_one_shot_pass_to_rounding(n, k):
    # on arbitrary floats BLAS may round a row of a 128-row block differently
    # from the same row of a longer product (it picks its kernel by the row
    # count), so the two means may differ in their last bits
    rng = np.random.Generator(np.random.PCG64(100 * n + k))
    encoder = Mlp([19, 32, k], "relu", seed=2)
    decoder = Mlp([k, 32, 19], "relu", seed=3)
    states = rng.uniform(size=(n, 19))
    assert reconstruction_mse(encoder, decoder, states) == pytest.approx(
        one_shot_mse(encoder, decoder, states), rel=4 * np.finfo(float).eps, abs=0.0)


def reference_train_autoencoder(states, k, epochs, lr=1e-3, seed=0, batch_size=128):
    """The training loop that measured the full-buffer MSE after every epoch;
    returns (encoder, decoder, per-epoch MSE history with the untrained value
    first)."""
    x = np.asarray(states, dtype=np.float64)
    s_enc, s_dec, s_shuffle = np.random.SeedSequence(seed).spawn(3)
    encoder = Mlp([19, 32, k], "relu", seed=s_enc)
    decoder = Mlp([k, 32, 19], "relu", seed=s_dec)
    enc_opt, dec_opt = Adam(encoder.flat, lr), Adam(decoder.flat, lr)
    shuffle_rng = np.random.Generator(np.random.PCG64(s_shuffle))
    history = [reconstruction_mse(encoder, decoder, x)]
    n = x.shape[0]
    for _epoch in range(epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = x[order[start:start + batch_size]]
            err = decoder.forward(encoder.forward(batch)) - batch
            dec_gradient, dz = decoder.backward((2.0 / batch.shape[0]) * err)
            enc_gradient, _ = encoder.backward(dz)
            enc_opt.step(enc_gradient)
            dec_opt.step(dec_gradient)
        history.append(reconstruction_mse(encoder, decoder, x))
    return encoder, decoder, history


@pytest.mark.parametrize("k", [4, 8])
@pytest.mark.parametrize("epochs", [0, 1, 3])
def test_autoencoder_matches_per_epoch_reference(k, epochs):
    # 300 rows in minibatches of 128: the last minibatch of each epoch holds 44
    states = np.random.Generator(np.random.PCG64(7)).uniform(0.0, 1.0, size=(300, 19))
    result = train_autoencoder(states, untrained_autoencoder(k, seed=5), epochs=epochs, lr=1e-2)
    encoder, decoder, history = reference_train_autoencoder(states, k, epochs,
                                                            lr=1e-2, seed=5)
    assert result.encoder.flat.tobytes() == encoder.flat.tobytes()
    assert result.decoder.flat.tobytes() == decoder.flat.tobytes()
    assert result.initial_mse == history[0]
    assert result.final_mse == history[-1]


def test_autoencoder_validation():
    with pytest.raises(ConfigurationError):
        train_autoencoder(np.zeros((10, 8)), untrained_autoencoder(4))
    with pytest.raises(ConfigurationError):
        train_autoencoder(np.zeros((0, 19)), untrained_autoencoder(4))
    with pytest.raises(ConfigurationError):
        untrained_autoencoder(0)
    with pytest.raises(ConfigurationError):
        untrained_autoencoder(True)
    with pytest.raises(ConfigurationError):
        untrained_autoencoder("4")
    with pytest.raises(ConfigurationError):
        train_autoencoder(constant_buffer(8), untrained_autoencoder(4), epochs=-1)
    for lr in (float("nan"), float("inf"), -1e-3):
        with pytest.raises(ConfigurationError):
            train_autoencoder(constant_buffer(8), untrained_autoencoder(4), lr=lr)


def test_autoencoder_save_load_round_trip(tmp_path):
    result = train_autoencoder(constant_buffer(16), untrained_autoencoder(8, seed=3), epochs=0)
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_weight_files_with_a_non_finite_value_fail_to_load(tmp_path, value):
    # a NaN output bias once loaded and then stopped a compare run with NaN
    # logits; +inf played on with NaN log-probs
    bundle = header_test_bundle("expanded")
    bundle.policy.biases[-1][0] = value
    path = tmp_path / "policy.tscw"
    bundle.save(path)
    with pytest.raises(ConfigurationError, match="array 4 holds a non-finite value"):
        PolicyBundle.load(path)
    result = train_autoencoder(constant_buffer(8), untrained_autoencoder(4), epochs=0)
    result.decoder.weights[0][3, 1] = value
    save_autoencoder(result, path)
    with pytest.raises(ConfigurationError, match="array 4 holds a non-finite value"):
        load_autoencoder(path)


def test_collect_state_buffer_shape_and_determinism():
    flows = uniform_profile([300.0] * N_LANES)
    states = collect_state_buffer(50, flows, seed=4)
    assert states.shape == (50, 19)
    assert (states >= -1.0).all() and (states <= 1.0).all()
    again = collect_state_buffer(50, flows, seed=4)
    np.testing.assert_array_equal(states, again)
    other = collect_state_buffer(50, flows, seed=5)
    assert not np.array_equal(states, other)
    with pytest.raises(ConfigurationError):
        collect_state_buffer(0, flows)


def test_collect_state_buffer_rejects_a_horizon_without_a_decision_point():
    # no decision point falls in a 7200 s episode of 8000 s greens
    plan = PhasePlan(greens_s=(8000.0,) * 4, g_min_s=8000.0, g_max_s=8000.0)
    with pytest.raises(ConfigurationError, match="must exceed the longest cycle"):
        collect_state_buffer(10, uniform_profile([300.0] * N_LANES), plan=plan)


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
        dict(learning_rate=float("nan")),
        dict(learning_rate=float("inf")),
        dict(learning_rate=-1e-4),
        dict(activation="gelu"),
        dict(hidden_sizes=(0,)),
        dict(total_timesteps=-1),
        dict(total_timesteps=2**53 + 1),
    ):
        with pytest.raises(ConfigurationError):
            DqnConfig(**bad)
    for budget in (0, 2**53):
        assert DqnConfig(total_timesteps=budget).total_timesteps == budget


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
    env = RecordingEnv(9)
    cfg = DqnConfig(replay_capacity=50_000, batch_size=50_000,
                    epsilon_start=1.0, epsilon_end=1.0,
                    total_timesteps=30_000, log_interval_steps=10_000)
    result = train_dqn(env, cfg, seed=9)
    taken = np.array(env.taken)
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
    result = train_dqn(BanditEnv(0), cfg, seed=0)
    assert result.bundle.algo == "dqn"
    assert result.bundle.value is None
    for context in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        assert result.bundle.greedy_action(context) == 0


def test_train_dqn_deterministic():
    cfg = DqnConfig(replay_capacity=500, batch_size=16, epsilon_decay_steps=500,
                    total_timesteps=800, hidden_sizes=(8,),
                    log_interval_steps=400)
    a = train_dqn(BanditEnv(3), cfg, seed=3)
    b = train_dqn(BanditEnv(3), cfg, seed=3)
    np.testing.assert_array_equal(a.bundle.policy.flat, b.bundle.policy.flat)
    assert a.log == b.log


# -- policy bundle persistence ---------------------------------------------------


def quantized(net):
    """``net`` with its weights rounded to the float32 a weight file keeps,
    as every encoder loaded from a file has them."""
    return mlp_from_arrays([a.astype(np.float32).astype(np.float64)
                            for a in net.parameters()], net.hidden_activation)


def reference_dqn_observation(sim):
    """The DQN observation written out: counts over 25 vehicles, waits over
    600 s and summed speeds over 25 vehicles at the free-flow speed."""
    count_scale = QUEUE_MAX
    speed_scale = QUEUE_MAX * FREE_FLOW_SPEED_MS
    out = np.zeros(5 * N_LANES)
    green = not sim.in_yellow
    for lane in range(N_LANES):
        approaching, queued, wait_s, speeds = sim.lane_observables(lane)
        out[5 * lane:5 * lane + 5] = (
            1.0 if (green and lane in PHASE_SERVED[sim.current_phase]) else 0.0,
            approaching / count_scale, queued / count_scale, wait_s / 600.0,
            speeds / speed_scale)
    return out


@pytest.mark.parametrize("kind", (*REPRESENTATION_KINDS, "dqn40",
                                  *(f"ae{k}" for k in (4, 8, 16, 19, 32))))
def test_bundle_round_trip_every_kind(tmp_path, kind):
    if kind.startswith("ae"):
        obs = LatentObservation(quantized(Mlp([19, 32, int(kind[2:])], "relu", seed=3)), 36.0)
    else:
        obs = make_observation(kind, 36.0, kplanes_seed=7)
    bundle = PolicyBundle("ppo", "delay", Mlp([obs.dim, 8, 3], "tanh", seed=1),
                          Mlp([obs.dim, 8, 1], "tanh", seed=2), obs, seed=11)
    path = tmp_path / "policy.tscw"
    bundle.save(path)
    loaded = PolicyBundle.load(path)
    assert (loaded.algo, loaded.reward_kind, loaded.seed) == ("ppo", "delay", 11)
    assert (loaded.observation.kind, loaded.observation.dim) == (kind, obs.dim)
    assert loaded.observation.cycles_max == obs.cycles_max
    assert loaded.observation.kplanes_seed == obs.kplanes_seed
    for orig, got in zip(bundle.policy.parameters(), loaded.policy.parameters()):
        np.testing.assert_array_equal(got, orig.astype(np.float32))
    again = tmp_path / "again.tscw"
    loaded.save(again)
    assert again.read_bytes() == path.read_bytes()

    flows = uniform_profile([600.0] * N_LANES)
    sim = SimState(IntersectionLayout(), PhasePlan(), flows, 4)
    for point in range(8):
        assert run_to_decision(sim, 4000)
        want = obs.observe(sim)
        assert loaded.observation.observe(sim).tobytes() == want.tobytes()
        if kind == "dqn40":
            assert want.tobytes() == reference_dqn_observation(sim).tobytes()
        apply_action(sim, point % 3)


def test_bundle_round_trip_minimal(tmp_path):
    bundle = PolicyBundle("dqn", "queue", Mlp([40, 16, 3], "relu", seed=0), None,
                          make_observation("dqn40"))
    path = tmp_path / "q.bin"
    bundle.save(path)
    loaded = PolicyBundle.load(path)
    assert loaded.value is None
    assert loaded.observation.encoder is None
    assert loaded.observation.kplanes_seed is None
    assert loaded.policy.hidden_activation == "relu"


def test_bundle_load_rejects_other_files(tmp_path):
    result = train_autoencoder(constant_buffer(8), untrained_autoencoder(4), epochs=0)
    path = tmp_path / "ae.bin"
    save_autoencoder(result, path)
    with pytest.raises(ConfigurationError):
        PolicyBundle.load(path)


def small_bundle():
    return PolicyBundle("ppo", "queue", Mlp([19, 4, 3], "tanh", seed=0),
                        Mlp([19, 4, 1], "tanh", seed=1), make_observation("expanded"))


def test_bundle_load_rejects_every_truncation(tmp_path):
    path = tmp_path / "full.tscw"
    small_bundle().save(path)
    blob = path.read_bytes()
    cut = tmp_path / "cut.tscw"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(ConfigurationError):
            PolicyBundle.load(cut)


def test_weight_file_format_errors_are_configuration_errors(tmp_path):
    path = tmp_path / "full.tscw"
    small_bundle().save(path)
    blob = path.read_bytes()
    tag_at = 4 + 4 + 8 + 2  # magic, version, seed, tag length
    corrupt = {
        "magic": b"TSCX" + blob[4:],
        "version": blob[:4] + struct.pack("<I", 2) + blob[8:],
        "tag": blob[:tag_at] + b"\xff" + blob[tag_at + 1:],
        "count": blob.replace(b"policy=4", b"policy=x"),
    }
    for name, data in corrupt.items():
        assert data != blob and len(data) == len(blob)
        bad = tmp_path / f"{name}.tscw"
        bad.write_bytes(data)
        with pytest.raises(ConfigurationError):
            PolicyBundle.load(bad)
    for arrays in ([np.ones(3), np.ones(3)],
                   [np.ones((4, 19)), np.ones(4), np.ones((3, 5)), np.ones(3)],
                   [np.ones((4, 19)), np.ones(4), np.ones(2)]):
        with pytest.raises(ConfigurationError):
            mlp_from_arrays(arrays, "tanh")
    with pytest.raises(ConfigurationError):
        mlp_from_arrays([np.ones((4, 19)), np.ones(4)], "sigmoid")
    ae = tmp_path / "ae.tscw"
    save_autoencoder(train_autoencoder(constant_buffer(8), untrained_autoencoder(4), epochs=0),
                     ae)
    ae_blob = ae.read_bytes()
    ae.write_bytes(ae_blob.replace(b"encoder=4", b"encoder=x"))
    assert ae.read_bytes() != ae_blob
    with pytest.raises(ConfigurationError):
        load_autoencoder(ae)
    # bytes after the last array, in a bundle and in an autoencoder file
    for loader, data in ((PolicyBundle.load, blob), (load_autoencoder, ae_blob)):
        trailing = tmp_path / "trailing.tscw"
        trailing.write_bytes(data + bytes(8))
        with pytest.raises(ConfigurationError, match="8 bytes after the last array"):
            loader(trailing)


def test_save_arrays_rejects_a_seed_the_header_cannot_hold(tmp_path):
    path = tmp_path / "w.tscw"
    for seed in (-1, 2**64, 2**64 + 1):
        with pytest.raises(ValueError):
            save_arrays(path, [np.ones(2)], seed=seed)
        with pytest.raises(ValueError):
            PolicyBundle("ppo", "queue", Mlp([19, 4, 3], "tanh", seed=0), None,
                         make_observation("expanded"), seed=seed).save(path)
    assert not path.exists()
    save_arrays(path, [np.ones(2)], seed=2**64 - 1)
    assert load_arrays(path).seed == 2**64 - 1


def header_test_bundle(kind):
    if kind == "ae4":
        obs = LatentObservation(Mlp([19, 8, 4], "relu", seed=3), 36.0)
    else:
        obs = make_observation(kind, 36.0, kplanes_seed=7)
    value = None if kind == "dqn40" else Mlp([obs.dim, 4, 1], "tanh", seed=2)
    return PolicyBundle("dqn" if kind == "dqn40" else "ppo", "queue",
                        Mlp([obs.dim, 4, 3], "tanh", seed=1), value, obs, seed=5)


# a bundle kind, then the tag fields (None drops one) and the normalizer
# array its file is rewritten with; every one of them must fail to load
LYING_HEADERS = {
    "cycles-max-nan": ("expanded", {}, [25.0, 40.0, 180.0, np.nan]),
    "cycles-max-inf": ("expanded", {}, [25.0, 40.0, 180.0, np.inf]),
    "cycles-max-zero": ("kplanes", {}, [25.0, 40.0, 180.0, 0.0]),
    "cycles-max-negative-on-ae4": ("ae4", {}, [25.0, 40.0, 180.0, -36.0]),
    "queue-max-30": ("expanded", {}, [30.0, 40.0, 180.0, 36.0]),
    "green-max-41": ("ae4", {}, [25.0, 41.0, 180.0, 36.0]),
    "cycle-time-max-100": ("kplanes", {}, [25.0, 40.0, 100.0, 36.0]),
    "queue-max-nan-on-baseline": ("baseline", {}, [np.nan, 40.0, 180.0, 72.0]),
    "cycles-max-on-dqn40": ("dqn40", {}, [25.0, 40.0, 180.0, 36.0]),
    "normalizers-3": ("expanded", {}, [25.0, 40.0, 180.0]),
    "normalizers-5": ("expanded", {}, [25.0, 40.0, 180.0, 36.0, 1.0]),
    "kres-3": ("kplanes", {"kres": 3}, None),
    "kfeat-8": ("kplanes", {"kfeat": 8}, None),
    "kres-on-expanded": ("expanded", {"kres": 8}, None),
    "kseed-negative": ("kplanes", {"kseed": -5}, None),
    "kseed-none-on-kplanes": ("kplanes", {"kseed": -1}, None),
    "kseed-on-expanded": ("expanded", {"kseed": 3}, None),
    "kseed-missing": ("kplanes", {"kseed": None}, None),
    "policy-count-negative": ("expanded", {"policy": -4, "value": 12}, None),
    "encoder-count-zero": ("ae4", {"encoder": 0}, None),
    "repr-ae8-over-ae4": ("ae4", {"repr": "ae8"}, None),
    "repr-expanded-over-ae4": ("ae4", {"repr": "expanded"}, None),
    "value-count-not-canonical": ("expanded", {"value": "+4"}, None),
    "extra-field": ("expanded", {"extra": 1}, None),
}


@pytest.mark.parametrize("case", LYING_HEADERS)
def test_bundle_load_rejects_a_header_saving_would_not_write(tmp_path, case):
    kind, fields, norms = LYING_HEADERS[case]
    path = tmp_path / "policy.tscw"
    header_test_bundle(kind).save(path)
    PolicyBundle.load(path)
    lying = tmp_path / "lying.tscw"
    rewrite_weight_file(path, lying, norms, **fields)
    assert lying.read_bytes() != path.read_bytes()
    with pytest.raises(ConfigurationError) as raised:
        PolicyBundle.load(lying)
    if case.startswith("repr-"):
        # the encoder makes the latent, so the header rule refuses any other repr
        assert "header does not describe" in str(raised.value)


def test_bundle_load_rejects_an_array_the_header_does_not_count(tmp_path):
    path = tmp_path / "policy.tscw"
    header_test_bundle("expanded").save(path)
    blob = load_arrays(path)
    save_arrays(path, blob.arrays + [np.ones(2)], tag=blob.tag, seed=blob.seed)
    with pytest.raises(ConfigurationError, match="arrays do not match the header"):
        PolicyBundle.load(path)


@pytest.mark.parametrize("counts", [(-2, 1, 0), (-1, 0, 0)])
def test_bundle_load_rejects_negative_counts_in_a_file_without_arrays(tmp_path, counts):
    # counts summing to -1 ask for 1 + -1 arrays, as many as the file holds
    path = tmp_path / "policy.tscw"
    header_test_bundle("expanded").save(path)
    blob = load_arrays(path)
    items = dict(item.split("=", 1) for item in blob.tag.split(";"))
    items.update(zip(("policy", "value", "encoder"), map(str, counts)))
    tag = ";".join(f"{key}={value}" for key, value in items.items())
    save_arrays(path, [], tag=tag, seed=blob.seed)
    with pytest.raises(ConfigurationError, match="arrays do not match the header"):
        PolicyBundle.load(path)


def test_bundle_load_draws_planes_from_the_seed_alone(tmp_path, monkeypatch):
    # a kres= value is never an array size: the one plane draw load makes
    # is kplanes_planes' own, of the seed, before the header check rejects it
    import tsclab.staterep as staterep

    drawn = []
    real = staterep.kplanes_planes

    def recording(seed):
        drawn.append(seed)
        return real(seed)

    monkeypatch.setattr(staterep, "kplanes_planes", recording)
    path = tmp_path / "policy.tscw"
    header_test_bundle("kplanes").save(path)
    rewrite_weight_file(path, path, kres=100_000, kfeat=100_000)
    with pytest.raises(ConfigurationError, match="header does not describe"):
        PolicyBundle.load(path)
    assert drawn == [7, 7]


@pytest.mark.parametrize("fields", [
    {"encoder": -2}, {"encoder": 2}, {"encoder": 6}, {"latent": 4}, {"latent": 16},
    {"decoder": 2}, {"kind": "autoencoders"}, {"encoder": None}, {"act": "tanh"},
], ids=["encoder--2", "encoder-2", "encoder-6", "latent-4", "latent-16", "decoder-2",
        "kind", "encoder-missing", "act-tanh"])
def test_load_autoencoder_rejects_a_header_saving_would_not_write(tmp_path, fields):
    path = tmp_path / "ae8.tscw"
    save_autoencoder(train_autoencoder(constant_buffer(8), untrained_autoencoder(8), epochs=0),
                     path)
    encoder, decoder = load_autoencoder(path)
    assert (encoder.layer_sizes, decoder.layer_sizes) == ((19, 32, 8), (8, 32, 19))
    rewrite_weight_file(path, path, **fields)
    with pytest.raises(ConfigurationError):
        load_autoencoder(path)


@pytest.fixture(scope="module")
def header_test_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("bundles")
    paths = []
    for kind in ("expanded", "kplanes", "ae4", "dqn40"):
        paths.append(folder / f"{kind}.tscw")
        header_test_bundle(kind).save(paths[-1])
    return paths


_TAG_VALUES = st.one_of(
    st.sampled_from(["ppo", "dqn", "delay", "baseline", "expanded", "kplanes", "ae4",
                     "ae8", "dqn40", "tanh", "relu", "sigmoid", "+4", "04", " 4", "4 ",
                     "-0", "x", "", "a=b", "a;b", ";", "kres=8"]),
    st.integers(-3, 20).map(str),
    st.text(max_size=6),
)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_bundle_with_one_tag_field_replaced_loads_only_as_it_saves(header_test_files,
                                                                    tmp_path_factory, data):
    path = data.draw(st.sampled_from(header_test_files))
    key = data.draw(st.sampled_from([item.split("=", 1)[0]
                                     for item in load_arrays(path).tag.split(";")]))
    edited = tmp_path_factory.getbasetemp() / "edited.tscw"
    rewrite_weight_file(path, edited, **{key: data.draw(_TAG_VALUES)})
    try:
        bundle = PolicyBundle.load(edited)
    except ConfigurationError:
        return
    back = tmp_path_factory.getbasetemp() / "back.tscw"
    bundle.save(back)
    assert back.read_bytes() == edited.read_bytes()
