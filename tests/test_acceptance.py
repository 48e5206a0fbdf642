"""Acceptance gate: ten end-to-end checks, each reported as one PASS/FAIL
line in the terminal summary.

The checks cover the closed-form signal formulas, gradient correctness of the
from-scratch networks, bit-level training reproducibility, an independent
brute-force replay of the queue dynamics, autoencoder capacity ordering, the
headline control result against both classical baselines, the adaptivity
correlation, the clipped-surrogate identity, the simulator's queue against
Webster's delay formula, and its queue under fixed control against the
exact fixed-cycle queue chain.
"""

import math
import time

import numpy as np
import pytest

from conftest import record_criterion, uniform_profile
from exact_queue import exact_queues
from tsclab.agents.autoencoder import (collect_state_buffer, train_autoencoder,
                                       untrained_autoencoder)
from tsclab.agents.ppo import PpoConfig, clipped_objective, train_ppo
from tsclab.baselines import (
    DynamicWebsterController,
    FixedTimeController,
    webster_timings,
)
from tsclab.envs import SignalControlEnv
from tsclab.harness.config import cycles_max_for_training, default_flow_profile
from tsclab.harness.metrics import correlation_report, mean_q_cycle, mean_std
from tsclab.harness.runner import PolicyController, run_episode
from tsclab.neural import Mlp
from tsclab.rewards import RewardSpec, reward
from tsclab.sim import (
    FlowProfile,
    IntersectionLayout,
    PhasePlan,
    SimState,
    apply_action,
    at_decision_point,
    step,
)
from tsclab.staterep import kplanes_planes, kplanes_transform, make_observation

LAYOUT = IntersectionLayout()
PLAN = PhasePlan()


# -- check 1: closed-form formula values -----------------------------------------


def yellow_time(t_f, w, length, u0, a):
    """Minimum yellow interval that closes the dilemma zone: driver reaction
    time ``t_f`` (s), plus the time to cross the intersection width ``w``
    and a vehicle length (m) at approach speed ``u0`` (m/s), plus the time
    to brake from ``u0`` at the comfortable deceleration ``a`` (m/s^2)."""
    return t_f + (w + length) / u0 + u0 / (2.0 * a)


def test_c1_closed_form_values():
    t0 = time.perf_counter()
    # rounded up to whole seconds, the reference yellow is the one the
    # default signal plan programs
    t_y = yellow_time(1.0, 12.4, 10.2, 11.11, 3.53)
    ok_yellow = abs(t_y - 4.608) <= 1e-3 and math.ceil(t_y) == PhasePlan().yellow_s

    # 0.4 * (-20/100) + 0.6 * ((24-20)/100)
    r = reward(RewardSpec(), 24.0, 20.0)  # approach queues (12,5,2,5) -> (10,5,0,5)
    ok_reward = abs(r - (-0.056)) <= 1e-12

    cycle_s, greens_s, saturated = webster_timings(12.0, (0.3, 0.1, 0.15, 0.05),
                                                   PhasePlan())
    # (1.5*12 + 5) / (1 - 0.6) = 57.5; proportional split of 45.5 effective
    # seconds gives (22.75, 7.58->10, 11.375, 3.79->10) after the g_min clamp
    ok_webster = (abs(cycle_s - 57.5) <= 1e-9
                  and greens_s == pytest.approx((22.75, 10.0, 11.375, 10.0), abs=1e-9)
                  and not saturated)

    state = np.zeros(19)
    state[1] = 1.0  # a valid one-hot phase
    out = kplanes_transform(kplanes_planes(0), state)
    # 4 feature groups of 16 plus the 4-way phase one-hot
    ok_planes = out.shape == (4 * 16 + 4,) and out.shape == (68,)

    elapsed = time.perf_counter() - t0
    passed = ok_yellow and ok_reward and ok_webster and ok_planes and elapsed < 4.0
    record_criterion(
        "C1 closed-form formula values",
        passed,
        f"yellow {t_y:.3f}s, reward {r:.3f}, cycle {cycle_s}s, "
        f"features {out.shape[0]}, {elapsed * 1000:.0f}ms",
    )
    assert ok_yellow
    assert ok_reward
    assert ok_webster
    assert ok_planes
    assert elapsed < 4.0


# -- check 2: analytic gradients vs central finite differences -------------------


def _loss(net, x, upstream):
    return float(np.asarray(upstream) @ net.predict(x))


def _kink_margin(net, x):
    """Smallest |pre-activation| over the hidden layers."""
    a = np.asarray(x, dtype=np.float64)
    margin = np.inf
    for idx in range(len(net.weights) - 1):
        z = net.weights[idx] @ a + net.biases[idx]
        margin = min(margin, float(np.min(np.abs(z))))
        a = np.maximum(z, 0.0) if net.hidden_activation == "relu" else np.tanh(z)
    return margin


def _off_kink_input(net, rng, dim):
    for _ in range(200):
        x = rng.uniform(-1.0, 1.0, size=dim)
        if _kink_margin(net, x) > 1e-3:
            return x
    raise AssertionError("could not find an input clear of relu kinks")


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


def test_c2_gradients_match_finite_differences():
    t0 = time.perf_counter()
    h = 1e-5
    # the architecture families the lab actually trains: policy and value
    # heads on each observation width, plus both autoencoder halves
    families = (
        ([19, 64, 64, 3], "tanh"),
        ([8, 32, 3], "tanh"),
        ([68, 64, 3], "tanh"),
        ([19, 64, 64, 1], "tanh"),
        ([68, 32, 1], "tanh"),
        ([19, 32, 8], "relu"),
        ([8, 32, 19], "relu"),
        ([19, 32, 4], "relu"),
    )
    worst = 0.0
    checked = 0
    for i in range(100):
        sizes, act = families[i % len(families)]
        rng = np.random.Generator(np.random.PCG64(5000 + i))
        net = Mlp(sizes, act, seed=3000 + i)
        if act == "relu":
            x = _off_kink_input(net, rng, sizes[0])
        else:
            x = rng.uniform(-1.0, 1.0, size=sizes[0])
        upstream = rng.normal(size=sizes[-1])
        net.forward(x[None])
        analytic, _ = net.backward(upstream[None])
        flat = net.flat
        coords = rng.choice(flat.size, size=min(flat.size, 300), replace=False)
        for j in coords:
            orig = flat[j]
            flat[j] = orig + h
            up = _loss(net, x, upstream)
            flat[j] = orig - h
            down = _loss(net, x, upstream)
            flat[j] = orig
            numeric = (up - down) / (2.0 * h)
            worst = max(worst, _rel_err(float(analytic[j]), numeric))
            checked += 1
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-4 and elapsed < 30.0
    record_criterion(
        "C2 analytic gradients vs finite differences",
        passed,
        f"100 nets, {checked} coordinates, worst rel err {worst:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert worst < 1e-4
    assert elapsed < 30.0


# -- check 3: bit-level training reproducibility ---------------------------------


def test_c3_training_is_bit_reproducible():
    t0 = time.perf_counter()
    flows = default_flow_profile()
    cfg = PpoConfig(total_timesteps=20_000)
    cycles_max = cycles_max_for_training(cfg.total_timesteps, PLAN.default_cycle_s)
    obs = make_observation("expanded", cycles_max)
    envs = [SignalControlEnv(LAYOUT, PLAN, flows, obs, RewardSpec(), 0) for _ in range(2)]
    first, second = (train_ppo(env, cfg, seed=0) for env in envs)
    same_log = first.log == second.log
    same_records = first.cycle_records == second.cycle_records
    same_weights = (
        np.array_equal(first.bundle.policy.flat, second.bundle.policy.flat)
        and np.array_equal(first.bundle.value.flat, second.bundle.value.flat)
    )
    elapsed = time.perf_counter() - t0
    passed = same_log and same_records and same_weights and elapsed < 300.0
    record_criterion(
        "C3 bit-identical repeated training",
        passed,
        f"{len(first.log)} rollouts, {len(first.cycle_records)} cycles, "
        f"log={same_log} records={same_records} weights={same_weights}, "
        f"{elapsed:.1f}s",
    )
    assert same_log
    assert same_records
    assert same_weights
    assert elapsed < 300.0


# -- check 4: brute-force replay of the queue dynamics ---------------------------


class _BruteForceIntersection:
    """Independent plain-Python re-derivation of the per-tick rules.

    Phases serve opposing lane pairs in fixed rotation with 5 s yellows;
    green may end once 10 s have elapsed and control acts on a 5 s grid;
    arrivals travel 15 s to the stopline, then pass through on a flowing
    green with no queue or join the back of the queue; served queues earn
    half a vehicle of discharge credit per green second after 2 s of
    startup, and credit resets whenever the signal changes.
    """

    SERVED = ((0, 4), (1, 5), (2, 6), (3, 7))

    def __init__(self):
        self.phase = 0
        self.in_yellow = False
        self.phase_elapsed = 0
        self.yellow_elapsed = 0
        self.defaults = [20.0] * 4
        self.programmed = [20.0] * 4
        self.queues = [0] * 8
        self.transit = [[] for _ in range(8)]
        self.credit = [0.0] * 8

    def wants_decision(self):
        return (not self.in_yellow and self.phase_elapsed >= 10
                and (self.phase_elapsed - 10) % 5 == 0)

    def act(self, action):
        if action == 0:
            self.programmed[self.phase] = float(self.phase_elapsed)
        elif action == 2:
            self.programmed[self.phase] = min(
                self.programmed[self.phase] + 5.0, 40.0
            )

    def tick(self, t, arrivals):
        if self.in_yellow:
            if self.yellow_elapsed >= 5:
                self.in_yellow = False
                self.yellow_elapsed = 0
                self.phase = (self.phase + 1) % 4
                self.phase_elapsed = 0
                self.credit = [0.0] * 8
                if self.phase == 0:
                    self.programmed = list(self.defaults)
        elif self.phase_elapsed >= self.programmed[self.phase]:
            self.in_yellow = True
            self.yellow_elapsed = 0
            self.credit = [0.0] * 8

        for lane, n in enumerate(arrivals):
            self.transit[lane].extend([t + 15] * n)

        served = self.SERVED[self.phase]
        flowing = not self.in_yellow and self.phase_elapsed >= 2
        for lane in range(8):
            pending = self.transit[lane]
            while pending and pending[0] <= t:
                pending.pop(0)
                if not (flowing and lane in served and self.queues[lane] == 0):
                    self.queues[lane] += 1
        if flowing:
            for lane in served:
                self.credit[lane] += 0.5
                while self.credit[lane] >= 1.0 and self.queues[lane] > 0:
                    self.queues[lane] -= 1
                    self.credit[lane] -= 1.0

        if self.in_yellow:
            self.yellow_elapsed += 1
        else:
            self.phase_elapsed += 1


def _replay_scenario(scenario_seed):
    """Run one small random episode; None when it drew too many vehicles."""
    rng = np.random.Generator(np.random.PCG64(scenario_seed))
    rates = rng.uniform(0.0, 25.0, size=8)
    horizon = int(rng.integers(150, 301))
    flows = uniform_profile(list(rates))
    sim = SimState(LAYOUT, PLAN, flows, scenario_seed)
    act_rng = np.random.Generator(np.random.PCG64(scenario_seed + 991))
    schedule = []
    ticks = []  # (clock, arrivals, lane queues) after each step
    for _ in range(horizon):
        if at_decision_point(sim):
            action = int(act_rng.integers(0, 3))
            apply_action(sim, action)
            schedule.append((sim.clock, action))
        step(sim)
        ticks.append((sim.clock, tuple(sim.arrivals), tuple(sim.queued)))
    if sum(sum(arrivals) for _tick, arrivals, _queues in ticks) > 20:
        return None

    oracle = _BruteForceIntersection()
    cursor = 0
    for tick, arrivals, queues in ticks:
        if oracle.wants_decision():
            assert cursor < len(schedule), "oracle saw an extra decision point"
            clock, action = schedule[cursor]
            cursor += 1
            assert clock == tick - 1, "decision points drifted apart"
            oracle.act(action)
        oracle.tick(tick, arrivals)
        if tuple(oracle.queues) != queues:
            return False
    assert cursor == len(schedule), "simulator saw an extra decision point"
    return len(ticks)


def test_c4_brute_force_replay_matches():
    t0 = time.perf_counter()
    matched = 0
    ticks = 0
    candidate = 0
    while matched < 10:
        assert candidate < 100, "vehicle cap rejected too many scenarios"
        outcome = _replay_scenario(40_000 + candidate)
        candidate += 1
        if outcome is None:
            continue
        assert outcome is not False, f"scenario {candidate - 1} diverged"
        matched += 1
        ticks += outcome
    elapsed = time.perf_counter() - t0
    record_criterion(
        "C4 per-tick queues match a brute-force replay",
        True,
        f"10 scenarios, {ticks} ticks compared exactly, {elapsed:.1f}s",
    )


# -- check 5: autoencoder capacity ordering --------------------------------------


def test_c5_latent_capacity_orders_reconstruction():
    t0 = time.perf_counter()
    buffer = collect_state_buffer(10_000, default_flow_profile(), seed=123)
    wins = 0
    all_halved = True
    details = []
    for seed in range(5):
        finals = {}
        for k in (4, 8, 19):
            res = train_autoencoder(buffer, untrained_autoencoder(k, seed=seed),
                                    epochs=40, lr=1e-3)
            finals[k] = res.final_mse
            if res.final_mse > 0.5 * res.initial_mse:
                all_halved = False
        ordered = finals[19] <= finals[8] <= finals[4]
        wins += ordered
        details.append(
            f"s{seed}:{finals[4]:.3f}/{finals[8]:.3f}/{finals[19]:.3f}"
        )
    elapsed = time.perf_counter() - t0
    passed = wins >= 4 and all_halved and elapsed < 600.0
    record_criterion(
        "C5 reconstruction error orders by latent size",
        passed,
        f"ordered in {wins}/5 seeds, all runs halved epoch-0 mse: "
        f"{all_halved}, {elapsed:.0f}s [{' '.join(details)}]",
    )
    assert wins >= 4
    assert all_halved
    assert elapsed < 600.0


# -- checks 6 and 7: the headline control result ---------------------------------


@pytest.fixture(scope="module")
def control_study():
    """Five PPO seeds trained on the default scenario, each evaluated over
    five stochastic playback episodes, plus both baselines on the same
    evaluation episodes."""
    t0 = time.perf_counter()
    flows = default_flow_profile()
    cfg = PpoConfig(total_timesteps=100_000)
    cycles_max = cycles_max_for_training(cfg.total_timesteps, PLAN.default_cycle_s)
    eval_seeds = (0, 1, 2, 3, 4)
    horizon = 7200

    per_seed = []
    for train_seed in range(5):
        obs = make_observation("expanded", cycles_max)
        env = SignalControlEnv(LAYOUT, PLAN, flows, obs, RewardSpec(), train_seed)
        result = train_ppo(env, cfg, train_seed)
        episodes = [
            run_episode(
                SimState(LAYOUT, PLAN, flows, s),
                PolicyController(result.bundle, sample_seed=1000 * train_seed + s),
                horizon,
            )
            for s in eval_seeds
        ]
        per_seed.append(episodes)

    baselines = {}
    for name, build in (("fixed", FixedTimeController),
                        ("webster", lambda: DynamicWebsterController(LAYOUT, PLAN))):
        baselines[name] = [
            mean_q_cycle(run_episode(SimState(LAYOUT, PLAN, flows, s), build(), horizon))
            for s in eval_seeds]
    return {
        "per_seed": per_seed,
        "baselines": baselines,
        "elapsed_s": time.perf_counter() - t0,
    }


def standard_error(values) -> float:
    """The standard error of the mean of ``values`` (sample std, ddof=1)."""
    return mean_std(values)[1] / math.sqrt(len(values))


# the two-sided 95% quantile of Student's t at 4 degrees of freedom: C6's
# paired difference has one value per evaluation seed, five in all
T95_4DF = 2.776


def test_c6_learned_control_beats_both_baselines(control_study):
    scores = [[mean_q_cycle(episode) for episode in episodes]
              for episodes in control_study["per_seed"]]
    seed_scores = [float(np.mean(row)) for row in scores]
    learned = float(np.mean(seed_scores))
    fixed = float(np.mean(control_study["baselines"]["fixed"]))
    webster = float(np.mean(control_study["baselines"]["webster"]))
    # printed only: per evaluation seed, the learned column averages its five
    # policies, and every column plays that seed's arrivals, so the PPO -
    # Webster difference pairs on them
    by_eval_seed = {"learned": np.mean(scores, axis=0).tolist(),
                    **control_study["baselines"]}
    errors = " / ".join(f"{name} {standard_error(values):.3f}"
                        for name, values in by_eval_seed.items())
    paired = [p - w for p, w in zip(by_eval_seed["learned"], by_eval_seed["webster"])]
    assert len(paired) == 5  # the degrees of freedom of T95_4DF
    difference, half_width = mean_std(paired)[0], T95_4DF * standard_error(paired)
    elapsed = control_study["elapsed_s"]
    passed = (learned <= 0.9 * fixed and learned <= 0.9 * webster
              and elapsed < 7200.0)
    # the gate reads the mean alone; the per-seed scores show whether one
    # seed collapsed while the others carried the mean
    within = sum(score <= 0.9 * webster for score in seed_scores)
    record_criterion(
        "C6 learned control beats both baselines by 10%",
        passed,
        f"learned {learned:.3f} vs fixed {fixed:.3f} / webster {webster:.3f}, "
        f"{elapsed:.0f}s; per seed {' '.join(f'{score:.2f}' for score in seed_scores)}, "
        f"median {float(np.median(seed_scores)):.2f}, "
        f"{within}/{len(seed_scores)} at or below 0.9 x webster; "
        f"standard error over the evaluation seeds {errors}; "
        f"PPO - webster {difference:+.3f} (standard error {standard_error(paired):.3f}, "
        f"95% t interval {difference - half_width:+.3f} to {difference + half_width:+.3f})",
    )
    assert learned <= 0.9 * fixed
    assert learned <= 0.9 * webster
    assert elapsed < 7200.0


def test_c7_green_allocation_tracks_queues(control_study):
    wins = 0
    details = []
    for episodes in control_study["per_seed"]:
        pooled = [record for episode in episodes for record in episode]
        report = correlation_report(pooled)
        r0 = report["green1_vs_phase_queue"]
        r2 = report["green3_vs_phase_queue"]
        ok = (r0 is not None and r2 is not None and r0 > 0.0 and r2 > 0.0)
        wins += ok
        details.append(
            f"{'-' if r0 is None else format(r0, '+.3f')}"
            f"/{'-' if r2 is None else format(r2, '+.3f')}"
        )
    passed = wins >= 4
    record_criterion(
        "C7 green allocation tracks queue demand",
        passed,
        f"positive on both through phases in {wins}/5 seeds "
        f"[{' '.join(details)}]",
    )
    assert wins >= 4


# -- check 8: clipped surrogate identity -----------------------------------------


def test_c8_clipped_surrogate_identity():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(88))
    n = 10_000
    ratios = rng.uniform(0.0, 3.0, size=n)
    advantages = rng.normal(scale=2.0, size=n)
    epsilons = rng.uniform(0.05, 0.5, size=n)
    got = clipped_objective(ratios, advantages, epsilons)
    expected = np.array([
        min(r * a, min(max(r, 1.0 - e), 1.0 + e) * a)
        for r, a, e in zip(ratios, advantages, epsilons)
    ])
    identical = np.array_equal(got, expected)
    bounded = bool(np.all(got <= ratios * advantages))
    elapsed = time.perf_counter() - t0
    passed = identical and bounded and elapsed < 1.0
    record_criterion(
        "C8 clipped surrogate equals min of unclipped and clipped",
        passed,
        f"{n} random triples, exact match {identical}, never exceeds "
        f"unclipped {bounded}, {elapsed * 1000:.0f}ms",
    )
    assert identical
    assert bounded
    assert elapsed < 1.0


# -- check 9: the simulator against Webster's delay formula ----------------------

# Webster fitted the third term of his delay formula to his own simulations
# and puts it at 5 to 15 per cent of the delay (Traffic signal settings, Road
# Research Technical Paper 39, 1958).  The formula claims no finer accuracy
# than its empirical part, so the check allows the largest share of it.
WEBSTER_TOLERANCE = 0.15
C9_TICKS = 100_000
C9_WARMUP_TICKS = 2_000
C9_SEED = 1958
# (saturation headway s, green step s).  Each step is the shortest
# whole-second green that holds whole headways, so the effective green lets
# exactly green / headway vehicles go.  The reciprocals of 1.2, 1.5, 2.5 and
# 3.0 s are not binary fractions, so a summed 1/headway would lose vehicles.
C9_HEADWAYS = ((1.2, 6), (1.5, 3), (1.6, 8), (2.0, 2), (2.5, 5), (3.0, 3), (3.2, 16))


def webster_queues(rate, saturation_flow, green_s, cycle_s):
    """Webster's mean delay per vehicle times the arrival rate: the
    time-averaged queue by Little's law, and its first (D/D/1) term alone.

    Rates are in veh/s; ``green_s`` is the effective green and ``cycle_s``
    the cycle.  The three terms are the delay under uniform arrivals, the
    delay that random arrivals add, and Webster's empirical correction.
    """
    share = green_s / cycle_s
    x = rate / (share * saturation_flow)
    uniform = cycle_s * (1.0 - share) ** 2 / (2.0 * (1.0 - share * x))
    overflow = x * x / (2.0 * rate * (1.0 - x))
    correction = 0.65 * (cycle_s / rate ** 2) ** (1.0 / 3.0) * x ** (2.0 + 5.0 * share)
    return rate * (uniform + overflow - correction), rate * uniform


def webster_case(rng):
    """One lane, N0, under a fixed plan: (headway, startup loss, yellow,
    greens, degree of saturation x, seed), drawn from ``rng``.  Timings are
    whole seconds, as the tick serves them, and N0's effective green holds
    whole headways."""
    g_min, g_max = int(PLAN.g_min_s), int(PLAN.g_max_s)
    headway, step_s = C9_HEADWAYS[rng.integers(len(C9_HEADWAYS))]
    startup = int(rng.integers(0, 4))
    steps = int(rng.integers(math.ceil((g_min - startup) / step_s),
                             (g_max - startup) // step_s + 1))
    greens = (float(startup + steps * step_s),
              *(float(rng.integers(g_min, g_max + 1)) for _ in range(3)))
    return (headway, startup, int(rng.integers(1, 7)), greens, float(rng.uniform(0.3, 0.7)),
            int(rng.integers(0, 2**32)))


def test_c9_queue_matches_webster_delay():
    """Webster's formula at the effective green, G - ``startup_lost_time_s``,
    against the time-averaged queue of a 100k-tick run after a warm-up.

    The formula is read at the arrival rate the run drew, which takes the
    arrival count's noise out of the comparison.  A run's average still
    errs by about 1/sqrt(n) for n vehicles, so a case is drawn only if
    five such errors fit within the tolerance, and the queue is held at or
    above the D/D/1 term only where the formula lies five errors above it.

    What the tolerance cannot see: a simulator that loses one queued
    vehicle per green.  At x <= 0.7 that moves the time-averaged queue by
    far less than 15%; a simulator that lost up to one vehicle per green at
    the 1.2, 1.5, 2.5 and 3.0 s headways passed this check with a worst
    error of 2.1%.  The check that can see it is ``tests/test_sim.py``'s
    exact-departure tests, ``test_green_discharges_every_whole_headway`` and
    ``test_departures_after_f_flowing_ticks_are_floor_f_over_h``, which count
    every vehicle a green lets go.
    """
    t0 = time.perf_counter()
    cases = []  # (x, relative error, D/D/1 bound checked, bound held)

    def run_case(case):
        """Run a case the tolerance resolves, and say whether it did."""
        headway, startup, yellow, greens, x, seed = case
        plan = PhasePlan(greens_s=greens, yellow_s=yellow)
        effective = greens[0] - startup
        rate = x * effective / plan.default_cycle_s / headway
        measured = C9_TICKS - C9_WARMUP_TICKS
        resolution = 5.0 / math.sqrt(rate * measured)
        if resolution > WEBSTER_TOLERANCE:
            return False
        formula, uniform = webster_queues(rate, 1.0 / headway, effective, plan.default_cycle_s)
        bounded = formula - uniform >= resolution * uniform

        layout = IntersectionLayout(saturation_headway_s=headway, startup_lost_time_s=startup)
        flows = FlowProfile.build({"N0": [(0.0, 3600.0, rate * 3600.0)]})
        sim = SimState(layout, plan, flows, seed)
        for _ in range(C9_WARMUP_TICKS):
            step(sim)
        queued = arrived = 0
        for _ in range(measured):
            step(sim)
            queued += sim.queued[0]
            arrived += sim.arrivals[0]
        queue = queued / measured
        formula, uniform = webster_queues(arrived / measured, 1.0 / headway, effective,
                                          plan.default_cycle_s)
        cases.append((x, (queue - formula) / formula, bounded, queue >= uniform))
        return True

    run_case((2.0, 2, 5, (20.0,) * 4, 100 / 324, 0))  # the default plan at 100 veh/h
    run_case((2.0, 2, 5, (20.0,) * 4, 200 / 324, 0))  # and at 200 veh/h
    run_case((1.5, 2, 5, (20.0,) * 4, 0.5, 0))  # 12 vehicles per effective green
    # then ten resolved cases, the same every run: C9_SEED was fixed before
    # any run, since a statistical check must not flake on a rare draw
    rng = np.random.Generator(np.random.PCG64(C9_SEED))
    drawn = 0
    while drawn < 10:
        drawn += run_case(webster_case(rng))
    elapsed = time.perf_counter() - t0
    worst = max(abs(error) for _x, error, _bounded, _held in cases)
    bounded = [held for _x, _error, checked, held in cases if checked]
    passed = worst <= WEBSTER_TOLERANCE and all(bounded) and elapsed < 30.0
    record_criterion(
        "C9 simulator queue matches Webster's delay formula",
        passed,
        f"{len(cases)} cases, x {min(c[0] for c in cases):.2f}-"
        f"{max(c[0] for c in cases):.2f}, worst error {worst:.1%} "
        f"(tolerance {WEBSTER_TOLERANCE:.0%}), at or above D/D/1 in "
        f"{sum(bounded)}/{len(bounded)} resolved cases, {elapsed:.1f}s",
    )
    assert worst <= WEBSTER_TOLERANCE
    assert all(bounded)
    assert elapsed < 30.0


# -- check 10: the simulator against the exact fixed-cycle queue chain -----------

# fixed before the first run: under a correct simulator each z is close to
# a standard normal draw, and the seeds are fixed, so the check cannot flake
C10_Z_BOUND = 4.0
C10_SEEDS = range(300)
C10_HORIZON_S = 1800
# (saturation headway s, lane rates in veh/h in LANE_IDS order): the default
# profile's medium regime at a 2 s headway, and its high regime at 1.5 s,
# where N0 and S0 bring about the 432 veh/h that a 20 s green lets go
C10_SCENARIOS = ((2.0, (168.0, 42.0, 294.0, 84.0, 168.0, 42.0, 294.0, 84.0)),
                 (1.5, (434.0, 98.0, 126.0, 42.0, 434.0, 98.0, 126.0, 42.0)))


class QueueMeter(FixedTimeController):
    """Fixed control that adds up the total queue at the end of every tick."""

    def __init__(self) -> None:
        self.queue_ticks = 0

    def on_tick(self, sim) -> None:
        self.queue_ticks += sum(sim.queued)


def z_score(values, expected: float) -> float:
    return (float(np.mean(values)) - expected) / standard_error(values)


def test_c10_queue_matches_the_exact_fixed_cycle_chain():
    """The mean Q_cycle and the time-averaged total queue of 300 fixed-control
    episodes against their exact expectations from ``tests/exact_queue.py``.

    Each z is (simulator - exact) over the simulator's standard error.  A
    simulator that lets one vehicle fewer go per green (each k-th departure
    one headway late) read z of +18.2 to +20.7 here.  What it cannot see:
    arrivals that join an empty lane on a flowing green instead of passing
    straight through.  Such a vehicle mostly leaves in the same tick's
    discharge, and that change moved no z here by more than 0.05.  C4's
    brute-force replay, and ``test_pass_through_on_green_with_empty_queue``
    and ``test_counter_lanes_match_per_vehicle_model`` in
    ``tests/test_sim.py``, are the checks that see it.
    """
    t0 = time.perf_counter()
    details, z_values, lost = [], [], 0.0
    for headway, rates in C10_SCENARIOS:
        layout = IntersectionLayout(saturation_headway_s=headway)
        flows = uniform_profile(rates, C10_HORIZON_S)
        exact_cycles, exact_ticks, lost_mass = exact_queues(layout, PLAN, flows,
                                                            C10_HORIZON_S)
        lost = max(lost, lost_mass)
        per_cycle, time_averages = [], []
        for seed in C10_SEEDS:
            meter = QueueMeter()
            records = run_episode(SimState(layout, PLAN, flows, seed), meter, C10_HORIZON_S)
            per_cycle.append([record.q_cycle for record in records])
            time_averages.append(meter.queue_ticks / C10_HORIZON_S)
        per_cycle = np.array(per_cycle, dtype=np.float64)
        assert per_cycle.shape == (len(C10_SEEDS), len(exact_cycles))
        z_cycle = z_score(per_cycle.mean(axis=1), float(np.mean(exact_cycles)))
        z_time = z_score(time_averages, float(exact_ticks.mean()))
        worst = max((z_score(column, exact) for column, exact in zip(per_cycle.T, exact_cycles)),
                    key=abs)
        z_values += [z_cycle, z_time]
        details.append(
            f"h {headway:g}s: Q_cycle exact {np.mean(exact_cycles):.3f} z {z_cycle:+.2f}, "
            f"time average exact {exact_ticks.mean():.3f} z {z_time:+.2f}, "
            f"worst of {len(exact_cycles)} cycles z {worst:+.2f}")
    elapsed = time.perf_counter() - t0
    within = all(abs(z) <= C10_Z_BOUND for z in z_values)
    passed = within and lost <= 1e-6 and elapsed < 60.0
    record_criterion(
        "C10 simulator queue matches the exact fixed-cycle chain",
        passed,
        f"{'; '.join(details)}; bound |z| <= {C10_Z_BOUND:g}, "
        f"{len(C10_SEEDS)} seeds, mass past the cut-off {lost:.1e}, {elapsed:.1f}s",
    )
    assert within
    assert lost <= 1e-6
    assert elapsed < 60.0
