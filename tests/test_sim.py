"""Simulator unit tests: formula oracles, point-queue dynamics, the phase
machine, flow profiles, and the module's invariants."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import force_queue, force_transit, lane_events, lane_index, rate_veh_h
from tsclab.errors import ConfigurationError, ContractViolation
from tsclab.sim import (
    ACTION_CONTINUE,
    ACTION_END,
    ACTION_EXTEND,
    FlowProfile,
    FlowSegment,
    IntersectionLayout,
    LANE_IDS,
    N_LANES,
    N_PHASES,
    PHASE_SERVED,
    PhasePlan,
    apply_action,
    at_decision_point,
    install_programmed_greens,
    new_simulation,
    step,
    yellow_time,
)


def make_sim(seed=0, rates=None, layout=None, plan=None, record_events=False):
    flows = FlowProfile.uniform(rates if rates is not None else [0.0] * N_LANES)
    return new_simulation(layout or IntersectionLayout(), plan or PhasePlan(),
                          flows, seed, record_events=record_events)


# -- yellow_time ---------------------------------------------------------------


def test_yellow_time_reference_value():
    z = yellow_time(1, 12.4, 10.2, 11.11, 3.53)
    assert abs(z - 4.608) < 1e-3
    assert math.ceil(z) == 5


def test_yellow_time_simple_decomposition():
    # reaction 0, no crossing distance, braking term u0/(2a) = 1/(2*0.5)
    assert yellow_time(0, 0, 0, 1, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_yellow_time_rejects_bad_inputs():
    with pytest.raises(ValueError):
        yellow_time(1, 12.4, 10.2, 11.11, 0)
    with pytest.raises(ValueError):
        yellow_time(1, 12.4, 10.2, 0, 3.53)
    with pytest.raises(ValueError):
        yellow_time(1, 12.4, 10.2, -5.0, 3.53)
    with pytest.raises(ValueError):
        yellow_time(float("nan"), 12.4, 10.2, 11.11, 3.53)
    with pytest.raises(ValueError):
        yellow_time(-1.0, 12.4, 10.2, 11.11, 3.53)


# -- construction --------------------------------------------------------------


def test_new_simulation_starts_empty():
    sim = make_sim(seed=7)
    assert sim.clock == 0
    assert sim.current_phase == 0
    assert sim.phase_elapsed_s == 0
    assert not sim.in_yellow
    assert sim.total_queue() == 0
    assert sim.queue_lengths() == (0,) * N_LANES
    assert sim.in_transit == [0] * N_LANES
    assert not sim.transit


def test_zero_capacity_layout_rejected():
    with pytest.raises(ConfigurationError):
        IntersectionLayout(lane_storage_capacity=0)


def test_layout_field_validation():
    with pytest.raises(ConfigurationError):
        IntersectionLayout(saturation_headway_s=0.0)
    with pytest.raises(ConfigurationError):
        IntersectionLayout(travel_time_to_stopline_s=-1.0)
    with pytest.raises(ConfigurationError):
        IntersectionLayout(free_flow_speed_ms=0.0)
    assert IntersectionLayout().saturation_flow_veh_h == pytest.approx(1800.0)


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        PhasePlan(g_min_s=40.0, g_max_s=10.0)
    with pytest.raises(ConfigurationError):
        PhasePlan(programmed_green_s=(5.0, 20.0, 20.0, 20.0))
    with pytest.raises(ConfigurationError):
        PhasePlan(yellow_s=0.0)
    with pytest.raises(ConfigurationError):
        PhasePlan(delta_time_s=0.0)
    with pytest.raises(ConfigurationError):
        PhasePlan(programmed_green_s=(20.0, 20.0, 20.0))
    assert PhasePlan().default_cycle_s == pytest.approx(100.0)


@pytest.mark.parametrize("field, value", [
    ("g_min_s", 10.5),  # would never reach a decision point
    ("yellow_s", 4.6),  # would run as 5 s
    ("g_max_s", 39.9),
    ("delta_time_s", 2.5),
    ("yellow_s", float("inf")),
])
def test_plan_timings_must_be_whole_seconds(field, value):
    with pytest.raises(ConfigurationError, match=field):
        PhasePlan(**{field: value})


def test_fractional_programmed_green_ends_on_next_whole_second():
    sim = make_sim(plan=PhasePlan(programmed_green_s=(12.5, 20.0, 20.0, 20.0)))
    while not sim.in_yellow:
        step(sim)
    assert sim.phase_elapsed_s == 13


def test_same_seed_reproduces_arrival_events():
    logs = []
    for _ in range(2):
        sim = make_sim(seed=42, rates=[400.0] * N_LANES, record_events=True)
        while sum(1 for e in sim.events if e[2] == "enter") < 1000:
            step(sim)
        logs.append([e for e in sim.events if e[2] == "enter"][:1000])
    assert logs[0] == logs[1]


# -- point-queue dynamics ------------------------------------------------------


def test_queue_of_five_clears_in_twelve_green_seconds():
    # startup 2 s, then one vehicle per 2 s headway: empties exactly at t=12
    sim = make_sim()
    force_queue(sim, 0, 5)
    trace = []
    for _ in range(12):
        step(sim)
        trace.append(sim.queue_lengths()[0])
    assert trace == [5, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0]


def test_queue_discharge_rate_bounded_by_saturation():
    sim = make_sim()
    force_queue(sim, 0, 30)
    total = 0
    for _ in range(20):
        report = step(sim)
        assert report.discharges[0] <= 1.0 / sim.layout.saturation_headway_s + 1
        total += report.discharges[0]
    # 20 s green minus 2 s startup at one vehicle per 2 s
    assert total == 9


def test_no_discharge_during_yellow():
    sim = make_sim(seed=3, rates=[600.0] * N_LANES)
    for _ in range(400):
        report = step(sim)
        if report.in_yellow:
            assert sum(report.discharges) == 0


def test_poisson_arrival_mean():
    # one lane at 720 veh/h for 100 s: expected 20 arrivals per replication
    rates = [0.0] * N_LANES
    rates[0] = 720.0
    totals = []
    for seed in range(300):
        sim = make_sim(seed=seed, rates=rates)
        count = 0
        for _ in range(100):
            count += step(sim).arrivals[0]
        totals.append(count)
    assert abs(np.mean(totals) - 20.0) < 2.0


def test_pass_through_on_green_with_empty_queue():
    sim = make_sim(record_events=True)
    for _ in range(3):
        step(sim)  # phase_elapsed 3 >= startup 2
    (vid,) = force_transit(sim, 0, 1, stopline_tick=sim.clock + 1)
    report = step(sim)
    assert lane_events(sim, 0) == [(sim.clock, "pass", vid)]  # never queued
    assert report.discharges[0] == 1
    assert sim.queue_lengths()[0] == 0


def test_unserved_arrival_joins_queue():
    sim = make_sim(record_events=True)
    for _ in range(3):
        step(sim)
    lane = lane_index("E0")  # phase 2 lane, not served during phase 0
    (vid,) = force_transit(sim, lane, 1, stopline_tick=sim.clock + 1)
    report = step(sim)
    assert lane_events(sim, lane) == [(sim.clock, "join", vid)]
    assert report.discharges[lane] == 0
    assert sim.queue_lengths()[lane] == 1
    assert sim.lane_wait_s(lane) == 0  # joined this tick


def test_arrival_before_startup_queues_then_discharges():
    sim = make_sim(record_events=True)
    (vid,) = force_transit(sim, 0, 1, stopline_tick=1)
    step(sim)  # phase_elapsed 0 < startup: must queue even though served
    assert lane_events(sim, 0) == [(1, "join", vid)]
    assert sim.queue_lengths()[0] == 1
    discharged = 0
    for _ in range(3):
        discharged += step(sim).discharges[0]
    assert discharged == 1
    (join_tick, _, _), (discharge_tick, event, discharged_vid) = lane_events(sim, 0)
    assert (event, discharged_vid) == ("discharge", vid)
    assert discharge_tick - join_tick >= 0


# -- observation helpers -------------------------------------------------------


def test_approach_queues_take_lane_maximum():
    sim = make_sim()
    for lane, count in enumerate((4, 4, 0, 2, 9, 1, 5, 5)):
        force_queue(sim, lane, count)
    assert sim.approach_queues() == (4, 2, 9, 5)
    assert sim.total_queue() == 30


def test_approach_queues_empty():
    assert make_sim().approach_queues() == (0, 0, 0, 0)


def test_lane_observables_speed_convention():
    sim = make_sim()
    force_queue(sim, 0, 3)
    force_transit(sim, 0, 2, stopline_tick=10**9)
    approaching, queued, _wait, speeds = sim.lane_observables(0)
    assert (approaching, queued) == (2, 3)
    assert speeds == pytest.approx(2 * 11.11)


def test_lane_wait_accumulates():
    sim = make_sim()
    force_queue(sim, 0, 1, join_tick=50)
    sim.clock = 60
    assert sim.lane_wait_s(0) == 10


def test_empty_lane_observables_are_zero():
    sim = make_sim()
    assert sim.lane_observables(0) == (0, 0, 0, 0.0)


# -- phase machine -------------------------------------------------------------


def test_default_cycle_wraps_at_tick_101():
    sim = make_sim()
    wrap_ticks = []
    for _ in range(210):
        report = step(sim)
        if report.cycle_completed:
            wrap_ticks.append(report.tick)
    assert wrap_ticks == [101, 201]
    assert sim.cycles_completed == 2


def test_decision_point_grid():
    sim = make_sim()
    decision_elapsed = []
    for _ in range(100):
        step(sim)
        if at_decision_point(sim):
            decision_elapsed.append((sim.current_phase, sim.phase_elapsed_s))
    # every phase offers decisions at elapsed 10, 15, 20 under the default plan
    assert decision_elapsed == [(p, e) for p in range(4) for e in (10, 15, 20)]


def test_apply_action_outside_decision_point_rejected():
    sim = make_sim()
    for _ in range(5):
        step(sim)
    assert sim.phase_elapsed_s == 5
    with pytest.raises(ContractViolation):
        apply_action(sim, ACTION_END)


def test_apply_action_unknown_action_rejected():
    sim = make_sim()
    for _ in range(10):
        step(sim)
    with pytest.raises(ValueError):
        apply_action(sim, 3)


def run_to_first_decision(sim):
    while not at_decision_point(sim):
        step(sim)


def test_end_action_starts_yellow_next_tick():
    sim = make_sim()
    run_to_first_decision(sim)
    assert sim.phase_elapsed_s == 10
    apply_action(sim, ACTION_END)
    assert sim.programmed_green_s[0] == 10.0
    step(sim)
    assert sim.in_yellow


def test_extend_action_adds_delta():
    sim = make_sim()
    run_to_first_decision(sim)
    apply_action(sim, ACTION_EXTEND)
    assert sim.programmed_green_s[0] == 25.0
    # green now runs to 25 s; yellow starts on the tick after elapsed hits 25
    while not sim.in_yellow:
        step(sim)
    assert sim.phase_elapsed_s == 25


def test_extend_clamps_at_g_max():
    plan = PhasePlan(programmed_green_s=(40.0, 20.0, 20.0, 20.0))
    sim = make_sim(plan=plan)
    run_to_first_decision(sim)
    apply_action(sim, ACTION_EXTEND)
    assert sim.programmed_green_s[0] == 40.0


def test_continue_leaves_plan_unchanged():
    sim = make_sim()
    run_to_first_decision(sim)
    before = list(sim.programmed_green_s)
    apply_action(sim, ACTION_CONTINUE)
    assert sim.programmed_green_s == before


def test_cycle_wrap_restores_default_greens():
    sim = make_sim()
    run_to_first_decision(sim)
    apply_action(sim, ACTION_EXTEND)  # cycle now 105 s
    wrapped = False
    for _ in range(110):
        report = step(sim)
        if report.cycle_completed:
            wrapped = True
            break
    assert wrapped and report.tick == 106
    assert sim.programmed_green_s == [20.0, 20.0, 20.0, 20.0]


def test_greens_stay_within_bounds_under_random_actions():
    sim = make_sim(seed=11, rates=[300.0] * N_LANES)
    actions = np.random.Generator(np.random.PCG64(5)).integers(0, 3, size=400)
    i = 0
    for _ in range(2000):
        if at_decision_point(sim):
            apply_action(sim, int(actions[i % len(actions)]))
            i += 1
        step(sim)
        for g in sim.programmed_green_s:
            assert sim.plan.g_min_s <= g <= sim.plan.g_max_s


def test_install_programmed_greens_clamps_and_installs():
    sim = make_sim()
    installed = install_programmed_greens(sim, (5.0, 50.0, 15.0, 22.0))
    assert installed == (10.0, 40.0, 15.0, 22.0)
    assert sim.programmed_green_s == [10.0, 40.0, 15.0, 22.0]
    assert sim.default_green_s == [10.0, 40.0, 15.0, 22.0]


def test_install_programmed_greens_rejected_mid_phase():
    sim = make_sim()
    for _ in range(11):
        step(sim)
    with pytest.raises(ContractViolation):
        install_programmed_greens(sim, (20.0,) * 4)
    with pytest.raises(ConfigurationError):
        install_programmed_greens(make_sim(), (20.0,) * 3)


# -- invariants ----------------------------------------------------------------


def test_vehicle_conservation_every_tick():
    sim = make_sim(seed=9, rates=[450.0] * N_LANES)
    rng = np.random.Generator(np.random.PCG64(17))
    entered = np.zeros(N_LANES, dtype=np.int64)
    left = np.zeros(N_LANES, dtype=np.int64)
    for _ in range(1500):
        if at_decision_point(sim):
            apply_action(sim, int(rng.integers(0, 3)))
        report = step(sim)
        entered += report.arrivals
        left += report.discharges
        assert sim.in_transit == [sum(counts[i] for _tick, counts in sim.transit)
                                  for i in range(N_LANES)]
        assert sim.queued == [sum(count for _tick, count in runs) for runs in sim.queues]
        assert list(entered) == [left[i] + sim.queued[i] + sim.in_transit[i]
                                 for i in range(N_LANES)]


def test_determinism_with_identical_action_sequence():
    def run():
        sim = make_sim(seed=123, rates=[500.0] * N_LANES, record_events=True)
        rng = np.random.Generator(np.random.PCG64(7))
        rows = []
        for _ in range(500):
            if at_decision_point(sim):
                apply_action(sim, int(rng.integers(0, 3)))
            rows.append(step(sim).queue_lengths)
        return rows, sim.events

    rows_a, events_a = run()
    rows_b, events_b = run()
    assert rows_a == rows_b
    assert events_a == events_b


def test_unserved_lane_queue_is_non_decreasing():
    # E0 is served by phase 2, which first turns green at t = 50; before that
    # its queue can only grow
    rates = [0.0] * N_LANES
    rates[lane_index("E0")] = 900.0
    sim = make_sim(seed=2, rates=rates)
    prev = 0
    for _ in range(50):
        q = step(sim).queue_lengths[lane_index("E0")]
        assert q >= prev
        prev = q


def test_tick_report_total_queue():
    sim = make_sim(seed=4, rates=[400.0] * N_LANES)
    for _ in range(60):
        report = step(sim)
        assert report.total_queue == sum(report.queue_lengths)


# -- flow profiles -------------------------------------------------------------


def test_flow_profile_requires_tiling_segments():
    with pytest.raises(ConfigurationError):
        FlowProfile({"N0": (FlowSegment(0, 100, 10), FlowSegment(150, 200, 10))})
    with pytest.raises(ConfigurationError):
        FlowProfile({"N0": (FlowSegment(10, 100, 10),)})
    with pytest.raises(ConfigurationError):
        FlowProfile({"N0": (FlowSegment(0, 0, 10),)})
    with pytest.raises(ConfigurationError):
        FlowProfile({"N0": (FlowSegment(0, 100, -5.0),)})
    with pytest.raises(ConfigurationError):
        FlowProfile({"XX": (FlowSegment(0, 100, 10),)})
    with pytest.raises(ConfigurationError):
        FlowProfile({})


def test_flow_profile_span_must_match_across_lanes():
    with pytest.raises(ConfigurationError):
        FlowProfile({
            "N0": (FlowSegment(0, 100, 10),),
            "S0": (FlowSegment(0, 200, 10),),
        })


def test_flow_profile_regimes_must_tile_span():
    with pytest.raises(ConfigurationError):
        FlowProfile.build({"N0": [(0, 100, 10)]}, regimes=[(0, 50, "a")])
    with pytest.raises(ConfigurationError):
        FlowProfile.build({"N0": [(0, 100, 10)]},
                          regimes=[(0, 60, "a"), (70, 100, "b")])


def test_flow_profile_lookup_wraps_modulo_span():
    profile = FlowProfile.build(
        {"N0": [(0, 100, 360.0), (100, 200, 720.0)]},
        regimes=[(0, 100, "low"), (100, 200, "high")],
    )
    assert profile.span_s == 200.0
    assert rate_veh_h(profile, 0, 50) == pytest.approx(360.0)
    assert rate_veh_h(profile, 0, 150) == pytest.approx(720.0)
    assert rate_veh_h(profile, 0, 250) == pytest.approx(360.0)  # wrapped
    assert profile.regime_at(150) == "high"
    assert profile.regime_at(250) == "low"
    rates, valid = profile.rates_and_horizon(90)
    assert rates[0] == pytest.approx(0.1)
    assert valid == pytest.approx(10.0)


def test_flow_profile_build_fills_missing_lanes_with_zero():
    profile = FlowProfile.build({"N0": [(0, 100, 10)]})
    assert set(profile.lane_segments) == set(LANE_IDS)
    assert rate_veh_h(profile, lane_index("W1"), 50) == 0.0


def test_flow_profile_uniform_and_scaled():
    with pytest.raises(ConfigurationError):
        FlowProfile.uniform([100.0] * 3)
    profile = FlowProfile.uniform([100.0] * N_LANES, span_s=500.0)
    doubled = profile.scaled([2.0] * N_LANES)
    assert rate_veh_h(doubled, 3, 10) == pytest.approx(200.0)
    with pytest.raises(ConfigurationError):
        profile.scaled([2.0] * 3)


def test_phase_served_covers_all_lanes_once():
    served = [lane for lanes in PHASE_SERVED for lane in lanes]
    assert sorted(served) == list(range(N_LANES))
    assert len(PHASE_SERVED) == N_PHASES


# -- equivalence with a per-vehicle model --------------------------------------


class PerVehicleLanes:
    """Reference point-queue lanes that keep one record per vehicle and draw
    arrivals one tick at a time, from rates looked up afresh every tick.

    The signal state of each tick is taken from the simulator under test;
    everything that happens in the lanes is recomputed here.
    """

    def __init__(self, layout, flows, seed):
        self.layout = layout
        self.flows = flows
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.transit = [deque() for _ in range(N_LANES)]  # (stopline eta, id)
        self.queue = [deque() for _ in range(N_LANES)]  # (join tick, id)
        self.credit = [0.0] * N_LANES
        self.passed = [0] * N_LANES
        self.discharged = [0] * N_LANES
        self.events = []
        self.next_id = 0

    def tick(self, clock, served, green_flowing, signal_changed):
        if signal_changed:
            self.credit = [0.0] * N_LANES
        counts = self.rng.poisson(self.flows.rates_and_horizon(clock - 1)[0])
        for i in range(N_LANES):
            for _ in range(int(counts[i])):
                self.transit[i].append(
                    (clock + self.layout.travel_time_to_stopline_s, self.next_id))
                self.events.append((clock, LANE_IDS[i], "enter", self.next_id))
                self.next_id += 1
        discharges = [0] * N_LANES
        for i in range(N_LANES):
            while self.transit[i] and self.transit[i][0][0] <= clock:
                _eta, vid = self.transit[i].popleft()
                if green_flowing and i in served and not self.queue[i]:
                    self.passed[i] += 1
                    discharges[i] += 1
                    self.events.append((clock, LANE_IDS[i], "pass", vid))
                else:
                    self.queue[i].append((clock, vid))
                    self.events.append((clock, LANE_IDS[i], "join", vid))
        if green_flowing:
            for i in served:
                self.credit[i] += 1.0 / self.layout.saturation_headway_s
                while self.credit[i] >= 1.0 and self.queue[i]:
                    _join, vid = self.queue[i].popleft()
                    self.credit[i] -= 1.0
                    self.discharged[i] += 1
                    discharges[i] += 1
                    self.events.append((clock, LANE_IDS[i], "discharge", vid))
        return tuple(int(c) for c in counts), tuple(discharges)


@st.composite
def lane_scenarios(draw):
    layout = IntersectionLayout(
        travel_time_to_stopline_s=draw(st.one_of(
            st.sampled_from([0.0, 0.5, 1.0, 7.5, 15.0]),
            st.floats(0.0, 20.0, allow_nan=False))),
        saturation_headway_s=draw(st.one_of(
            st.sampled_from([1.0, 1.5, 2.0, 2.5]), st.floats(0.6, 4.0))),
        startup_lost_time_s=draw(st.one_of(
            st.sampled_from([0.0, 1.0, 2.0, 3.0]), st.floats(0.0, 3.0))),
    )
    g_min = draw(st.integers(1, 15))
    g_max = g_min + draw(st.integers(0, 25))
    plan = PhasePlan(
        programmed_green_s=tuple(draw(st.floats(g_min, g_max)) for _ in range(N_PHASES)),
        yellow_s=draw(st.integers(1, 6)),
        g_min_s=g_min,
        g_max_s=g_max,
        delta_time_s=draw(st.integers(1, 10)),
    )
    # one to three segments per lane over a shared span, cut anywhere, at
    # rates from idle to well past the saturation flow
    span = draw(st.floats(20.0, 400.0))
    rates = {}
    for lane in LANE_IDS:
        cuts = sorted(set(draw(st.lists(st.floats(1.0, span - 1.0), max_size=2))))
        bounds = [0.0] + cuts + [span]
        rates[lane] = [(a, b, draw(st.floats(0.0, 4000.0)))
                       for a, b in zip(bounds, bounds[1:])]
    flows = FlowProfile.build(rates)
    actions = draw(st.lists(st.integers(0, 2), min_size=1, max_size=50))
    return layout, plan, flows, actions, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(lane_scenarios())
def test_counter_lanes_match_per_vehicle_model(scenario):
    layout, plan, flows, actions, seed, record_events = scenario
    sim = new_simulation(layout, plan, flows, seed, record_events=record_events)
    ref = PerVehicleLanes(layout, flows, seed)
    entered = [0] * N_LANES
    decisions = 0
    for _ in range(600):
        if at_decision_point(sim):
            apply_action(sim, actions[decisions % len(actions)])
            decisions += 1
        was_yellow = sim.in_yellow
        report = step(sim)
        green_flowing = (not report.in_yellow
                         and sim.phase_elapsed_s - 1 >= layout.startup_lost_time_s)
        arrivals, discharges = ref.tick(sim.clock, PHASE_SERVED[report.phase],
                                        green_flowing, report.in_yellow != was_yellow)
        assert report.arrivals == arrivals
        assert report.discharges == discharges
        assert report.queue_lengths == tuple(len(q) for q in ref.queue)
        for i in range(N_LANES):
            entered[i] += arrivals[i]
            waits = sum(sim.clock - join for join, _vid in ref.queue[i])
            assert sim.lane_wait_s(i) == waits
            assert sim.lane_observables(i)[:3] == (len(ref.transit[i]), len(ref.queue[i]),
                                                   waits)
            assert entered[i] == (ref.passed[i] + ref.discharged[i]
                                  + sim.queued[i] + sim.in_transit[i])
    if record_events:
        assert sim.events == ref.events
