"""Simulator unit tests: formula oracles, point-queue dynamics, the phase
machine, flow profiles, and the module's invariants."""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (compensated_sum, cycle_queue_metric, force_queue, force_transit,
                      lane_index, rate_veh_h, step_crossings, uniform_profile)
from tsclab.envs import run_to_decision
from tsclab.errors import ConfigurationError, ContractViolation
from tsclab.harness.metrics import CycleTracker
from tsclab.sim import (
    ACTION_CONTINUE,
    ACTION_END,
    ACTION_EXTEND,
    DEPARTURE_SLACK_S,
    FlowProfile,
    IntersectionLayout,
    LANE_IDS,
    N_LANES,
    N_PHASES,
    PHASE_SERVED,
    PhasePlan,
    SimState,
    apply_action,
    at_decision_point,
    install_programmed_greens,
    step,
)


def make_sim(seed=0, rates=None, layout=None, plan=None):
    flows = uniform_profile(rates if rates is not None else [0.0] * N_LANES)
    return SimState(layout or IntersectionLayout(), plan or PhasePlan(), flows, seed)


# -- construction --------------------------------------------------------------


def test_new_simulation_starts_empty():
    sim = make_sim(seed=7)
    assert sim.clock == 0
    assert sim.current_phase == 0
    assert sim.phase_elapsed_s == 0
    assert not sim.in_yellow
    assert tuple(sim.queued) == (0,) * N_LANES
    assert not sim.transit
    assert sim.completed_cycles == []


def test_layout_field_validation():
    with pytest.raises(ConfigurationError):
        IntersectionLayout(saturation_headway_s=0.0)
    with pytest.raises(ConfigurationError):
        IntersectionLayout(travel_time_to_stopline_s=-1.0)
    assert IntersectionLayout().saturation_flow_veh_h == pytest.approx(1800.0)


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        PhasePlan(g_min_s=40.0, g_max_s=10.0)
    with pytest.raises(ConfigurationError):
        PhasePlan(greens_s=(5.0, 20.0, 20.0, 20.0))
    with pytest.raises(ConfigurationError):
        PhasePlan(yellow_s=0.0)
    with pytest.raises(ConfigurationError):
        PhasePlan(delta_time_s=0.0)
    with pytest.raises(ConfigurationError):
        PhasePlan(greens_s=(20.0, 20.0, 20.0))
    assert PhasePlan().default_cycle_s == pytest.approx(100.0)


@pytest.mark.parametrize("field, value", [
    ("g_min_s", 10.5),  # would never reach a decision point
    ("yellow_s", 4.6),  # would run as 5 s
    ("g_max_s", 39.9),
    ("delta_time_s", 2.5),
    ("yellow_s", float("inf")),
    ("greens_s", (20.5, 20.0, 20.0, 20.0)),  # would run as 21 s
])
def test_plan_timings_must_be_whole_seconds(field, value):
    with pytest.raises(ConfigurationError, match=field):
        PhasePlan(**{field: value})


def test_cycle_length_sums_the_greens_left_to_right(monkeypatch):
    # these greens sum to other bits under a compensated sum, as builtin sum
    # takes floats from Python 3.12 on; the cycle length must not depend on
    # it.  A plan's greens are whole seconds, so the fractional ones are
    # installed, as Webster installs its greens
    import tsclab.sim
    import tsclab.staterep
    from tsclab.staterep import baseline_state

    greens = (24.9, 23.5, 29.5, 33.7)
    in_order = ((greens[0] + greens[1]) + greens[2]) + greens[3]
    assert compensated_sum(greens) != in_order
    for module in (tsclab.sim, tsclab.staterep):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    sim = make_sim()
    install_programmed_greens(sim, greens)
    assert baseline_state(sim)[0] == in_order + N_PHASES * sim.plan.yellow_s


def test_fractional_programmed_green_ends_on_next_whole_second():
    sim = make_sim()
    install_programmed_greens(sim, (12.5, 20.0, 20.0, 20.0))
    while not sim.in_yellow:
        step(sim)
    assert sim.phase_elapsed_s == 13


def test_same_seed_reproduces_arrival_events():
    logs = []
    for _ in range(2):
        sim = make_sim(seed=42, rates=[400.0] * N_LANES)
        arrivals = []
        while sum(map(sum, arrivals)) < 1000:
            arrivals.append(tuple(step(sim).arrivals))
        logs.append(arrivals)
    assert logs[0] == logs[1]


# -- point-queue dynamics ------------------------------------------------------


def test_queue_of_five_clears_in_twelve_green_seconds():
    # startup 2 s, then one vehicle per 2 s headway: empties exactly at t=12
    sim = make_sim()
    force_queue(sim, 0, 5)
    trace = []
    for _ in range(12):
        step(sim)
        trace.append(sim.queued[0])
    assert trace == [5, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1, 0]


def test_queue_discharge_rate_bounded_by_saturation():
    sim = make_sim()
    force_queue(sim, 0, 30)
    total = 0
    for _ in range(20):
        crossed = step_crossings(sim)[0]
        assert crossed <= 1.0 / sim.layout.saturation_headway_s + 1
        total += crossed
    # 20 s green minus 2 s startup at one vehicle per 2 s
    assert total == 9


def departure_curve(headway, startup, green_s, queue):
    """N0's departures so far after each tick of a phase-0 green of
    ``green_s`` seconds and the 5 s yellow after it, from a queue of
    ``queue`` vehicles with nothing arriving."""
    layout = IntersectionLayout(saturation_headway_s=headway, startup_lost_time_s=startup)
    plan = PhasePlan(greens_s=(float(green_s),) * N_PHASES, g_min_s=1, g_max_s=green_s)
    sim = make_sim(layout=layout, plan=plan)
    force_queue(sim, 0, queue)
    departed = [0]
    for _ in range(green_s + int(plan.yellow_s)):
        departed.append(departed[-1] + step_crossings(sim)[0])
    return departed[1:]


@pytest.mark.parametrize("headway, whole_headways", [
    (0.7, 17), (1.2, 10), (1.5, 8), (1.6, 7), (2.0, 6), (2.5, 4), (3.3, 3)])
def test_green_discharges_every_whole_headway(headway, whole_headways):
    # a 12 s green with no startup loss lets floor(12 / h) queued vehicles go,
    # whatever the headway's binary rounding (a summed 1/h credit let 7 go at 1.5 s)
    departed = departure_curve(headway, 0, 12, 30)
    assert departed[11] == departed[-1] == whole_headways


@settings(max_examples=100, deadline=None)
@given(st.integers(60, 400), st.integers(0, 3), st.integers(1, 40), st.integers(0, 40))
@example(112, 0, 28, 30)  # 25 x 1.12 s multiply out to 28.000000000000004 s
def test_departures_after_f_flowing_ticks_are_floor_f_over_h(centis, startup, green_s, queue):
    # the headway is centis / 100 s; until its queue empties, a served lane
    # has let floor(f / h) vehicles go after f flowing ticks, counted in exact
    # decimal.  The startup loss and the yellow let none go.
    departed = departure_curve(centis / 100, startup, green_s, queue)
    flowing = [max(0, min(t, green_s) - startup) for t in range(1, len(departed) + 1)]
    assert departed == [min(queue, f * 100 // centis) for f in flowing]


def test_no_discharge_during_yellow():
    sim = make_sim(seed=3, rates=[600.0] * N_LANES)
    for _ in range(400):
        crossed = step_crossings(sim)
        if sim.in_yellow:
            assert sum(crossed) == 0


def test_step_returns_sim_with_the_tick_on_it():
    # tools that wrap step (the benchmark's span tracer) read the tick's
    # arrivals from its return value
    rates = [900.0, 0.0, 450.0, 300.0, 1200.0, 60.0, 700.0, 2000.0]
    sim = make_sim(seed=21, rates=rates)
    ref = np.random.Generator(np.random.PCG64(21))
    for _ in range(300):
        assert step(sim) is sim
        assert sim.arrivals == ref.poisson(np.array(rates) / 3600.0).tolist()


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
    sim = make_sim()
    for _ in range(3):
        step(sim)  # phase_elapsed 3 >= startup 2
    force_transit(sim, 0, 1, stopline_tick=sim.clock + 1)
    assert step_crossings(sim)[0] == 1
    assert sim.queued[0] == 0
    assert not sim.queues[0] and sim.cycle_lane_max[0] == 0  # never queued
    assert sim.departed[0] == 0  # nor discharged: it passed the stopline


def test_unserved_arrival_joins_queue():
    sim = make_sim()
    for _ in range(3):
        step(sim)
    lane = lane_index("E0")  # phase 2 lane, not served during phase 0
    force_transit(sim, lane, 1, stopline_tick=sim.clock + 1)
    assert step_crossings(sim)[lane] == 0
    assert list(sim.queues[lane]) == [[sim.clock, 1]]
    assert sim.queued[lane] == 1
    assert sim.lane_wait_s(lane) == 0  # joined this tick


def test_arrival_before_startup_queues_then_discharges():
    sim = make_sim()
    force_transit(sim, 0, 1, stopline_tick=1)
    # phase_elapsed 0 < startup: must queue even though served
    assert step_crossings(sim)[0] == 0
    assert list(sim.queues[0]) == [[1, 1]]
    discharged = 0
    for _ in range(3):
        discharged += step_crossings(sim)[0]
    assert discharged == 1
    assert sim.queued[0] == 0 and not sim.queues[0]


# -- observation helpers -------------------------------------------------------


def test_approach_queues_take_lane_maximum():
    sim = make_sim()
    for lane, count in enumerate((4, 4, 0, 2, 9, 1, 5, 5)):
        force_queue(sim, lane, count)
    assert sim.approach_queues() == (4, 2, 9, 5)
    assert sum(sim.queued) == 30


def test_approach_queues_empty():
    assert make_sim().approach_queues() == (0, 0, 0, 0)


def test_approaching_counts_each_lanes_vehicles_in_transit():
    sim = make_sim()
    force_queue(sim, 0, 3)
    force_transit(sim, 0, 2, stopline_tick=10**9)
    force_transit(sim, 5, 4, stopline_tick=10**9)
    force_transit(sim, 0, 1, stopline_tick=10**9 + 1)
    assert sim.approaching() == [3, 0, 0, 0, 0, 4, 0, 0]
    assert sim.queued[0] == 3


def test_lane_wait_accumulates():
    sim = make_sim()
    force_queue(sim, 0, 1, join_tick=50)
    sim.clock = 60
    assert sim.lane_wait_s(0) == 10


def test_empty_lanes_read_zero():
    sim = make_sim()
    assert sim.approaching() == [0] * N_LANES
    assert [sim.lane_wait_s(i) for i in range(N_LANES)] == [0] * N_LANES


# -- phase machine -------------------------------------------------------------


def test_default_cycle_wraps_at_tick_101():
    sim = make_sim()
    wrap_ticks = []
    for _ in range(210):
        completed = len(sim.completed_cycles)
        step(sim)
        if len(sim.completed_cycles) > completed:
            wrap_ticks.append(sim.clock)
    assert wrap_ticks == [101, 201]
    assert [entry[:2] for entry in sim.completed_cycles] == [(1, 100), (101, 100)]
    assert all(entry[3] == (20, 20, 20, 20) for entry in sim.completed_cycles)


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
    plan = PhasePlan(greens_s=(40.0, 20.0, 20.0, 20.0))
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
        step(sim)
        if len(sim.completed_cycles) == 1:
            wrapped = True
            break
    assert wrapped and sim.clock == 106
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
    install_programmed_greens(sim, (5.0, 50.0, 15.0, 22.0))
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


def test_unserved_lane_queue_is_non_decreasing():
    # E0 is served by phase 2, which first turns green at t = 50; before that
    # its queue can only grow
    rates = [0.0] * N_LANES
    rates[lane_index("E0")] = 900.0
    sim = make_sim(seed=2, rates=rates)
    prev = 0
    for _ in range(50):
        q = step(sim).queued[lane_index("E0")]
        assert q >= prev
        prev = q


# -- flow profiles -------------------------------------------------------------


def test_flow_profile_requires_tiling_segments():
    for rates in (
        {"N0": [(0, 100, 10), (150, 200, 10)]},  # gap
        {"N0": [(0, 100, 10), (90, 200, 10)]},  # overlap
        {"N0": [(10, 100, 10)]},  # does not start at 0
        {"N0": [(0, 0, 10)]},  # empty segment
        {"N0": [(0, 100, -5.0)]},
        {"N0": [(0, 100, float("nan"))]},
        {"N0": [(0, 100, float("inf"))]},
        {"N0": [(0, float("inf"), 10)]},
        {"N0": [(0, float("nan"), 10)]},
        {"XX": [(0, 100, 10)]},
        {"N0": []},
        {},
    ):
        with pytest.raises(ConfigurationError):
            FlowProfile.build(rates)


def test_flow_profile_span_must_match_across_lanes():
    with pytest.raises(ConfigurationError):
        FlowProfile.build({"N0": [(0, 100, 10)], "S0": [(0, 200, 10)]})


def test_flow_profile_regimes_must_tile_span():
    with pytest.raises(ConfigurationError):
        FlowProfile.build({"N0": [(0, 100, 10)]}, regimes=[(0, 50, "a")])
    with pytest.raises(ConfigurationError):
        FlowProfile.build({"N0": [(0, 100, 10)]},
                          regimes=[(0, 60, "a"), (70, 100, "b")])
    with pytest.raises(ConfigurationError):
        FlowProfile.build({"N0": [(0, 100, 10)]},
                          regimes=[(0, 60, "a"), (60, 60, "b"), (60, 100, "c")])
    # regimes label lanes' demand: alone they are refused
    with pytest.raises(ConfigurationError):
        FlowProfile.build({}, regimes=[(0, 100, "a")])


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
    assert profile.starts_s == (0,) and profile.span_s == 100
    assert profile.rates_veh_h == ((10, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),)
    assert profile.regimes == ("",)
    assert rate_veh_h(profile, lane_index("W1"), 50) == 0.0


def test_flow_profile_uniform_and_scaled():
    profile = uniform_profile([100.0] * N_LANES, span_s=500.0)
    doubled = profile.scaled([2.0] * N_LANES)
    assert rate_veh_h(doubled, 3, 10) == pytest.approx(200.0)
    with pytest.raises(ConfigurationError):
        profile.scaled([2.0] * 3)


def test_flow_rates_numpy_cannot_draw_are_refused():
    # numpy draws Poisson counts at a mean of at most int64 max less ten of
    # its square roots (about 9.22e18); a tick's mean is the rate / 3600
    limit = float(np.iinfo(np.int64).max) - 10.0 * np.sqrt(np.iinfo(np.int64).max)
    top = limit * 3600.0
    while top / 3600.0 > limit:
        top = np.nextafter(top, 0.0)
    while np.nextafter(top, np.inf) / 3600.0 <= limit:
        top = np.nextafter(top, np.inf)
    top, above = float(top), float(np.nextafter(top, np.inf))
    e1 = lane_index("E1")
    # the largest rate at the limit builds and draws
    sim = SimState(IntersectionLayout(), PhasePlan(),
                   FlowProfile.build({"E1": [(0.0, 10.0, top)]}), 0)
    assert step(sim).arrivals[e1] > 0
    with pytest.raises(ConfigurationError, match="flow.E1 arrival rate"):
        FlowProfile.build({"E1": [(0.0, 10.0, above)]})
    # a scaled profile is checked the same way, lane by lane
    unit = FlowProfile.build({"E1": [(0.0, 10.0, 1.0)]})
    factors = [1.0] * N_LANES
    factors[e1] = top
    assert unit.scaled(factors).rates_veh_h[0][e1] == top
    factors[e1] = above
    with pytest.raises(ConfigurationError, match="flow.E1 arrival rate"):
        unit.scaled(factors)


def segment_lookup(segments, t_s):
    """``(value, end)`` of the segment of a tiling that holds ``t_s``: the
    per-lane search the flow table replaces, kept as its reference."""
    for start, end, value in segments:
        if start <= t_s < end:
            return value, end
    raise AssertionError(f"{t_s} outside the tiling")


def tilings(draw, span, values):
    cuts = draw(st.sets(st.integers(0, int(span)).map(float), max_size=4))
    bounds = sorted({0.0, *cuts, span})
    return [(a, b, draw(values)) for a, b in zip(bounds, bounds[1:])]


@st.composite
def flow_tables(draw):
    """Lanes cut at their own breakpoints, regimes (or none) cut at theirs,
    and a clock that is often a breakpoint and often past the span."""
    span = float(draw(st.integers(1, 3000)))
    lanes = sorted(draw(st.sets(st.sampled_from(LANE_IDS), min_size=1)))
    rates = {lane: tilings(draw, span, st.floats(0.0, 4000.0)) for lane in lanes}
    regimes = (tilings(draw, span, st.sampled_from(("low", "medium", "high")))
               if draw(st.booleans()) else [])
    starts = [start for segments in (*rates.values(), regimes) for start, _e, _v in segments]
    t_s = draw(st.one_of(st.sampled_from(starts), st.integers(0, 20_000),
                         st.floats(0.0, 20_000.0)))
    return rates, regimes, t_s


@settings(max_examples=200, deadline=None)
@given(flow_tables())
def test_flow_table_matches_per_lane_segment_search(table):
    rates, regimes, t_s = table
    profile = FlowProfile.build(rates, regimes)
    t = t_s % profile.span_s
    looked_up = [segment_lookup(rates[lane], t) if lane in rates else (0.0, profile.span_s)
                 for lane in LANE_IDS]
    ends = [end for _rate, end in looked_up]
    label = ""
    if regimes:
        label, regime_end = segment_lookup(regimes, t)
        ends.append(regime_end)
    got_rates, horizon = profile.rates_and_horizon(t_s)
    np.testing.assert_array_equal(got_rates, [rate / 3600.0 for rate, _end in looked_up])
    assert horizon == min(ends) - t
    assert profile.regime_at(t_s) == label


def test_misaligned_regimes_leave_arrivals_unchanged(plan):
    # each lane breaks at its own times; the regimes break inside lane
    # segments, which splits arrival blocks but leaves each tick's draw as is
    span = 3000.0
    rates = {lane: [(0.0, cut, rate), (cut, span, 3 * rate)]
             for lane, cut, rate in zip(LANE_IDS, (1000.0, 1000.0, 1500.0, 1500.0,
                                                   1000.0, 2000.0, 1500.0, 2000.0),
                                        (60.0, 20.0, 100.0, 30.0, 60.0, 20.0, 100.0, 30.0))}
    regimes = [(0.0, 701.0, "low"), (701.0, 2222.0, "medium"), (2222.0, span, "high")]
    plain, labelled = FlowProfile.build(rates), FlowProfile.build(rates, regimes)
    assert len(labelled.starts_s) > len(plain.starts_s)
    for seed in range(5):
        sims = [SimState(IntersectionLayout(), plan, flows, seed) for flows in (plain, labelled)]
        for _ in range(4000):  # past the span, so the table wraps
            assert step(sims[0]).arrivals == step(sims[1]).arrivals


def test_fractional_flow_bounds_and_timings_are_rejected():
    # the simulator ticks once a second: a bound, a span, a travel time or a
    # startup loss off the whole second is refused, not rounded
    for rates, regimes, key in [
            ({"N0": [(0.0, 100.5, 300.0), (100.5, 200.0, 500.0)]}, [], "flow.N0"),
            ({"N0": [(0.0, 200.5, 300.0)]}, [], "flow.N0"),
            ({"N0": [(0.0, 200.0, 300.0)]}, [(0.0, 100.5, "high"), (100.5, 200.0, "low")],
             "flow.regimes")]:
        with pytest.raises(ConfigurationError, match=f"{key} bound must be a whole number"):
            FlowProfile.build(rates, regimes)
    for name in ("travel_time_to_stopline_s", "startup_lost_time_s"):
        with pytest.raises(ConfigurationError, match=f"sim.{name} must be a whole number"):
            IntersectionLayout(**{name: 2.5})
    layout = IntersectionLayout(travel_time_to_stopline_s=0.0, startup_lost_time_s=0.0)
    assert layout.travel_time_to_stopline_s == layout.startup_lost_time_s == 0.0


def test_phase_served_covers_all_lanes_once():
    served = [lane for lanes in PHASE_SERVED for lane in lanes]
    assert sorted(served) == list(range(N_LANES))
    assert len(PHASE_SERVED) == N_PHASES


# -- equivalence with a per-vehicle model --------------------------------------


class PerVehicleLanes:
    """Reference point-queue lanes that keep one record per vehicle and draw
    arrivals one tick at a time, from rates looked up afresh every tick.

    The signal state of each tick is taken from the simulator under test;
    everything that happens in the lanes is recomputed here.  Vehicles get
    increasing ids as they enter, and every vehicle that crosses a lane's
    stopline, passing or discharged, must have entered after the one that
    crossed before it: each lane is first in, first out.
    """

    def __init__(self, layout, flows, seed):
        self.layout = layout
        self.flows = flows
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.transit = [deque() for _ in range(N_LANES)]  # (stopline eta, id)
        self.queue = [deque() for _ in range(N_LANES)]  # (join tick, id)
        self.flowing = 0  # flowing ticks of the current green
        self.departed = [0] * N_LANES  # queued vehicles let go this green
        self.passed = [0] * N_LANES
        self.discharged = [0] * N_LANES
        self.last_crossed = [-1] * N_LANES
        self.next_id = 0

    def _cross(self, lane, vid):
        assert vid > self.last_crossed[lane], "a lane let a vehicle overtake"
        self.last_crossed[lane] = vid

    def tick(self, clock, served, green_flowing, signal_changed):
        if signal_changed:
            self.flowing = 0
            self.departed = [0] * N_LANES
        counts = self.rng.poisson(self.flows.rates_and_horizon(clock - 1)[0])
        for i in range(N_LANES):
            for _ in range(int(counts[i])):
                self.transit[i].append(
                    (clock + self.layout.travel_time_to_stopline_s, self.next_id))
                self.next_id += 1
        discharges = [0] * N_LANES
        for i in range(N_LANES):
            while self.transit[i] and self.transit[i][0][0] <= clock:
                _eta, vid = self.transit[i].popleft()
                if green_flowing and i in served and not self.queue[i]:
                    self.passed[i] += 1
                    discharges[i] += 1
                    self._cross(i, vid)
                else:
                    self.queue[i].append((clock, vid))
        if green_flowing:
            self.flowing += 1
            for i in served:
                while (self.queue[i] and (self.departed[i] + 1) * self.layout.saturation_headway_s
                       <= self.flowing + DEPARTURE_SLACK_S):
                    _join, vid = self.queue[i].popleft()
                    self.departed[i] += 1
                    self.discharged[i] += 1
                    discharges[i] += 1
                    self._cross(i, vid)
        return tuple(int(c) for c in counts), tuple(discharges)


@st.composite
def plans(draw):
    g_min = draw(st.integers(1, 15))
    g_max = g_min + draw(st.integers(0, 25))
    return PhasePlan(
        greens_s=tuple(float(draw(st.integers(g_min, g_max))) for _ in range(N_PHASES)),
        yellow_s=draw(st.integers(1, 6)),
        g_min_s=g_min,
        g_max_s=g_max,
        delta_time_s=draw(st.integers(1, 10)),
    )


@settings(max_examples=200, deadline=None)
@given(plan=plans(), actions=st.lists(st.integers(0, 2), min_size=1, max_size=50))
# every green at g_max with no decision past g_min: each gap is one green
# and its yellow, a quarter of the bound
@example(PhasePlan((40.0,) * N_PHASES, yellow_s=5, g_min_s=40, g_max_s=40, delta_time_s=5),
         [ACTION_CONTINUE])
def test_a_decision_point_comes_within_the_longest_cycle(plan, actions):
    # the bound that SignalControlEnv, PhasePlan.check_horizon and
    # collect_state_buffer rely on: from the start and after every action,
    # the next decision point comes less than longest_cycle_s ticks later
    sim = make_sim(plan=plan)
    for decision in range(60):
        start = sim.clock
        assert run_to_decision(sim, start + plan.longest_cycle_s)
        assert 0 < sim.clock - start < plan.longest_cycle_s
        apply_action(sim, actions[decision % len(actions)])


@st.composite
def lane_scenarios(draw):
    layout = IntersectionLayout(
        travel_time_to_stopline_s=float(draw(st.integers(0, 20))),
        saturation_headway_s=draw(st.one_of(
            st.sampled_from([1.0, 1.5, 2.0, 2.5]), st.floats(0.6, 4.0))),
        startup_lost_time_s=float(draw(st.integers(0, 3))),
    )
    plan = draw(plans())
    # one to three segments per lane over a shared span, cut on any whole
    # second, at rates from idle to well past the saturation flow
    span = float(draw(st.integers(20, 400)))
    rates = {}
    for lane in LANE_IDS:
        cuts = sorted(set(draw(st.lists(st.integers(1, int(span) - 1).map(float), max_size=2))))
        bounds = [0.0] + cuts + [span]
        rates[lane] = [(a, b, draw(st.floats(0.0, 4000.0)))
                       for a, b in zip(bounds, bounds[1:])]
    flows = FlowProfile.build(rates)
    actions = draw(st.lists(st.integers(0, 2), min_size=1, max_size=50))
    return layout, plan, flows, actions, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(lane_scenarios())
# one row longer than an arrival block, and a run past the span: the row's
# second block reads the same rates for the ticks the first left, and the
# wrapped run reads the first row again
@example((IntersectionLayout(), PhasePlan(),
          FlowProfile.build({lane: [(0.0, 300.0, rate), (300.0, 400.0, 2 * rate)]
                             for lane, rate in zip(LANE_IDS, range(300, 1100, 100))}),
          [ACTION_CONTINUE], 11))
def test_counter_lanes_match_per_vehicle_model(scenario):
    layout, plan, flows, actions, seed = scenario
    sim = SimState(layout, plan, flows, seed)
    ref = PerVehicleLanes(layout, flows, seed)
    entered = [0] * N_LANES
    decisions = 0
    ref_queues = []  # the reference lanes' end-of-tick queue lengths, per tick
    tracker = CycleTracker(flows)
    replayed = 0
    for _ in range(600):
        if at_decision_point(sim):
            apply_action(sim, actions[decisions % len(actions)])
            decisions += 1
        was_yellow = sim.in_yellow
        crossed = step_crossings(sim)
        green_flowing = (not sim.in_yellow
                         and sim.phase_elapsed_s - 1 >= layout.startup_lost_time_s)
        arrivals, discharges = ref.tick(sim.clock, PHASE_SERVED[sim.current_phase],
                                        green_flowing, sim.in_yellow != was_yellow)
        assert tuple(sim.arrivals) == arrivals
        assert tuple(crossed) == discharges
        assert tuple(sim.queued) == tuple(len(q) for q in ref.queue)
        approaching = sim.approaching()
        for i in range(N_LANES):
            entered[i] += arrivals[i]
            waits = sum(sim.clock - join for join, _vid in ref.queue[i])
            assert sim.lane_wait_s(i) == waits
            assert approaching[i] == len(ref.transit[i])
            assert entered[i] == (ref.passed[i] + ref.discharged[i]
                                  + sim.queued[i] + approaching[i])
        # Q_cycle: each completed cycle's lane maxima, and the running maxima
        # of the cycle in progress, replayed from the reference's tick log
        ref_queues.append(tuple(len(q) for q in ref.queue))
        for start, length, lane_max, green_s in sim.completed_cycles[replayed:]:
            ticks = ref_queues[start - 1:start - 1 + length]
            assert len(ticks) == length
            assert lane_max == tuple(max(lane) for lane in zip(*ticks))
            assert (tracker.feed((start, length, lane_max, green_s))
                    == cycle_queue_metric(ticks, green_s))
            replayed += 1
        assert sim.cycle_lane_max == [max(lane) for lane in
                                      zip(*ref_queues[sim.cycle_start_tick - 1:])]


@settings(max_examples=30, deadline=None)
@given(lane_scenarios())
def test_determinism_with_identical_action_sequence(scenario):
    # two runs of one configuration, seed and action sequence agree tick for
    # tick, over random valid configurations
    layout, plan, flows, actions, seed = scenario

    def run():
        sim = SimState(layout, plan, flows, seed)
        decisions = 0
        rows = []
        for _ in range(600):
            if at_decision_point(sim):
                apply_action(sim, actions[decisions % len(actions)])
                decisions += 1
            crossed = step_crossings(sim)
            rows.append((tuple(sim.arrivals), tuple(sim.queued), tuple(sim.join_ticks),
                         tuple(crossed)))
        return rows, sim.completed_cycles

    rows_a, cycles_a = run()
    rows_b, cycles_b = run()
    assert rows_a == rows_b
    assert cycles_a == cycles_b and cycles_a


@settings(max_examples=30, deadline=None)
@given(lane_scenarios())
def test_vehicle_conservation_every_tick(scenario):
    # no vehicle appears or vanishes, over random valid configurations: a
    # tick's crossings, the change in a lane's held vehicles net of its
    # arrivals, are never negative and fall only on the lanes of a flowing green
    layout, plan, flows, actions, seed = scenario
    sim = SimState(layout, plan, flows, seed)
    decisions = 0
    for _ in range(600):
        if at_decision_point(sim):
            apply_action(sim, actions[decisions % len(actions)])
            decisions += 1
        crossed = step_crossings(sim)
        assert sim.queued == [sum(count for _tick, count in runs) for runs in sim.queues]
        assert min(crossed) >= 0
        flowing = (not sim.in_yellow
                   and sim.phase_elapsed_s - 1 >= sim.layout.startup_lost_time_s)
        open_lanes = PHASE_SERVED[sim.current_phase] if flowing else ()
        assert all(not crossed[i] for i in range(N_LANES) if i not in open_lanes)
