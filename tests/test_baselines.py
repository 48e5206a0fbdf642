"""Classical controller tests: the cycle-length formula, the lost-time checks,
the fixed-time controller, and the flow-driven recomputing controller."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compensated_sum, uniform_profile
import tsclab.baselines as baselines
from tsclab.baselines import (
    DynamicWebsterController,
    FixedTimeController,
    WebsterSettings,
    default_lost_time_s,
    webster_timings,
)
from tsclab.errors import ConfigurationError
from tsclab.harness.metrics import write_cycles_csv
from tsclab.harness.runner import run_episode
from tsclab.sim import (
    ACTION_CONTINUE,
    FlowProfile,
    IntersectionLayout,
    N_LANES,
    N_PHASES,
    PHASE_SERVED,
    PhasePlan,
    SimState,
    apply_action,
    at_decision_point,
    step,
)

LAYOUT = IntersectionLayout()
PLAN = PhasePlan()


def uniform_flows(rate):
    return uniform_profile([rate] * N_LANES)


# -- cycle-length formula --------------------------------------------------------


def test_webster_reference_case():
    cycle_s, greens_s, saturated = webster_timings(12.0, (0.3, 0.1, 0.15, 0.05), PLAN)
    assert cycle_s == pytest.approx(57.5, abs=1e-9)
    assert greens_s == pytest.approx((22.75, 10.0, 11.375, 10.0), abs=1e-9)
    assert not saturated


def test_webster_zero_demand_gives_minimal_plan():
    cycle_s, greens_s, saturated = webster_timings(12.0, (0.0, 0.0, 0.0, 0.0), PLAN)
    assert cycle_s == pytest.approx(23.0, abs=1e-12)
    assert greens_s == (10.0, 10.0, 10.0, 10.0)
    assert not saturated


def test_webster_cycle_capped_near_saturation():
    cycle_s, _greens_s, saturated = webster_timings(12.0, (0.9, 0.03, 0.03, 0.03), PLAN)
    assert cycle_s == 180.0
    assert not saturated


def test_webster_sums_its_flow_ratios_left_to_right(monkeypatch):
    # these ratios sum to other bits under a compensated sum, as builtin sum
    # takes floats from Python 3.12 on; the timings must not depend on it
    y = (0.027586206896551724, 0.013793103448275862, 0.10344827586206896,
         0.013793103448275862)
    assert compensated_sum(y) != ((y[0] + y[1]) + y[2]) + y[3]
    expected = webster_timings(20.0, y, PLAN)
    monkeypatch.setattr(baselines, "sum", compensated_sum, raising=False)
    assert webster_timings(20.0, y, PLAN) == expected


def test_webster_saturated_falls_back_to_max_plan():
    for y in ((0.25, 0.25, 0.25, 0.25), (1.2, 0.1, 0.0, 0.0)):
        assert webster_timings(12.0, y, PLAN) == (180.0, (40.0, 40.0, 40.0, 40.0), True)


def test_webster_takes_its_bounds_from_the_plan():
    plan = PhasePlan(g_min_s=5.0, g_max_s=60.0, yellow_s=3.0)
    # the cap is 4 x (60 s + 3 s yellow)
    assert webster_timings(12.0, (0.9, 0.03, 0.03, 0.03), plan)[0] == 252.0
    assert webster_timings(12.0, (0.5, 0.5, 0.0, 0.0), plan) == (252.0, (60.0,) * 4, True)
    # the reference case: a 57.5 s cycle splits 45.5 s of green, and only
    # phase 4's 3.79 s share rises to the plan's 5 s minimum
    cycle_s, greens_s, _ = webster_timings(12.0, (0.3, 0.1, 0.15, 0.05), plan)
    assert cycle_s == pytest.approx(57.5, abs=1e-9)
    assert greens_s == pytest.approx((22.75, 45.5 / 6, 11.375, 5.0), abs=1e-9)
    # a 153.3 s cycle gives phase 1 all 141.3 s of green, cut to 60 s
    cycle_s, greens_s, _ = webster_timings(12.0, (0.85, 0.0, 0.0, 0.0), plan)
    assert cycle_s == pytest.approx(23.0 / 0.15, abs=1e-9)
    assert greens_s == (60.0, 5.0, 5.0, 5.0)


def test_webster_cycle_monotone_in_demand_and_lost_time():
    cycles = [webster_timings(12.0, (y, 0.0, 0.0, 0.0), PLAN)[0]
              for y in (0.0, 0.2, 0.4, 0.6, 0.8)]
    assert cycles == sorted(cycles) and len(set(cycles)) == len(cycles)
    by_lost = [webster_timings(l, (0.1, 0.1, 0.1, 0.1), PLAN)[0]
               for l in (4.0, 8.0, 12.0, 16.0)]
    assert by_lost == sorted(by_lost) and len(set(by_lost)) == len(by_lost)


def test_webster_split_is_proportional():
    cycle_s, greens_s, _ = webster_timings(20.0, (0.2, 0.2, 0.2, 0.2), PLAN)
    assert cycle_s == pytest.approx(175.0, abs=1e-9)
    assert greens_s == pytest.approx((38.75,) * 4, abs=1e-9)
    # unclamped splits share the effective green exactly
    assert sum(greens_s) == pytest.approx(cycle_s - 20.0, abs=1e-9)


def test_webster_input_validation():
    # lost time is checked where it is resolved: in the settings, and by
    # the controller for a value it derives
    with pytest.raises(ConfigurationError):
        WebsterSettings(lost_time_s=0.0)
    # no startup loss and a 2 s yellow derive no lost time
    with pytest.raises(ConfigurationError):
        DynamicWebsterController(IntersectionLayout(startup_lost_time_s=0.0),
                                 PhasePlan(yellow_s=2.0))


def test_default_lost_time():
    # 4 phases x (2 s startup + 3 s of the 5 s yellow)
    assert default_lost_time_s(LAYOUT, PLAN) == 20.0


# -- fixed-time controller -------------------------------------------------------


def test_fixed_time_always_continues():
    ctrl = FixedTimeController()
    sim = SimState(LAYOUT, PLAN, uniform_flows(0.0), 0)
    assert ctrl.decide(sim) == ACTION_CONTINUE


def test_fixed_time_cycles_match_programmed_plan():
    records = run_episode(SimState(LAYOUT, PLAN, uniform_flows(0.0), 0),
                          FixedTimeController(), 650)
    assert len(records) >= 5
    assert all(r.cycle_len_s == 100 for r in records)
    assert all(r.green_s == (20.0, 20.0, 20.0, 20.0) for r in records)

    short = PhasePlan(greens_s=(10.0, 10.0, 10.0, 10.0))
    records = run_episode(SimState(LAYOUT, short, uniform_flows(0.0), 0),
                          FixedTimeController(), 650)
    assert all(r.cycle_len_s == 60 for r in records)


# -- flow-driven recomputing controller --------------------------------------------


def test_webster_controller_validation():
    # recomputes run on whole 1 s ticks: a shorter or fractional interval
    # would be rounded
    for interval in (-1.0, 0.0, 0.25, 0.5, 0.999, 1.5, 145.5):
        with pytest.raises(ConfigurationError, match="at least 1 s"):
            WebsterSettings(recompute_interval_s=interval)
    assert WebsterSettings(recompute_interval_s=1.0).recompute_interval_s == 1.0
    for window in (-1.0, 0.0, 0.5, 900.7, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            WebsterSettings(flow_window_s=window)


def test_webster_controller_zero_flow_log():
    ctrl = DynamicWebsterController(LAYOUT, PLAN)
    run_episode(SimState(LAYOUT, PLAN, uniform_flows(0.0), 0), ctrl, 600)
    log = ctrl.recompute_log
    assert [row[0] for row in log] == [145, 290, 435, 580]
    for row in log:
        assert len(row) == 11
        assert row[1:5] == (0.0, 0.0, 0.0, 0.0)
        assert row[5] == pytest.approx(35.0, abs=1e-12)
        assert row[6:10] == (10.0, 10.0, 10.0, 10.0)
        assert row[10] == 0


def test_webster_controller_waits_for_first_interval():
    ctrl = DynamicWebsterController(LAYOUT, PLAN)
    run_episode(SimState(LAYOUT, PLAN, uniform_flows(0.0), 0), ctrl, 144)
    assert ctrl.recompute_log == []
    ctrl = DynamicWebsterController(LAYOUT, PLAN)
    run_episode(SimState(LAYOUT, PLAN, uniform_flows(0.0), 0), ctrl, 145)
    assert len(ctrl.recompute_log) == 1


def test_webster_controller_installs_at_phase_boundary():
    rates = [700.0, 150.0, 150.0, 150.0, 700.0, 150.0, 150.0, 150.0]
    sim = SimState(LAYOUT, PLAN, uniform_profile(rates), 5)
    ctrl = DynamicWebsterController(LAYOUT, PLAN)
    default = list(sim.default_green_s)
    change_tick = None
    changed_at_boundary = False
    for _ in range(400):
        if at_decision_point(sim):
            apply_action(sim, ctrl.decide(sim))
        step(sim)
        ctrl.on_tick(sim)
        if change_tick is None and sim.default_green_s != default:
            change_tick = sim.clock
            changed_at_boundary = sim.phase_changed
    assert ctrl.recompute_log, "heavy flow must trigger a recomputation"
    assert change_tick is not None and change_tick > 145
    assert changed_at_boundary
    last = ctrl.recompute_log[-1]
    assert tuple(sim.default_green_s) == last[6:10]
    # north-south through demand dominates, so its green leads the plan
    assert sim.default_green_s[0] == max(sim.default_green_s)


def test_webster_installs_only_on_a_phase_change(tmp_path):
    # a 1 s interval recomputes on tick 1, which is no phase change, so the
    # plan computed there waits for phase 1's green
    rates = [700.0, 150.0, 150.0, 150.0, 700.0, 150.0, 150.0, 150.0]
    flows = uniform_profile(rates)
    sim = SimState(LAYOUT, PLAN, flows, 5)
    ctrl = DynamicWebsterController(
        LAYOUT, PLAN, WebsterSettings(recompute_interval_s=1.0, flow_window_s=60.0))
    step(sim)
    ctrl.on_tick(sim)
    assert not sim.phase_changed and sim.phase_elapsed_s == 1
    assert len(ctrl.recompute_log) == 1
    assert ctrl.recompute_log[0][6:10] != PLAN.greens_s
    assert tuple(sim.default_green_s) == PLAN.greens_s

    ctrl = DynamicWebsterController(
        LAYOUT, PLAN, WebsterSettings(recompute_interval_s=1.0, flow_window_s=60.0))
    records = run_episode(SimState(LAYOUT, PLAN, flows, 5), ctrl, 900)
    assert len(ctrl.recompute_log) == 900
    assert [r.green_s for r in records[:2]] == [(20.0, 10.0, 10.0, 10.0),
                                                (40.0, 10.0, 12.0, 32.0)]
    # pinned, so that how the hook reads its tick cannot change the run; the
    # cycles are hashed as the rows of their CSV, not as a record prints
    log = [tuple(map(float, row)) for row in ctrl.recompute_log]
    write_cycles_csv(tmp_path / "cycles.csv", records)
    digest = hashlib.sha256(repr(log).encode()
                            + (tmp_path / "cycles.csv").read_bytes()).hexdigest()
    assert digest == "a4fc6ce592fcaad48e04410a1187ec6d79797b79db364a46b89c16f3528f9cbf"


def test_webster_controller_deterministic():
    def run():
        ctrl = DynamicWebsterController(LAYOUT, PLAN)
        records = run_episode(SimState(LAYOUT, PLAN, uniform_flows(400.0), 3), ctrl, 700)
        return ctrl.recompute_log, [(r.q_cycle, r.cycle_len_s) for r in records]

    assert run() == run()


def test_webster_first_recompute_reads_the_first_tick():
    # on_tick files a tick's arrivals before that tick can recompute, so even
    # the shortest interval finds data in the window
    sim = SimState(LAYOUT, PLAN, uniform_flows(3000.0), 1)
    ctrl = DynamicWebsterController(LAYOUT, PLAN, WebsterSettings(recompute_interval_s=1.0))
    step(sim)
    ctrl.on_tick(sim)
    [row] = ctrl.recompute_log
    sat = LAYOUT.saturation_flow_veh_h
    y = [max(sim.arrivals[lane] * 3600.0 / sat for lane in PHASE_SERVED[p])
         for p in range(N_PHASES)]
    assert row[0] == 1 and list(row[1:5]) == y and any(y)


class RingBufferWebster(DynamicWebsterController):
    """Reference flow window: a fixed ring of per-tick arrival counts with a
    running int64 sum, updated on every tick."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ring = np.zeros((int(self.settings.flow_window_s), N_LANES),
                              dtype=np.int64)
        self._ring_sum = np.zeros(N_LANES, dtype=np.int64)
        self._ring_pos = 0
        self._ticks_seen = 0

    def _window_rates_veh_h(self):
        filled = min(self._ticks_seen, self._ring.shape[0])
        return self._ring_sum * (3600.0 / filled)

    def on_tick(self, sim):
        pos = self._ring_pos
        self._ring_sum -= self._ring[pos]
        self._ring[pos] = sim.arrivals
        self._ring_sum += self._ring[pos]
        self._ring_pos = (pos + 1) % self._ring.shape[0]
        self._ticks_seen += 1
        super().on_tick(sim)


@st.composite
def webster_scenarios(draw):
    webster = WebsterSettings(
        flow_window_s=float(draw(st.one_of(st.integers(1, 30), st.integers(1, 1200)))),
        recompute_interval_s=float(draw(st.integers(1, 300))),
    )
    span = draw(st.floats(50.0, 1500.0))
    cut = draw(st.floats(1.0, span - 1.0))
    flows = FlowProfile.build({lane: [(0.0, cut, draw(st.floats(0.0, 2000.0))),
                                      (cut, span, draw(st.floats(0.0, 2000.0)))]
                               for lane in ("N0", "N1", "E0", "S0", "S1", "W0", "W1")})
    return webster, flows, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 2500))


@settings(max_examples=40, deadline=None)
@given(webster_scenarios())
def test_webster_window_matches_ring_buffer_reference(scenario):
    webster, flows, seed, horizon = scenario
    controllers = [cls(LAYOUT, PLAN, webster)
                   for cls in (DynamicWebsterController, RingBufferWebster)]
    records = [run_episode(SimState(LAYOUT, PLAN, flows, seed), ctrl, horizon)
               for ctrl in controllers]
    assert controllers[0].recompute_log == controllers[1].recompute_log
    assert records[0] == records[1]
