"""Experiment harness tests: cycle metrics, aggregation, the episode and grid
runners, CSV output, configuration parsing, and the command line."""

import argparse
import ast
import contextlib
import csv
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycle_queue_metric, rate_veh_h, rewrite_weight_file, uniform_profile
from tsclab.agents.autoencoder import AeResult, save_autoencoder
from tsclab.agents.bundle import TRAINING_LOG_HEADER, PolicyBundle, TrainLogRow, TrainResult
from tsclab.agents.dqn import DqnConfig
from tsclab.baselines import (WEBSTER_LOG_HEADER, DynamicWebsterController,
                              FixedTimeController, WebsterSettings)
from tsclab.errors import ConfigurationError, ContractViolation
from tsclab.harness.cli import (_load_run, _write_training_outputs, build_parser, main,
                                non_negative_int)
from tsclab.harness.config import (
    cycles_max_for_training,
    default_flow_profile,
    flows_from_config,
    parse_config_file,
    run_from_config,
    RunSettings,
    SECTIONS,
)
from tsclab.harness.metrics import (
    CycleRecord,
    CycleTracker,
    correlation_report,
    mean_q_cycle,
    mean_std,
    pearson,
    summary_table,
    write_csv,
    write_cycles_csv,
)
from tsclab.harness.runner import (
    CONTROLLERS,
    PolicyController,
    RunSpec,
    read_grid,
    run_episode,
    run_grid,
)
from tsclab.neural import Mlp
from tsclab.rewards import RewardSpec
from tsclab.sim import (
    ACTION_EXTEND,
    FlowProfile,
    IntersectionLayout,
    LANE_IDS,
    N_LANES,
    N_PHASES,
    PhasePlan,
    SimState,
    at_decision_point,
)
from tsclab.staterep import REPRESENTATION_KINDS, make_observation
from tsclab.weights import load_arrays

LAYOUT = IntersectionLayout()
PLAN = PhasePlan()


def uniform_flows(rate):
    return uniform_profile([rate] * N_LANES)


def tiny_bundle(seed=0):
    return PolicyBundle("ppo", "queue", Mlp([19, 16, 3], "tanh", seed=seed), None,
                        make_observation("expanded"))


# -- cycle metric ----------------------------------------------------------------


def test_cycle_metric_zero_queues():
    record = cycle_queue_metric([(0,) * 8] * 3)
    assert record.q_cycle == 0
    assert record.approach_max_queue == (0, 0, 0, 0)
    assert record.cycle_len_s == 3


def test_cycle_metric_reduces_lane_maxima():
    ticks = [
        (4, 0, 7, 1, 0, 3, 2, 0),
        (1, 2, 0, 0, 9, 0, 0, 3),
    ]
    record = cycle_queue_metric(ticks, green_s=(20, 20, 20, 20), regime="high")
    # lane maxima (4,2,7,1,9,3,2,3); approaches pair adjacent lanes
    assert record.approach_max_queue == (4, 7, 9, 3)
    assert record.q_cycle == 23
    # phases serve opposite lanes (0,4), (1,5), (2,6), (3,7)
    assert record.phase_max_queue == (9, 3, 7, 3)
    assert record.regime == "high"


def test_cycle_metric_single_lane():
    ticks = [(0, 0, 0, 0, 0, 0, 4, 0), (0, 0, 0, 0, 0, 0, 2, 0)]
    assert cycle_queue_metric(ticks).q_cycle == 4


def test_cycle_metric_validation():
    with pytest.raises(ValueError):
        cycle_queue_metric([])
    with pytest.raises(ValueError):
        cycle_queue_metric([(1, 2, 3)])


def test_q_cycle_is_the_summed_approach_maxima():
    record = CycleRecord(approach_max_queue=(3, 0, 11, 4), cycle_len_s=10,
                         green_s=(10.0,) * 4, phase_max_queue=(1, 1, 1, 1))
    assert record.q_cycle == 18
    assert "q_cycle" not in {f.name for f in dataclasses.fields(CycleRecord)}


def test_cycle_tracker_splits_on_cycle_wrap():
    # the simulator closes a cycle at each wrap as (start_tick, length_s,
    # lane_max, green_s); tick t covers the second [t - 1, t): tick 1 runs in
    # "low", tick 4 in "medium", while the seconds at their end clocks are "high"
    flows = FlowProfile.build({"N0": [(0.0, 6.0, 0.0)]},
                              regimes=[(0.0, 1.0, "low"), (1.0, 3.0, "high"),
                                       (3.0, 4.0, "medium"), (4.0, 6.0, "high")])
    tracker = CycleTracker(flows)
    record = tracker.feed((1, 3, (1, 0, 0, 0, 0, 0, 0, 0), (1, 1, 0, 0)))
    assert record.cycle_len_s == 3
    assert record.approach_max_queue == (1, 0, 0, 0)
    assert record.phase_max_queue == (1, 0, 0, 0)
    assert record.green_s == (1.0, 1.0, 0.0, 0.0)
    assert record.regime == "low"
    # the wrap tick starts the next cycle
    following = tracker.feed((4, 1, (0, 0, 2, 0, 0, 0, 0, 3), (1, 0, 0, 0)))
    assert following.cycle_len_s == 1
    assert following.approach_max_queue == (0, 2, 0, 3)
    assert following.phase_max_queue == (0, 0, 2, 3)
    assert following.regime == "medium"


def test_cycle_metric_idempotent_on_episode_ticks():
    logged = TickLog(FixedTimeController())
    records = run_episode(SimState(LAYOUT, PLAN, uniform_flows(350.0), 8), logged, 650)
    offset = 0
    assert len(records) >= 5
    for record in records:
        chunk = logged.queues[offset:offset + record.cycle_len_s]
        redone = cycle_queue_metric(chunk)
        assert redone.approach_max_queue == record.approach_max_queue
        assert redone.q_cycle == record.q_cycle
        assert redone.phase_max_queue == record.phase_max_queue
        offset += record.cycle_len_s


class TickLog:
    """Plays another controller and keeps every tick's clock, phase and
    yellow flag, and its lane queues."""

    def __init__(self, inner):
        self.inner = inner
        self.ticks = []
        self.queues = []

    def decide(self, sim):
        return self.inner.decide(sim)

    def on_tick(self, sim):
        if hasattr(self.inner, "on_tick"):
            self.inner.on_tick(sim)
        self.ticks.append((sim.clock, sim.current_phase, sim.in_yellow))
        self.queues.append(tuple(sim.queued))


def make_test_controller(kind, layout, seed):
    if kind == "fixed":
        return FixedTimeController()
    if kind == "webster":
        return DynamicWebsterController(layout, PLAN)
    return PolicyController(tiny_bundle(seed % 100), sample_seed=seed)


@st.composite
def regime_scenarios(draw):
    # a flow span of seconds to a few cycles, cut into up to four labelled
    # regimes, so episodes wrap the profile and some cycles start on a boundary
    span = draw(st.integers(2, 400))
    cuts = sorted(draw(st.sets(st.integers(1, span - 1), max_size=3)))
    bounds = [0, *cuts, span]
    regimes = [(float(start), float(end), draw(st.sampled_from(("low", "medium", "high"))))
               for start, end in zip(bounds, bounds[1:])]
    rates = {lane: [(0.0, float(span), draw(st.floats(0.0, 1500.0)))] for lane in LANE_IDS}
    # with no startup lost time a queue discharges on the wrap tick itself
    layout = IntersectionLayout(
        saturation_headway_s=draw(st.one_of(st.sampled_from([1.0, 2.0]),
                                            st.floats(0.6, 4.0))),
        startup_lost_time_s=float(draw(st.integers(0, 3))),
    )
    return (FlowProfile.build(rates, regimes), layout,
            draw(st.sampled_from(("fixed", "webster", "policy"))),
            draw(st.integers(0, 2**32 - 1)), draw(st.integers(200, 1500)))


@settings(max_examples=30, deadline=None)
@given(regime_scenarios())
def test_episode_records_match_tick_log_and_regimes(scenario):
    flows, layout, kind, seed, horizon = scenario
    logged = TickLog(make_test_controller(kind, layout, seed))
    records = run_episode(SimState(layout, PLAN, flows, seed), logged, horizon)
    assert len(logged.queues) == len(logged.ticks) == horizon
    assert [clock for clock, _phase, _yellow in logged.ticks] == list(range(1, horizon + 1))
    offset = 0
    for record in records:
        redone = cycle_queue_metric(logged.queues[offset:offset + record.cycle_len_s])
        assert redone.approach_max_queue == record.approach_max_queue
        assert redone.q_cycle == record.q_cycle
        assert redone.phase_max_queue == record.phase_max_queue
        assert redone.cycle_len_s == record.cycle_len_s
        green = [0.0] * N_PHASES
        for _clock, phase, in_yellow in logged.ticks[offset:offset + record.cycle_len_s]:
            if not in_yellow:
                green[phase] += 1.0
        assert record.green_s == tuple(green)
        # the cycle's first tick is tick offset + 1, the second [offset, offset + 1)
        assert record.regime == flows.regime_at(offset)
        offset += record.cycle_len_s
    assert offset <= horizon
    # without a tick hook (none for fixed and policy) the records are the same
    bare = run_episode(SimState(layout, PLAN, flows, seed),
                       make_test_controller(kind, layout, seed), horizon)
    assert bare == records


# -- aggregation statistics ------------------------------------------------------


def test_mean_std():
    assert mean_std([7.0]) == (7.0, 0.0)
    mean, std = mean_std([50.0, 60.0])
    assert mean == 55.0
    assert std == pytest.approx(np.sqrt(50.0), abs=1e-12)
    with pytest.raises(ValueError):
        mean_std([])


def test_pearson():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson([1, 2, 3], [5, 5, 5]) is None
    with pytest.raises(ValueError):
        pearson([1], [2])
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])


def _synth_records(n, greens=None, queues=None):
    records = []
    for i in range(n):
        g = greens[i] if greens is not None else 20.0
        q = queues[i] if queues is not None else i
        records.append(CycleRecord(
            approach_max_queue=(q, 0, 0, 0), cycle_len_s=int(4 * g + 20), green_s=(g,) * 4,
            phase_max_queue=(q, q, q, q)))
    return records


CORRELATION_QUANTITIES = ["green1_vs_phase_queue", "green2_vs_phase_queue",
                          "green3_vs_phase_queue", "green4_vs_phase_queue",
                          "cycle_len_vs_total_queue"]


def test_correlation_report_needs_ten_cycles():
    # perfectly aligned, but nine cycles are too few to report anything
    greens = [10.0 + i for i in range(9)]
    report = correlation_report(_synth_records(9, greens, [2 * i for i in range(9)]))
    assert list(report) == CORRELATION_QUANTITIES
    assert all(r is None for r in report.values())


def test_correlation_report_perfect_alignment():
    greens = [10.0 + i for i in range(12)]
    queues = [2 * i for i in range(12)]
    report = correlation_report(_synth_records(12, greens, queues))
    assert list(report) == CORRELATION_QUANTITIES
    for r in report.values():
        assert r == pytest.approx(1.0, abs=1e-12)


def test_correlation_report_constant_green_is_undefined():
    report = correlation_report(_synth_records(12))
    assert [report[f"green{p}_vs_phase_queue"] for p in (1, 2, 3, 4)] == [None] * 4


# -- episode runner --------------------------------------------------------------


def test_run_episode_zero_flow_has_empty_queues():
    sim = SimState(LAYOUT, PLAN, uniform_flows(0.0), 0)
    records = run_episode(sim, FixedTimeController(), 400)
    assert records and all(r.q_cycle == 0 for r in records)
    # the episode runs on the caller's simulation, up to the horizon
    assert sim.clock == 400


def test_run_episode_deterministic():
    def run():
        return run_episode(SimState(LAYOUT, PLAN, uniform_flows(300.0), 21),
                           FixedTimeController(), 500)

    assert run() == run()


class RecordingController:
    """Random-action controller that logs the clock of every ``decide`` call
    and of every tick that ends on a decision point."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.decided = []
        self.decision_ticks = []

    def decide(self, sim):
        self.decided.append(sim.clock)
        return int(self.rng.integers(0, 3))

    def on_tick(self, sim):
        if at_decision_point(sim):
            self.decision_ticks.append(sim.clock)


def test_run_episode_decides_at_every_decision_point_below_horizon():
    flows = uniform_flows(500.0)
    probe = RecordingController(seed=5)
    run_episode(SimState(LAYOUT, PLAN, flows, 2), probe, 1500)
    # end the episode exactly on a decision point, which must go unasked
    horizon = probe.decided[40]
    ctrl = RecordingController(seed=5)
    logged = TickLog(ctrl)
    run_episode(SimState(LAYOUT, PLAN, flows, 2), logged, horizon)
    assert len(logged.ticks) == horizon
    assert ctrl.decided == probe.decided[:40]
    assert ctrl.decision_ticks == probe.decided[:41]
    assert max(ctrl.decided) < horizon


def test_mean_q_cycle_requires_records():
    with pytest.raises(ContractViolation):
        mean_q_cycle([])


# -- policy playback -------------------------------------------------------------


def test_policy_controller_sampled_playback_is_deterministic():
    bundle = tiny_bundle()

    def run():
        controller = PolicyController(bundle, sample_seed=42)
        return run_episode(SimState(LAYOUT, PLAN, uniform_flows(300.0), 3), controller, 600)

    assert run() == run()


def test_policy_controller_greedy_differs_from_sampled():
    bundle = tiny_bundle()
    greedy = run_episode(SimState(LAYOUT, PLAN, uniform_flows(300.0), 3),
                         PolicyController(bundle), 600)
    sampled = run_episode(SimState(LAYOUT, PLAN, uniform_flows(300.0), 3),
                          PolicyController(bundle, sample_seed=42), 600)
    assert greedy != sampled


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**70])
def test_sampled_playback_starts_in_its_cells_arrival_state(seed):
    # run_grid seeds a sampled column's actions with the cell's seed, so its
    # stream starts where the cell's arrivals start (README, "Comparison grid")
    controller = PolicyController(tiny_bundle(), sample_seed=seed)
    sim = SimState(LAYOUT, PLAN, uniform_flows(300.0), seed)
    assert controller._rng.bit_generator.state == sim.rng.bit_generator.state


def test_controller_table_builds_each_kind(tmp_path):
    # an unknown kind and a policy without weights are RunSpec's to reject,
    # see test_grid_input_validation
    run = RunSettings(webster=WebsterSettings(recompute_interval_s=60.0))
    assert list(CONTROLLERS) == ["fixed", "webster", "policy"]
    assert isinstance(CONTROLLERS["fixed"](run, None, None), FixedTimeController)
    webster = CONTROLLERS["webster"](run, None, None)
    assert isinstance(webster, DynamicWebsterController)
    assert webster.settings is run.webster
    path = tmp_path / "p.tscw"
    tiny_bundle().save(path)
    controller = CONTROLLERS["policy"](run, PolicyBundle.load(path), 1)
    assert isinstance(controller, PolicyController)


# -- comparison grid -------------------------------------------------------------


def grid_experiment(horizon=400, seeds=(0, 1), workers=1):
    return RunSettings(horizon_s=horizon, seeds=seeds, workers=workers,
                       layout=LAYOUT, plan=PLAN, flows=uniform_flows(300.0))


def test_run_grid_parallel_matches_sequential(tmp_path):
    weights = tmp_path / "p.tscw"
    tiny_bundle().save(weights)
    specs = [RunSpec("fixed", "fixed"), RunSpec("webster", "webster"),
             RunSpec("ppo", "policy", str(weights))]
    results1, logs1 = run_grid(grid_experiment(workers=1), specs)
    results2, logs2 = run_grid(grid_experiment(workers=2), specs)
    assert (results1, logs1) == (results2, logs2)
    assert list(results1) == [(config_id, seed) for config_id in ("fixed", "webster", "ppo")
                              for seed in (0, 1)]
    # only the Webster cells log, and their logs come back from the workers
    assert list(logs1) == [("webster", 0), ("webster", 1)] and all(logs1.values())


@pytest.mark.parametrize("cells, pool_sizes", [(("fixed",), []), (("fixed", "webster"), [2])])
def test_run_grid_starts_no_more_workers_than_cells(monkeypatch, cells, pool_sizes):
    # a pool starts every worker at its first submit, so the fake records the
    # size asked for and runs the jobs in this process; one cell runs without
    # a pool
    import concurrent.futures

    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    specs = [RunSpec(kind, kind) for kind in cells]
    results, _ = run_grid(grid_experiment(seeds=(0,), workers=64), specs)
    assert started == pool_sizes
    assert results == run_grid(grid_experiment(seeds=(0,)), specs)[0]


def test_run_grid_rejects_duplicate_ids():
    with pytest.raises(ConfigurationError):
        run_grid(grid_experiment(), [RunSpec("a", "fixed"), RunSpec("a", "webster")])


class AlwaysExtend:
    def decide(self, sim):
        return ACTION_EXTEND


def test_run_settings_horizon_must_exceed_the_longest_cycle():
    # every green extended to g_max: 4 x (40 s + 5 s yellow) = 180 s
    with pytest.raises(ConfigurationError):
        grid_experiment(horizon=180)
    run = grid_experiment(horizon=181)
    records = run_episode(SimState(run.layout, run.plan, run.flows, 0), AlwaysExtend(),
                          run.horizon_s)
    assert [r.cycle_len_s for r in records] == [180]
    with pytest.raises(ConfigurationError):
        RunSettings(horizon_s=200, plan=PhasePlan(g_max_s=50.0))


def test_grid_input_validation():
    with pytest.raises(ConfigurationError):
        grid_experiment(seeds=())
    with pytest.raises(ConfigurationError):
        grid_experiment(seeds=(1, 1))
    with pytest.raises(ConfigurationError):
        grid_experiment(horizon=50)
    with pytest.raises(ConfigurationError):
        RunSpec("p", "policy")
    with pytest.raises(ConfigurationError):
        RunSpec("l", "lqr")
    with pytest.raises(ConfigurationError):
        RunSpec("f", "fixed", weights="p.tscw")


# A grid token is split on whitespace, and ``#`` starts a comment; an id may
# hold neither '/' nor NUL (a NUL is a control character).
_GRID_TEXT = st.text(st.characters(exclude_categories=("C", "Z"), exclude_characters="/#"),
                     min_size=1, max_size=8)
_GRID_KEYS = [field.name for field in dataclasses.fields(RunSpec)
              if field.name != "config_id"]


@st.composite
def grid_specs(draw):
    controller = draw(st.sampled_from(list(CONTROLLERS)))
    if controller != "policy":
        return RunSpec(draw(_GRID_TEXT), controller)
    weights = draw(st.lists(_GRID_TEXT, min_size=1, max_size=3).map("/".join))
    return RunSpec(draw(_GRID_TEXT), controller, weights,
                   draw(st.sampled_from([None, "sample", "greedy"])))


@given(specs=st.lists(grid_specs(), min_size=1, max_size=4), data=st.data())
@settings(max_examples=200, deadline=None)
def test_grid_lines_read_back_as_the_specs_they_write(tmp_path_factory, specs, data):
    lines = []
    for spec in specs:
        keys = data.draw(st.permutations(_GRID_KEYS))
        lines.append(" ".join([spec.config_id] + [f"{key}={getattr(spec, key)}" for key in keys
                                                  if getattr(spec, key) is not None]))
    grid = tmp_path_factory.getbasetemp() / "roundtrip.txt"
    grid.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert read_grid(grid) == specs


@given(key=st.text(st.characters(exclude_categories=("C", "Z"), exclude_characters="#="),
                   min_size=1, max_size=10).filter(
                       lambda key: key not in {f.name for f in dataclasses.fields(RunSpec)}))
@settings(max_examples=50, deadline=None)
def test_a_grid_key_outside_runspec_fails_naming_it(tmp_path_factory, key):
    grid = tmp_path_factory.getbasetemp() / "unknown-key.txt"
    grid.write_text(f"fixed controller=fixed\nf controller=fixed {key}=1\n", encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["compare", "--grid", str(grid), "--horizon", "400", "--seeds", "0",
                     "--out", str(tmp_path_factory.getbasetemp() / "cmp")])
    assert code == 1
    assert f"{grid}:2: unknown key {key!r}" in err.getvalue()


def test_readme_grid_section_names_every_grid_key():
    # the keys are RunSpec's field names, so a renamed field renames a key
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Comparison grids\n", 1)[1].split("\n## ", 1)[0]
    for key in _GRID_KEYS:
        assert f"{key}=" in section, key


# -- CSV output ------------------------------------------------------------------


def test_cycles_csv_layout(tmp_path):
    flows = FlowProfile.build({lane: [(0.0, 200.0, 350.0)] for lane in LANE_IDS},
                              regimes=[(0.0, 100.0, "low"), (100.0, 200.0, "high")])
    records = run_episode(SimState(LAYOUT, PLAN, flows, 1), FixedTimeController(), 450)
    path = tmp_path / "cycles.csv"
    write_cycles_csv(path, records)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["cycle_index", "Q_cycle", "Q_N", "Q_E", "Q_S", "Q_W",
                       "cycle_len_s", "g1", "g2", "g3", "g4", "regime"]
    assert len(rows) == len(records) + 1
    assert {row[-1] for row in rows[1:]} == {"low", "high"}
    for index, (row, r) in enumerate(zip(rows[1:], records)):
        assert row == [str(v) for v in (index, r.q_cycle, *r.approach_max_queue,
                                        r.cycle_len_s, *r.green_s, r.regime)]


def _regime_records(q_cycles, phase_queue, regimes):
    """Cycle records with the given totals, each phase's max queue
    ``phase_queue`` and the given regime labels."""
    return [CycleRecord(approach_max_queue=(q, 0, 0, 0), cycle_len_s=100,
                        green_s=(20.0,) * 4, phase_max_queue=(phase_queue,) * 4,
                        regime=regime)
            for q, regime in zip(q_cycles, regimes)]


def test_summary_csv_layout(tmp_path):
    results = {
        ("ppo", 3): _regime_records([10, 20], 4, ["low", "high"]),
        ("ppo", 0): _regime_records([30], 2, ["low"]),
        ("fixed", 3): _regime_records([40], 6, ["low"]),
        ("fixed", 0): _regime_records([50, 60], 8, ["low", "medium"]),
    }
    header, rows = summary_table([("ppo", "policy"), ("fixed", "fixed")], (3, 0), results)
    assert header == ["config_id", "controller", "n_seeds", "mean_Q_cycle", "std_Q_cycle",
                      *(f"p{p}_mean_q_{regime}" for regime in ("high", "medium", "low")
                        for p in (1, 2, 3, 4))]
    # seed means (30 and 15, 55 and 40) in sorted-seed order; high sorts
    # first; ppo ran no medium cycle and fixed no high one, so those are blank
    assert rows == [
        ["ppo", "policy", 2, 22.5, float(np.std([30.0, 15.0], ddof=1)),
         *[4.0] * 4, *[None] * 4, *[3.0] * 4],
        ["fixed", "fixed", 2, 47.5, float(np.std([55.0, 40.0], ddof=1)),
         *[None] * 4, *[8.0] * 4, *[(8.0 + 6.0) / 2] * 4],
    ]
    path = tmp_path / "summary.csv"
    write_csv(path, header, rows)
    with path.open(newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["mean_Q_cycle"] == "22.5" and parsed[0]["p1_mean_q_medium"] == ""
    # a profile without regime labels gets one "all" column per phase
    header, rows = summary_table([("fixed", "fixed")], (0,),
                                 {("fixed", 0): _regime_records([5, 7], 1, ["", ""])})
    assert header[5:] == ["p1_mean_q_all", "p2_mean_q_all", "p3_mean_q_all",
                          "p4_mean_q_all"]
    assert rows == [["fixed", "fixed", 1, 6.0, 0.0, 1.0, 1.0, 1.0, 1.0]]


def test_correlations_csv_blank_for_undefined(tmp_path):
    path = tmp_path / "corr.csv"
    write_csv(path, ("seed", "quantity", "pearson_r"),
              [(0, "green1_vs_phase_queue", 0.5), (0, "cycle_len_vs_total_queue", None)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "seed,quantity,pearson_r"
    assert lines[1] == "0,green1_vs_phase_queue,0.5"
    assert lines[2] == "0,cycle_len_vs_total_queue,"


def test_webster_log_csv(tmp_path):
    ctrl = DynamicWebsterController(LAYOUT, PLAN)
    run_episode(SimState(LAYOUT, PLAN, uniform_flows(0.0), 0), ctrl, 300)
    path = tmp_path / "webster.csv"
    write_csv(path, WEBSTER_LOG_HEADER, ctrl.recompute_log)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["clock_s", "y1", "y2", "y3", "y4", "cycle_s",
                       "g1", "g2", "g3", "g4", "saturated"]
    assert len(rows) == 1 + len(ctrl.recompute_log)
    assert float(rows[1][5]) == 35.0


def test_webster_log_csv_cells_are_plain_numbers(tmp_path):
    ctrl = DynamicWebsterController(LAYOUT, PLAN)
    run_episode(SimState(LAYOUT, PLAN, uniform_flows(400.0), 0), ctrl, 600)
    path = tmp_path / "webster.csv"
    write_csv(path, WEBSTER_LOG_HEADER, ctrl.recompute_log)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows and any(float(cell) != 0.0 for row in rows for cell in row[1:5])
    for row in rows:
        for cell in row:
            float(cell)


def test_write_csv_cell_rule(tmp_path):
    path = tmp_path / "cells.csv"
    write_csv(path, ("a", "b", "c", "d", "e", "f"),
              [(None, 0.1, np.float64(0.1), np.float32(0.1), 3, "x"),
               (np.int64(7), float("nan"), np.float64(2.0), 1e-20, None, "")])
    assert path.read_text().splitlines() == [
        "a,b,c,d,e,f", ",0.1,0.1,0.10000000149011612,3,x", "7,nan,2.0,1e-20,,"]


def test_training_log_csv(tmp_path):
    rows = [
        TrainLogRow(sim_time_s=200.0, mean_reward=-0.25,
                    mean_q_cycle=None, policy_entropy=1.09, value_loss=0.5),
        TrainLogRow(sim_time_s=400.0, mean_reward=-0.125,
                    mean_q_cycle=12.5, policy_entropy=1.0, value_loss=0.25),
    ]
    _write_training_outputs(tmp_path, TrainResult(tiny_bundle(), rows, []), "policy.tscw")
    with (tmp_path / "training_log.csv").open(newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert list(parsed[0]) == list(TRAINING_LOG_HEADER)
    # a row's number is its position in the log
    assert [row["rollout_idx"] for row in parsed] == ["0", "1"]
    assert parsed[0]["mean_Q_cycle"] == ""
    assert float(parsed[1]["mean_Q_cycle"]) == 12.5
    assert float(parsed[0]["mean_reward"]) == -0.25


# -- configuration parsing -------------------------------------------------------


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_config_file_basics(tmp_path):
    path = write_cfg(tmp_path, """
# comment line
ppo.n_steps = 32   # trailing comment

run.horizon_s = 3600
flow.N0 = 0-100@500
""")
    values = parse_config_file(path)
    assert values == {"ppo.n_steps": "32", "run.horizon_s": "3600",
                      "flow.N0": "0-100@500"}
    # a leading byte order mark, as some editors write, is not part of the first key
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert parse_config_file(path) == values


@pytest.mark.parametrize("config_line, grid_line, message", [
    ("words", "a words", "expected key=value, got 'words'"),
    ("run.seeds =", "a controller=", "empty key or value"),
    ("= 5", "a =5", "empty key or value"),
    ("nonsense = 1", "a nonsense=1", "unknown key 'nonsense'"),
    ("run.workers = 2", "a controller=fixed controller=webster", "duplicate key"),
], ids=["no-equals", "empty-value", "empty-key", "unknown-key", "duplicate-key"])
def test_config_and_grid_files_check_each_pair_alike(tmp_path, config_line, grid_line,
                                                     message):
    config = tmp_path / "run.cfg"
    config.write_text(f"run.workers = 1\n{config_line}\n", encoding="utf-8")
    grid = tmp_path / "grid.txt"
    grid.write_text(f"f controller=fixed\n{grid_line}\n", encoding="utf-8")
    for path, read in ((config, parse_config_file), (grid, read_grid)):
        with pytest.raises(ConfigurationError) as info:
            read(path)
        assert str(info.value).startswith(f"{path}:2: {message}")


def test_parse_config_file_errors(tmp_path):
    for text in (
        "nonsense.key = 1\n",
        "ppo.n_steps = 1\nppo.n_steps = 2\n",
        "just some words\n",
        "ppo.n_steps =\n",
        "= 5\n",
    ):
        with pytest.raises(ConfigurationError):
            parse_config_file(write_cfg(tmp_path, text))


def test_config_conversions_and_overrides(tmp_path):
    cfg = parse_config_file(write_cfg(tmp_path, """
ppo.n_steps = 32
ppo.batch_size = 16
ppo.hidden_sizes = 16, 8
ppo.learning_rate = 1e-3
run.seeds = 3,4
webster.recompute_interval_s = 60
ppo.total_timesteps = 500
"""))
    run = run_from_config(cfg)
    assert run.ppo.n_steps == 32
    assert run.ppo.hidden_sizes == (16, 8)
    assert run.ppo.learning_rate == 1e-3
    assert run.seeds == (3, 4)
    assert run.webster == WebsterSettings(recompute_interval_s=60.0)
    # the sections no key names keep their class defaults
    assert (run.reward, run.dqn) == (RewardSpec(), DqnConfig())
    bad = parse_config_file(write_cfg(tmp_path, "ppo.n_steps = lots\n", "b.cfg"))
    with pytest.raises(ConfigurationError):
        run_from_config(bad)
    # a given flag writes its key over the file's value; an absent one leaves it
    path = str(tmp_path / "run.cfg")
    for flags, timesteps in ((["--timesteps", "64"], 64), ([], 500)):
        args = build_parser().parse_args(["train", "--config", path, *flags])
        assert _load_run(args).ppo.total_timesteps == timesteps


def test_flows_from_config(tmp_path):
    cfg = parse_config_file(write_cfg(tmp_path, """
flow.N0 = 0-100@500, 100-200@250
flow.regimes = 0-100@low, 100-200@high
"""))
    flows = flows_from_config(cfg)
    assert rate_veh_h(flows, 0, 50.0) == pytest.approx(500.0)
    assert rate_veh_h(flows, 0, 150.0) == pytest.approx(250.0)
    assert rate_veh_h(flows, 1, 50.0) == 0.0  # unlisted lanes default to zero
    assert flows.regime_at(50.0) == "low"
    assert flows.regime_at(150.0) == "high"
    assert flows.span_s == 200.0


def test_flows_from_config_errors(tmp_path):
    for text in (
        "flow.N0 = 0-100\n",
        "flow.N0 = a-b@300\n",
        "flow.N0 = 0-100@fast\n",
        "flow.N0 = ,\n",
        "flow.N0 = 0-100@500,, 100-200@250\n",
        "flow.N0 = 0-inf@500\n",
        "flow.N0 = 0-1e400@500\n",
        "flow.N0 = 0-nan@500\n",
        "flow.regimes = 0-100@low, 100-200@high,\n",
    ):
        cfg = parse_config_file(write_cfg(tmp_path, text))
        with pytest.raises(ConfigurationError):
            flows_from_config(cfg)


def test_readme_default_flow_block_parses_to_the_default_profile(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration files\n", 1)[1].split("\n## ", 1)[0]
    (block,) = [block for block in section.split("```")[1::2]
                if "flow.regimes = 0-2400@low" in block]
    assert flows_from_config(parse_config_file(write_cfg(tmp_path, block))) == \
        default_flow_profile()


def test_default_flow_profile_shape():
    flows = default_flow_profile()
    assert flows.span_s == 7200.0
    assert rate_veh_h(flows, 0, 100.0) == pytest.approx(60.0)
    assert rate_veh_h(flows, 0, 2500.0) == pytest.approx(168.0)
    assert rate_veh_h(flows, 0, 5000.0) == pytest.approx(434.0)
    assert flows.regime_at(100.0) == "low"
    assert flows.regime_at(2500.0) == "medium"
    assert flows.regime_at(5000.0) == "high"
    # repeats beyond its span
    assert rate_veh_h(flows, 0, 7300.0) == pytest.approx(60.0)
    assert flows.regime_at(7300.0) == "low"
    # the dominant direction swings: E-W leads while medium, N-S while high
    assert rate_veh_h(flows, 2, 2500.0) > rate_veh_h(flows, 0, 2500.0)
    assert rate_veh_h(flows, 0, 5000.0) > rate_veh_h(flows, 2, 5000.0)


def test_normalizers_for_training():
    assert cycles_max_for_training(100_000, 100.0) == 1000.0
    assert cycles_max_for_training(7200, 100.0) == 72.0
    assert cycles_max_for_training(0, 100.0) == 1.0
    assert cycles_max_for_training(50, 100.0) == 1.0
    assert cycles_max_for_training(3600, 60.0) == 60.0


def test_run_settings_validation():
    with pytest.raises(ConfigurationError):
        RunSettings(horizon_s=0)
    with pytest.raises(ConfigurationError):
        RunSettings(seeds=())
    with pytest.raises(ConfigurationError):
        RunSettings(workers=0)


# -- command line ----------------------------------------------------------------


# SHA-256 of the cycles that `tsclab compare` writes for one Webster column on
# seed 3 over 3600 s: with the default scenario, and with an oversaturated one
# that has an 8 s travel time, a 1.5 s headway and a flow change at 901 s, off
# the cycle grid.  Any change to the simulator's draws or queue dynamics shows here.
_GOLDEN_HEAVY_CFG = """\
sim.travel_time_to_stopline_s = 8
sim.saturation_headway_s = 1.5
sim.startup_lost_time_s = 3
flow.N0 = 0-901@700, 901-3600@350
flow.E0 = 0-3600@650
flow.S1 = 0-1800@300, 1800-3600@900
flow.W1 = 0-3600@250
"""
_GOLDEN_DIGESTS = {
    "default": "b93c672489baa25b4d4ab3f7cb72265016e26b28c407fd715e7b46f48e0ea5de",
    "heavy": "2e277aecdfa1006d80be1477e6e5083dd3d0d86183c64efe9e51be1c7ea81ab4",
}


@pytest.mark.parametrize("scenario", sorted(_GOLDEN_DIGESTS))
def test_cli_webster_golden(tmp_path, capsys, scenario):
    grid = write_cfg(tmp_path, "webster controller=webster\n", "grid.txt")
    out = tmp_path / "cmp"
    argv = ["compare", "--grid", str(grid), "--seeds", "3", "--horizon", "3600",
            "--out", str(out)]
    if scenario == "heavy":
        argv += ["--config", str(write_cfg(tmp_path, _GOLDEN_HEAVY_CFG))]
    assert main(argv) == 0
    capsys.readouterr()
    cycles = (out / "cycles_webster_seed3.csv").read_bytes()
    assert hashlib.sha256(cycles).hexdigest() == _GOLDEN_DIGESTS[scenario]


# SHA-256 of every file that tiny runs of the CSV-writing commands write.  A
# header, a column order or a cell's formatting (blank for None, a float as
# its repr) that changes shows here; the policy-only compare at 500 s
# completes under 10 cycles, so its correlations are all blank cells.  The
# kplanes runs pin the K-Planes transform and the sampled and greedy
# playback of a policy trained on it, and dqn_compare the greedy playback of
# the dqn run's bundle.
_TINY_TRAINING_CFG = """\
ppo.n_steps = 20
ppo.batch_size = 10
ppo.total_timesteps = 300
ppo.hidden_sizes = 16
dqn.total_timesteps = 200
dqn.batch_size = 8
dqn.replay_capacity = 64
dqn.epsilon_decay_steps = 50
dqn.log_interval_steps = 10
dqn.hidden_sizes = 8
"""
_CLI_OUTPUT_DIGESTS = {
    "ae4/cycles_train.csv":
        "8760c1202f9790d7c46767c6c330de3bb303cc0e4d8858cffa0400177a4b2a66",
    "ae4/policy.tscw":
        "e7205513d96e10acd634531c506405c7625d9dc6f4cdad646cb0477b8c4aea80",
    "ae4/training_log.csv":
        "1a4455aac6d4fb92efb9ef948ab696ca3d6706b830a71fa5de610b3226900362",
    "ae4_compare/correlations_ae4.csv":
        "bf1dc4ba7995b961e6435eb49e01062a3ef8447dc978171af767f27cbd1fa6f6",
    "ae4_compare/cycles_ae4_seed0.csv":
        "9c74dce287eb95d3d31dcfcda42ee3bfeb4cf69ac999b873f4b78e7ee105fc3d",
    "ae4_compare/cycles_ae4_seed1.csv":
        "f655a4da1a7be88e881497db2b7f8b60ec87866486cdbce0841323063bad541c",
    "ae4_compare/summary.csv":
        "906e5ad2cafb03065ae7ad72223b0a94f56c615fca7c07c0867bbbc5c2c1b1e2",
    "baseline/correlations_webster.csv":
        "59efdecc2a5a895430a7afb04829449df2e8d555ca95d3bc3d2dc4d78b42e248",
    "baseline/cycles_webster_seed0.csv":
        "1ae6234f2440f3c291391bb43d5545a498fd628009b2c8ea55948dd4ef04787f",
    "baseline/summary.csv":
        "f6e9cc7d1d01e0ee9f08ac7f0f5a284de8c1ce928abdcadd055f461027c60e27",
    "baseline/webster_log_webster_seed0.csv":
        "a074a9cec97fb28541e33e0009869ca7bc6a792bf1b1b59ffded38b18c75240b",
    "compare/correlations_fixed.csv":
        "2d1818aabf931e42bc09174420747d1a47e729de7fa42ff00218d5838baf557d",
    "compare/correlations_ppo.csv":
        "2d1818aabf931e42bc09174420747d1a47e729de7fa42ff00218d5838baf557d",
    "compare/correlations_webster.csv":
        "2d1818aabf931e42bc09174420747d1a47e729de7fa42ff00218d5838baf557d",
    "compare/cycles_fixed_seed0.csv":
        "6fea1625480e9cb722d8d663c4f91e695dec2245060e3044c30b66370e71a908",
    "compare/cycles_fixed_seed1.csv":
        "98c88d1e0dda171c839e15c8dea97160c3d6661a0f8728fc2ed90c4b307c4946",
    "compare/cycles_ppo_seed0.csv":
        "661bb56633c1a721475bd8ecbd70d47040a07a1cfffde58d204b9f0c92ed9c42",
    "compare/cycles_ppo_seed1.csv":
        "46ec4af7e52fd8ac625186698dc3b10a815a30db97bb325506daa3a1a25dd86d",
    "compare/cycles_webster_seed0.csv":
        "deff7a46576c90e41830887d8e9846360380e9b3cecb585cf9b384d0b71cdc41",
    "compare/cycles_webster_seed1.csv":
        "47c1f93a79616ef2baf60046e96e51e656cda3f9cc3a9b89aab9a9cf327972f5",
    "compare/summary.csv":
        "094206023d4833ae94849c13e9c67f68ceeb74234d316a04b4be65878acf6da9",
    "compare/webster_log_webster_seed0.csv":
        "b3fcdc2e6305ea71996b91564cee7e32b66bf276c64389ed8b270a88d9fb9000",
    "compare/webster_log_webster_seed1.csv":
        "a52c7e0d9b2bea9d416123a541d442c03d4cb467461c88f364407012cc48f205",
    "dqn/cycles_train.csv":
        "003b079bc21b36ce417cdc678c6e443cedc449091114a2a46d3e53f7136b39e5",
    "dqn/dqn.tscw":
        "88e970ddf797ceb9639cccb3b74a04e136125b393cf478d10425a98c63182e63",
    "dqn/training_log.csv":
        "1f35be7551e465c642caa548d811feaeae9508dad24ba35cef4d870379f18f0b",
    "dqn_compare/correlations_dqn.csv":
        "1bafba9d23f386bcdde4b9c0286c7e143c7e87602de7ab1717b09e7362b18ea8",
    "dqn_compare/cycles_dqn_seed0.csv":
        "4f1d0eae62fbe659cdfcebb4e2d735f5f517897080ae3f87f16810e75dbcb5c2",
    "dqn_compare/cycles_dqn_seed1.csv":
        "1cea298cba2c01266d96dd568b24320895717922fa0751659f8e8644588ceab4",
    "dqn_compare/summary.csv":
        "791319c704732bff1a1015cac74d6e9e91955881fe690540a910c36e356df2d6",
    "kplanes/cycles_train.csv":
        "160f0e22025cbb5bd155dcb2190d54553bf2a525ee316646b35e8f1cbe9bdebc",
    "kplanes/policy.tscw":
        "fac0c5facb802213176740622d128ea0092ed28fb256cc940610816e26ffe29c",
    "kplanes/training_log.csv":
        "9b8d3af3075b1b10b2ebc3ef2e50bf414ec304c3f445eb1d393361d3803bd841",
    "kplanes_compare/correlations_kplanes.csv":
        "53360b47c6e3490aa73a6c05d16127e5f0808820cbc80244c819b8fbe55e4acf",
    "kplanes_compare/correlations_kplanes_greedy.csv":
        "0d7651d362b47b2b40eb53eba2158495274d489f88f45a1acd7e3e18aa792921",
    "kplanes_compare/cycles_kplanes_greedy_seed0.csv":
        "cf8de902fbaa3e29f7cdb0150e68c55e6db9d5913badb58a82a135b6a3350b8a",
    "kplanes_compare/cycles_kplanes_greedy_seed1.csv":
        "6424ffa9ffa873e55000aef240ec63e68b738ff9785125fa239c99bc0b68fd6b",
    "kplanes_compare/cycles_kplanes_seed0.csv":
        "96291050dcfdcd5d6dbfe1567c566f1c950ccfafc317e9581874787bf5733504",
    "kplanes_compare/cycles_kplanes_seed1.csv":
        "bdcbe6e39cd92a0bedae6c00484c23c158e7444530b371c8f961c45ec933d8ac",
    "kplanes_compare/summary.csv":
        "4eb191cd0cee8c21e48f44b660c5777e546068aff47913aa4c54a9d78b1cb527",
    "ppo/correlations_ppo.csv":
        "e7a43e1eacc314da0cf5a6bd5f892ac124cc73c648a64eaa665eb015f57b8319",
    "ppo/cycles_ppo_seed0.csv":
        "5fe1e96ae2db887cc1ded8852b3ccdb14bf645c95008121c3c458ecbd869a119",
    "ppo/cycles_ppo_seed1.csv":
        "b4b3339999c9043aaab7cab6d2f75a48b0fb92a4966ed63ba2bb3b0da06ff048",
    "ppo/summary.csv":
        "c5e92d659f5d5560a639b413759ff32e9c80fe82e7146e2496aadd3add67a9e5",
    "ppo_short/correlations_ppo.csv":
        "1bd61c0f8d95b8392d13f4d90771afb2290d1cbb8747207aced4a3c338bc1360",
    "ppo_short/cycles_ppo_seed0.csv":
        "24471860804f3bffac99d2fb7510bb349b311d38c3aaada25459861cc664c7fa",
    "ppo_short/summary.csv":
        "31be68444a76f56f93904acca11e8b255464d0e025306ae5f242da60b5b4a430",
    "train/cycles_train.csv":
        "879e9a7bbc20da68c6ff83645ce708d8d941bc04b1d6217317d5081462ab17df",
    "train/policy.tscw":
        "13812039a16aa90fb75487c1dd3d4cf8b94135cf461f336060b9c62efae7cfc2",
    "train/training_log.csv":
        "f01e9ccdc195223a4c369cff60f0accf9bc6f64fa9a674e80d9eda4b2a4cad6f",
}


def test_cli_outputs_golden(tmp_path, capsys):
    cfg = str(write_cfg(tmp_path, _TINY_TRAINING_CFG))
    weights = str(tmp_path / "train" / "policy.tscw")
    grid = write_cfg(tmp_path, "fixed controller=fixed\nwebster controller=webster\n"
                               f"ppo controller=policy weights={weights}\n", "grid.txt")
    ppo_grid = write_cfg(tmp_path, f"ppo controller=policy weights={weights}\n",
                         "ppo_grid.txt")
    webster_grid = write_cfg(tmp_path, "webster controller=webster\n", "webster_grid.txt")
    dqn_weights = str(tmp_path / "dqn" / "dqn.tscw")
    dqn_grid = write_cfg(tmp_path, f"dqn controller=policy weights={dqn_weights}\n",
                         "dqn_grid.txt")
    kplanes_weights = str(tmp_path / "kplanes" / "policy.tscw")
    kplanes_grid = write_cfg(
        tmp_path, f"kplanes controller=policy weights={kplanes_weights}\n"
                  f"kplanes_greedy controller=policy weights={kplanes_weights} "
                  "playback=greedy\n", "kplanes_grid.txt")
    encoder = str(tmp_path / "ae4.tscw")
    assert main(["pretrain-ae", "--latent", "4", "--buffer-steps", "60", "--epochs", "1",
                 "--out", encoder]) == 0
    ae4_weights = str(tmp_path / "ae4" / "policy.tscw")
    ae4_grid = write_cfg(tmp_path, f"ae4 controller=policy weights={ae4_weights}\n",
                         "ae4_grid.txt")
    runs = {
        "baseline": ["compare", "--grid", str(webster_grid), "--seeds", "0",
                     "--horizon", "1800"],
        "train": ["train", "--config", cfg, "--reward", "delay"],
        "dqn": ["dqn", "--config", cfg],
        "dqn_compare": ["compare", "--grid", str(dqn_grid), "--seeds", "0,1",
                        "--horizon", "2400"],
        "ppo": ["compare", "--grid", str(ppo_grid), "--seeds", "0,1", "--horizon", "2400"],
        "ppo_short": ["compare", "--grid", str(ppo_grid), "--seeds", "0", "--horizon", "500"],
        "compare": ["compare", "--grid", str(grid), "--horizon", "400", "--seeds", "0,1"],
        "kplanes": ["train", "--config", cfg, "--repr", "kplanes"],
        "kplanes_compare": ["compare", "--grid", str(kplanes_grid), "--seeds", "0,1",
                            "--horizon", "1200"],
        "ae4": ["train", "--config", cfg, "--encoder", encoder],
        "ae4_compare": ["compare", "--grid", str(ae4_grid), "--seeds", "0,1",
                        "--horizon", "1200"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0, name
    capsys.readouterr()
    digests = {f"{path.parent.name}/{path.name}":
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.glob("*/*"))}
    assert digests == _CLI_OUTPUT_DIGESTS


def test_cli_baseline_webster(tmp_path, capsys):
    # each Webster cell writes the recomputations of its own episode
    grid = write_cfg(tmp_path, "fixed controller=fixed\nwebster controller=webster\n",
                     "grid.txt")
    out = tmp_path / "base"
    assert main(["compare", "--grid", str(grid), "--seeds", "0,1", "--horizon", "600",
                 "--out", str(out)]) == 0
    assert "2 configs x 2 seeds" in capsys.readouterr().out
    assert sorted(path.name for path in out.glob("webster_log*")) == [
        "webster_log_webster_seed0.csv", "webster_log_webster_seed1.csv"]
    run = RunSettings(horizon_s=600)
    for seed in (0, 1):
        controller = DynamicWebsterController(run.layout, run.plan)
        run_episode(SimState(run.layout, run.plan, run.flows, seed), controller, 600)
        assert len(controller.recompute_log) == 4  # at 145, 290, 435 and 580 s
        write_csv(tmp_path / "direct.csv", WEBSTER_LOG_HEADER, controller.recompute_log)
        assert ((out / f"webster_log_webster_seed{seed}.csv").read_bytes()
                == (tmp_path / "direct.csv").read_bytes())


def test_cli_train_compare_round_trip(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
ppo.n_steps = 20
ppo.batch_size = 10
ppo.total_timesteps = 300
ppo.learning_rate = 1e-3
ppo.hidden_sizes = 16
""")
    train_out = tmp_path / "train"
    assert main(["train", "--config", str(cfg), "--out", str(train_out)]) == 0
    weights = train_out / "policy.tscw"
    assert weights.exists()
    assert (train_out / "training_log.csv").exists()
    assert (train_out / "cycles_train.csv").exists()

    grid = write_cfg(tmp_path, f"ppo controller=policy weights={weights}\n", "grid.txt")
    eval_out = tmp_path / "eval"
    assert main(["compare", "--grid", str(grid), "--seeds", "0,1",
                 "--horizon", "2000", "--out", str(eval_out)]) == 0
    assert (eval_out / "cycles_ppo_seed0.csv").exists()
    assert (eval_out / "cycles_ppo_seed1.csv").exists()
    with (eval_out / "correlations_ppo.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10  # 2 seeds x (4 per-phase rows + cycle length row)
    assert [r["seed"] for r in rows] == ["0"] * 5 + ["1"] * 5
    quantities = {r["quantity"] for r in rows}
    assert quantities == {"green1_vs_phase_queue", "green2_vs_phase_queue",
                          "green3_vs_phase_queue", "green4_vs_phase_queue",
                          "cycle_len_vs_total_queue"}
    assert "mean cycle queue" in capsys.readouterr().out


def test_cli_compare(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("fixed controller=fixed\nwebster controller=webster\n")
    out = tmp_path / "cmp"
    assert main(["compare", "--grid", str(grid), "--horizon", "400",
                 "--seeds", "0,1", "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    for config in ("fixed", "webster"):
        assert (out / f"correlations_{config}.csv").exists()
        for seed in (0, 1):
            assert (out / f"cycles_{config}_seed{seed}.csv").exists()
    assert "2 configs x 2 seeds" in capsys.readouterr().out


def test_cli_pretrain_ae(tmp_path, capsys):
    # any positive latent size, end to end: pretrain, train on it, compare
    out_file = tmp_path / "ae5.tscw"
    assert main(["pretrain-ae", "--latent", "5", "--buffer-steps", "60",
                 "--epochs", "1", "--out", str(out_file)]) == 0
    assert out_file.exists()
    from tsclab.agents.autoencoder import load_autoencoder

    encoder, decoder = load_autoencoder(out_file)
    assert encoder.layer_sizes == (19, 32, 5)
    assert "latent=5" in capsys.readouterr().out
    assert main(["train", "--encoder", str(out_file), "--timesteps", "0",
                 "--out", str(tmp_path / "train")]) == 0
    assert "trained ppo repr=ae5 " in capsys.readouterr().out
    assert PolicyBundle.load(tmp_path / "train" / "policy.tscw").observation.dim == 5
    argv = _grid_argv(tmp_path, [f"ae5 controller=policy weights={tmp_path}/train/policy.tscw"])
    assert main(argv) == 0
    assert "ae5" in capsys.readouterr().out


@pytest.fixture
def collection_starts(monkeypatch):
    """The simulations that state collection starts, in order."""
    import tsclab.agents.autoencoder as autoencoder

    started = []

    def counting(*args, **kwargs):
        started.append(args)
        return real(*args, **kwargs)

    real = autoencoder.SimState
    monkeypatch.setattr(autoencoder, "SimState", counting)
    return started


@pytest.mark.parametrize("flag, value", [
    ("--latent", "0"), ("--latent", "-3"), ("--latent", str(10**15)), ("--epochs", "-1"),
    ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-1"),
])
def test_cli_pretrain_ae_rejects_bad_settings_before_collecting(tmp_path, capsys,
                                                                collection_starts,
                                                                flag, value):
    out_file = tmp_path / "ae.tscw"
    assert main(["pretrain-ae", "--buffer-steps", "60", "--epochs", "1",
                 f"{flag}={value}", "--out", str(out_file)]) == 1
    assert "error:" in capsys.readouterr().err
    assert collection_starts == []
    assert not out_file.exists()


def test_cli_pretrain_ae_rejects_a_directory_out_before_collecting(tmp_path, capsys,
                                                                  collection_starts):
    assert main(["pretrain-ae", "--buffer-steps", "60", "--epochs", "1",
                 "--out", str(tmp_path)]) == 1
    assert "is a directory" in capsys.readouterr().err
    assert collection_starts == []
    assert list(tmp_path.iterdir()) == []


def test_cli_train_runs_whole_rollouts_up_to_the_budget(tmp_path, capsys):
    # the budget is checked between rollouts of ppo.n_steps (default 100)
    # decisions: 0 trains none, and 300 s trains one whole rollout of 810 s
    for timesteps, ends_s in (("0", []), ("300", ["810.0"])):
        out = tmp_path / timesteps
        assert main(["train", "--timesteps", timesteps, "--out", str(out)]) == 0
        with (out / "training_log.csv").open(newline="") as fh:
            assert [row["sim_time_s"] for row in csv.DictReader(fh)] == ends_s
        assert PolicyBundle.load(out / "policy.tscw").algo == "ppo"
    assert "(0 rollouts, final mean cycle queue n/a)" in capsys.readouterr().out


def test_cli_dqn(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
dqn.total_timesteps = 200
dqn.batch_size = 8
dqn.replay_capacity = 64
dqn.epsilon_decay_steps = 50
dqn.log_interval_steps = 10
dqn.hidden_sizes = 8
""")
    out = tmp_path / "dqn"
    assert main(["dqn", "--config", str(cfg), "--out", str(out)]) == 0
    weights = out / "dqn.tscw"
    assert weights.exists()
    bundle = PolicyBundle.load(weights)
    assert bundle.algo == "dqn"
    assert bundle.observation.kind == "dqn40"
    capsys.readouterr()


def test_cli_train_takes_the_reward_kind_from_config(tmp_path, capsys):
    cfg = str(write_cfg(tmp_path, _TINY_TRAINING_CFG + "reward.kind = delay\n"))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "file")]) == 0
    assert main(["train", "--config", cfg, "--reward", "pressure",
                 "--out", str(tmp_path / "flag")]) == 0
    assert PolicyBundle.load(tmp_path / "file" / "policy.tscw").reward_kind == "delay"
    assert PolicyBundle.load(tmp_path / "flag" / "policy.tscw").reward_kind == "pressure"
    assert "reward=delay" in capsys.readouterr().out


@pytest.mark.parametrize("kind, code", [("delay", 1), ("queue", 1), ("resco_wait", 0)])
def test_cli_dqn_accepts_only_the_resco_wait_reward(tmp_path, capsys, monkeypatch,
                                                      kind, code):
    import tsclab.envs as envs

    started = []
    real = envs.SimState

    def counting(*args, **kwargs):
        started.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(envs, "SimState", counting)
    cfg = str(write_cfg(tmp_path, _TINY_TRAINING_CFG + f"reward.kind = {kind}\n"))
    out = tmp_path / "dqn"
    assert main(["dqn", "--config", cfg, "--out", str(out)]) == code
    if code:
        assert "resco_wait" in capsys.readouterr().err
        assert started == []
        assert not out.exists()
    else:
        assert PolicyBundle.load(out / "dqn.tscw").reward_kind == "resco_wait"
        capsys.readouterr()


def test_cli_import_leaves_the_process_pool_unloaded():
    # only a grid run with more than one worker needs concurrent.futures.process
    import tsclab

    src = str(Path(tsclab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, tsclab.harness.cli\n"
            "print('concurrent.futures.process' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.split() == ["False"]


@pytest.fixture
def episodes_started(monkeypatch):
    """Counts the episodes the grid runner and the training environments
    start (every episode builds one ``SimState``)."""
    import tsclab.envs as envs
    import tsclab.harness.runner as runner

    started = []
    for module in (runner, envs):
        def counting(*args, _real=module.SimState, **kwargs):
            started.append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "SimState", counting)
    return started


def _grid_argv(tmp_path, lines, horizon="400"):
    grid = tmp_path / "grid.txt"
    grid.write_text("\n".join(lines) + "\n")
    return ["compare", "--grid", str(grid), "--horizon", horizon, "--seeds", "0,1,2,3,4",
            "--out", str(tmp_path / "cmp")]


def test_cli_compare_rejects_a_truncated_bundle(tmp_path, capsys, episodes_started):
    weights = tmp_path / "policy.tscw"
    tiny_bundle().save(weights)
    weights.write_bytes(weights.read_bytes()[:-3])
    # the bad bundle is the last column, yet no column runs an episode
    argv = _grid_argv(tmp_path, ["fixed controller=fixed", "webster controller=webster",
                                 f"ppo controller=policy weights={weights}"])
    assert main(argv) == 1
    assert "truncated weight file" in capsys.readouterr().err
    assert episodes_started == []


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_cli_compare_rejects_a_bundle_with_non_finite_weights(tmp_path, capsys,
                                                             episodes_started, value):
    weights = tmp_path / "policy.tscw"
    bundle = tiny_bundle()
    bundle.policy.biases[-1][0] = value
    bundle.save(weights)
    argv = _grid_argv(tmp_path, ["fixed controller=fixed",
                                 f"ppo controller=policy weights={weights}"])
    assert main(argv) == 1
    assert "array 4 holds a non-finite value" in capsys.readouterr().err
    assert episodes_started == []


def test_cli_compare_rejects_a_bundle_its_observation_cannot_feed(tmp_path, capsys,
                                                                  episodes_started):
    weights = tmp_path / "policy.tscw"
    PolicyBundle("ppo", "queue", Mlp([19, 16, 3], "tanh", seed=0), None,
                 make_observation("kplanes")).save(weights)
    argv = _grid_argv(tmp_path, ["fixed controller=fixed",
                                 f"ppo controller=policy weights={weights}"])
    assert main(argv) == 1
    assert "takes 19 inputs, but a kplanes observation has 68" in capsys.readouterr().err
    assert episodes_started == []


@pytest.mark.parametrize("net", ["policy", "value"])
def test_cli_compare_rejects_a_bundle_with_the_wrong_outputs(tmp_path, capsys,
                                                             episodes_started, net):
    weights = tmp_path / "policy.tscw"
    policy = Mlp([19, 16, 5 if net == "policy" else 3], "tanh", seed=0)
    value = Mlp([19, 16, 2 if net == "value" else 1], "tanh", seed=1)
    PolicyBundle("ppo", "queue", policy, value, make_observation("expanded")).save(weights)
    argv = _grid_argv(tmp_path, ["fixed controller=fixed",
                                 f"ppo controller=policy weights={weights}"])
    assert main(argv) == 1
    outputs = 5 if net == "policy" else 2
    assert f"the {net} network has {outputs} outputs" in capsys.readouterr().err
    assert episodes_started == []


def test_cli_train_rejects_an_encoder_of_another_state_before_simulating(
        tmp_path, capsys, monkeypatch):
    import tsclab.envs as envs

    started = []
    real = envs.SimState

    def counting(*args, **kwargs):
        started.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(envs, "SimState", counting)
    encoder = tmp_path / "ae8.tscw"
    save_autoencoder(AeResult(Mlp([20, 32, 8], "relu", seed=0),
                              Mlp([8, 32, 20], "relu", seed=1), 0.0, 0.0), encoder)
    assert main(["train", "--encoder", str(encoder), "--out", str(tmp_path / "x")]) == 1
    assert "encoder takes 20 inputs" in capsys.readouterr().err
    assert started == []


@pytest.mark.parametrize("norms, fields, message", [
    ([25.0, 40.0, 180.0, float("nan")], {}, "array 0 holds a non-finite value"),
    ([25.0, 40.0, 180.0, float("inf")], {}, "array 0 holds a non-finite value"),
    ([30.0, 40.0, 180.0, 72.0], {}, "header does not describe"),
    (None, {"kres": 3}, "header does not describe"),
    (None, {"kseed": -5}, "header does not describe"),
    (None, {"algo": "xyz"}, "unknown algo 'xyz'"),
    (None, {"reward": "bogus"}, "unknown reward 'bogus'"),
], ids=["cycles-max-nan", "cycles-max-inf", "queue-max-30", "kres-3", "kseed-negative",
        "algo-xyz", "reward-bogus"])
def test_cli_compare_rejects_a_bundle_whose_header_lies(tmp_path, capsys, episodes_started,
                                                       norms, fields, message):
    weights = tmp_path / "policy.tscw"
    PolicyBundle("ppo", "queue", Mlp([68, 16, 3], "tanh", seed=0), None,
                 make_observation("kplanes")).save(weights)
    rewrite_weight_file(weights, weights, norms, **fields)
    argv = _grid_argv(tmp_path, ["fixed controller=fixed",
                                 f"ppo controller=policy weights={weights}"])
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert episodes_started == []


def _ae8_file(path):
    save_autoencoder(AeResult(Mlp([19, 32, 8], "relu", seed=0),
                              Mlp([8, 32, 19], "relu", seed=1), 0.0, 0.0), path)
    return path


@pytest.mark.parametrize("fields", [{"encoder": -2}, {"encoder": 2}, {"encoder": 6},
                                    {"latent": 4}],
                         ids=["encoder--2", "encoder-2", "encoder-6", "latent-4"])
def test_cli_train_rejects_an_autoencoder_file_whose_header_lies(tmp_path, capsys,
                                                                 episodes_started, fields):
    encoder = _ae8_file(tmp_path / "ae8.tscw")
    rewrite_weight_file(encoder, encoder, **fields)
    assert main(["train", "--encoder", str(encoder), "--timesteps", "0",
                 "--out", str(tmp_path / "x")]) == 1
    assert "header does not describe the networks it holds" in capsys.readouterr().err
    assert episodes_started == []
    assert not (tmp_path / "x").exists()


def test_cli_train_rejects_an_encoder_its_representation_does_not_use(tmp_path, capsys,
                                                                      episodes_started):
    # the state is one input: a --repr kind, the default spelled out
    # included, or an encoder, never both
    encoder = _ae8_file(tmp_path / "ae8.tscw")
    for repr_kind in REPRESENTATION_KINDS:
        for path in (encoder, tmp_path / "absent.tscw"):
            for argv in (["--repr", repr_kind, "--encoder", str(path)],
                         ["--encoder", str(path), "--repr", repr_kind]):
                assert main(["train", *argv, "--timesteps", "0",
                             "--out", str(tmp_path / "x")]) == 1
                assert "not allowed with argument" in capsys.readouterr().err
    assert episodes_started == []
    assert not (tmp_path / "x").exists()
    assert main(["train", "--encoder", str(encoder), "--timesteps", "0",
                 "--out", str(tmp_path / "x")]) == 0
    assert "trained ppo repr=ae8 " in capsys.readouterr().out


@pytest.mark.parametrize("command, key, name", [
    ("train", "ppo.n_steps", "ppo.n_steps"),
    ("dqn", "dqn.replay_capacity", "dqn.replay_capacity"),
    ("train", "ppo.hidden_sizes", f"layer sizes (19, {10**15}, 3)"),
])
def test_cli_rejects_arrays_numpy_cannot_allocate(tmp_path, capsys, command, key, name):
    # 10**15 rows: far past any address space, so no machine reserves them
    cfg = write_cfg(tmp_path, f"{key} = {10**15}\n")
    out = tmp_path / "x"
    assert main([command, "--config", str(cfg), "--timesteps", "0", "--out", str(out)]) == 1
    assert f"error: {name} is too large: numpy cannot allocate" in capsys.readouterr().err
    assert not out.exists()


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```sh\n")[1:]
    lines = [line.split() for block in blocks for line in block.split("```")[0].splitlines()
             if line.startswith("tsclab ")]
    assert len(lines) >= 5
    parser = build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


def test_cli_rejects_seeds_a_weight_file_cannot_hold(tmp_path, capsys, episodes_started):
    out = tmp_path / "x"
    for seed in (2**64, 2**64 + 1):
        for command in (["train", "--timesteps", "0"], ["dqn", "--timesteps", "0"],
                        ["pretrain-ae", "--buffer-steps", "8"]):
            assert main([*command, "--seed", str(seed), "--out", str(out)]) == 1
    assert episodes_started == []
    assert not out.exists()
    assert non_negative_int(str(2**64 - 1)) == 2**64 - 1
    assert main(["train", "--timesteps", "0", "--seed", str(2**64 - 1),
                 "--out", str(out)]) == 0
    assert load_arrays(out / "policy.tscw").seed == 2**64 - 1
    capsys.readouterr()


def tiny_dqn_bundle():
    return PolicyBundle("dqn", "resco_wait", Mlp([40, 8, 3], "tanh", seed=0), None,
                        make_observation("dqn40"))


@pytest.mark.parametrize("lines, horizon, message", [
    (["fixed controller=fixed"], "100", "longest cycle"),
    (["fixed controller=fixed", "lqr controller=lqr"], "400", "unknown controller"),
    (["fixed controller=fixed", "ppo controller=policy weights=absent.tscw"], "400",
     "cannot read weight file"),
    (["fixed controller=fixed", "dqn controller=policy weights={dqn} playback=sample"],
     "400", "a dqn bundle plays its argmax"),
    (["fixed controller=fixed", "ppo controller=policy weights={ppo} playback=argmax"],
     "400", "unknown playback 'argmax'"),
    (["fixed controller=fixed", "ppo controller=policy weights={ppo} playback="],
     "400", "grid.txt:2: empty key or value in 'playback='"),
    (["fixed controller=fixed playback=greedy"], "400", "only policy entries take playback="),
    (["fixed controller=fixed weights=/nonexistent/x.tscw"], "400",
     "only policy entries take weights="),
    (["fixed controller=fixed", "a controller=fixed controller=webster"], "400",
     "grid.txt:2: duplicate key 'controller'"),
], ids=["short-horizon", "unknown-controller", "missing-bundle", "sampled-dqn",
        "unknown-playback", "empty-playback", "playback-off-policy", "weights-off-policy",
        "duplicate-field"])
def test_cli_compare_rejects_bad_input_before_any_episode(tmp_path, capsys, episodes_started,
                                                          lines, horizon, message):
    weights = {"ppo": tmp_path / "ppo.tscw", "dqn": tmp_path / "dqn.tscw"}
    tiny_bundle().save(weights["ppo"])
    tiny_dqn_bundle().save(weights["dqn"])
    lines = [line.format(**weights) for line in lines]
    assert main(_grid_argv(tmp_path, lines, horizon)) == 1
    assert message in capsys.readouterr().err
    assert episodes_started == []


@pytest.mark.parametrize("algo, playback, sampled", [
    ("ppo", None, True), ("ppo", "sample", True), ("ppo", "greedy", False),
    ("dqn", None, False), ("dqn", "greedy", False),
])
def test_cli_compare_plays_each_column_as_its_playback_says(tmp_path, capsys, algo,
                                                           playback, sampled):
    weights = tmp_path / f"{algo}.tscw"
    (tiny_bundle() if algo == "ppo" else tiny_dqn_bundle()).save(weights)
    line = f"p controller=policy weights={weights}"
    if playback is not None:
        line += f" playback={playback}"
    argv = _grid_argv(tmp_path, [line], horizon="600")
    assert main(argv) == 0
    capsys.readouterr()
    run = RunSettings(horizon_s=600, seeds=(0, 1, 2, 3, 4))
    bundle = PolicyBundle.load(weights)
    for seed in run.seeds:
        played = {}
        for mode, sample_seed in (("sampled", seed), ("greedy", None)):
            records = run_episode(SimState(run.layout, run.plan, run.flows, seed),
                                  PolicyController(bundle, sample_seed=sample_seed),
                                  run.horizon_s)
            write_cycles_csv(tmp_path / f"{mode}.csv", records)
            played[mode] = (tmp_path / f"{mode}.csv").read_bytes()
        assert played["sampled"] != played["greedy"]
        written = (tmp_path / "cmp" / f"cycles_p_seed{seed}.csv").read_bytes()
        assert written == played["sampled" if sampled else "greedy"]


def test_cli_rejects_bad_runs_before_any_episode(tmp_path, capsys, episodes_started):
    weights = tmp_path / "policy.tscw"
    tiny_bundle().save(weights)
    grid = write_cfg(tmp_path, f"ppo controller=policy weights={weights}\n", "grid.txt")
    out = ["--out", str(tmp_path / "x")]
    assert main(["compare", "--grid", str(grid), "--horizon", "50", *out]) == 1
    # --seeds takes run.seeds' rule: integers, comma separated, none empty, distinct
    for seeds in ("1,1", "0,x", "", "0,,1", "0,1,"):
        assert main(["compare", "--grid", str(grid), "--seeds", seeds, *out]) == 1
    assert main(["train", "--encoder", str(tmp_path / "absent.tscw"), *out]) == 1
    capsys.readouterr()
    # every command checks every section when its config loads
    for command, line, message in (
        ("train", "ppo.hidden_sizes = 8,,8", "bad value for ppo.hidden_sizes"),
        ("train", "ppo.hidden_sizes = 0", "hidden sizes must be at least 1"),
        ("train", "ppo.activation = sigmoid", "unknown activation 'sigmoid'"),
        ("train", "plan.greens_s = 20,20,20,20,", "bad value for plan.greens_s"),
        ("train", "plan.yellow_s = 0", "plan.yellow_s must be a whole number of seconds"),
        ("train", "webster.recompute_interval_s = -5",
         "webster.recompute_interval_s must be a whole number of seconds, at least 1 s"),
        ("dqn", "dqn.hidden_sizes = 8,,8", "bad value for dqn.hidden_sizes"),
        ("dqn", "dqn.activation = gelu", "unknown activation 'gelu'"),
        # alpha_abs and 1 - alpha_abs weigh the queue reward's two terms
        ("train", "reward.alpha_abs = -3", "reward.alpha_abs must lie in [0, 1]"),
        ("train", "reward.alpha_abs = 1.5", "reward.alpha_abs must lie in [0, 1]"),
        ("dqn", "reward.alpha_abs = -0.1", "reward.alpha_abs must lie in [0, 1]"),
    ):
        cfg = write_cfg(tmp_path, line + "\n")
        assert main([command, "--config", str(cfg), "--timesteps", "300", *out]) == 1
        assert message in capsys.readouterr().err, line
    assert episodes_started == []


@pytest.mark.parametrize("key", ["sim.lane_storage_capacity", "sim.free_flow_speed_ms",
                                 "reward.alpha_red", "reward.queue_norm",
                                 "reward.resco_scale", "reward.clip_min", "reward.clip_max",
                                 "run.kplanes_seed"])
def test_cli_rejects_a_key_the_run_would_not_read(tmp_path, capsys, episodes_started, key):
    # the simulator has no storage limit or speed to set, the queue
    # reward's reduction weight is 1 - reward.alpha_abs, and its normalizer,
    # RESCO's scale and floor and the K-Planes seed are constants
    cfg = write_cfg(tmp_path, f"{key} = 0.6\n")
    assert main([*_grid_argv(tmp_path, ["fixed controller=fixed"]), "--config", str(cfg)]) == 1
    assert f"unknown key {key!r}" in capsys.readouterr().err
    assert episodes_started == []


# one bad value per config section, and a fragment of the error it raises
BAD_SECTION_VALUES = {
    "sim": ("sim.saturation_headway_s = 0", "saturation headway must be positive"),
    "plan": ("plan.yellow_s = 0", "plan.yellow_s must be a whole number of seconds"),
    "reward": ("reward.kind = bogus", "bogus"),
    "ppo": ("ppo.gamma = 5", "gamma must lie in (0, 1)"),
    "dqn": ("dqn.activation = gelu", "unknown activation 'gelu'"),
    "webster": ("webster.flow_window_s = 0.5",
                "webster.flow_window_s must be a whole number of seconds"),
    "run": ("run.workers = 0", "workers must be positive"),
}


def _subcommands() -> dict:
    """The parser's subcommands, each name to its parser."""
    (sub,) = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    return sub.choices


@pytest.mark.parametrize("section", tuple(SECTIONS))
@pytest.mark.parametrize("command", tuple(_subcommands()))
def test_cli_every_command_rejects_a_bad_value_in_every_section(
        tmp_path, capsys, episodes_started, command, section):
    # one config file may serve every command, so each checks every section
    # at load, whether it reads that section or not
    out = tmp_path / "out"
    grid = write_cfg(tmp_path, "fixed controller=fixed\n", "grid.txt")
    argv = {"train": ["--timesteps", "0", "--out", str(out)],
            "pretrain-ae": ["--buffer-steps", "8", "--out", str(out / "ae.tscw")],
            "dqn": ["--timesteps", "0", "--out", str(out)],
            "compare": ["--grid", str(grid), "--out", str(out)]}
    assert set(argv) == set(_subcommands())
    line, message = BAD_SECTION_VALUES[section]
    cfg = write_cfg(tmp_path, line + "\n")
    assert main([command, *argv[command], "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err
    assert episodes_started == []
    assert not out.exists()


# greens longer than an hour: the longest cycle, 4 x (5000 s + 5 s yellow),
# is far past any fixed tick budget between decision points
LONG_GREENS = """
plan.greens_s = 5000,5000,5000,5000
plan.g_min_s = 5000
plan.g_max_s = 5000
run.horizon_s = 30000
ppo.n_steps = 1
ppo.batch_size = 1
"""


@pytest.mark.parametrize("command", ["train", "dqn"])
def test_cli_trains_on_any_plan_its_settings_accept(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, LONG_GREENS)
    assert main([command, "--config", str(cfg), "--timesteps", "10",
                 "--out", str(tmp_path / "out")]) == 0


def test_cli_pretrain_ae_collects_over_the_run_horizon(tmp_path, capsys):
    # no decision point falls in a 7200 s episode of 8000 s greens
    cfg = write_cfg(tmp_path, "plan.greens_s = 8000,8000,8000,8000\nplan.g_min_s = 8000\n"
                              "plan.g_max_s = 8000\nrun.horizon_s = 40000\n")
    out = tmp_path / "ae.tscw"
    assert main(["pretrain-ae", "--config", str(cfg), "--buffer-steps", "10",
                 "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", [
    "sim.travel_time_to_stopline_s", "sim.saturation_headway_s",
    "sim.startup_lost_time_s",
    "webster.lost_time_s", "webster.recompute_interval_s", "webster.flow_window_s",
])
def test_cli_rejects_non_finite_layout_and_webster_settings(tmp_path, capsys,
                                                           episodes_started, key, value):
    cfg = write_cfg(tmp_path, f"{key} = {value}\n")
    assert main([*_grid_argv(tmp_path, ["webster controller=webster"]),
                 "--config", str(cfg)]) == 1
    assert f"{key} must be finite" in capsys.readouterr().err
    assert episodes_started == []


@pytest.mark.parametrize("text, key", [
    ("sim.travel_time_to_stopline_s = 7.5", "sim.travel_time_to_stopline_s"),
    ("sim.startup_lost_time_s = 2.5", "sim.startup_lost_time_s"),
    ("flow.N0 = 0-100.5@300, 100.5-7200@500", "flow.N0"),
    ("flow.N0 = 0-7200@300\nflow.regimes = 0-100.5@low, 100.5-7200@high", "flow.regimes"),
    ("flow.N0 = 0-7200.5@300", "flow.N0"),
], ids=["travel", "startup", "bound", "regime-bound", "span"])
def test_cli_rejects_timings_off_the_whole_second(tmp_path, capsys, episodes_started,
                                                  text, key):
    # the simulator ticks once a second, so a fractional timing is refused
    # at load rather than rounded to the tick
    cfg = write_cfg(tmp_path, f"{text}\n")
    assert main([*_grid_argv(tmp_path, ["webster controller=webster"]),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert key in err and "must be a whole number of seconds" in err
    assert episodes_started == []


def test_cli_rejects_regimes_without_a_lane(tmp_path, capsys, episodes_started):
    # without a flow.<lane> key there is no demand for the regimes to label
    cfg = write_cfg(tmp_path, "flow.regimes = 0-1000@a, 1000-7200@b\n")
    argv = _grid_argv(tmp_path, ["fixed controller=fixed"], horizon="2000")
    assert main([*argv, "--config", str(cfg)]) == 1
    assert "at least one lane" in capsys.readouterr().err
    assert episodes_started == []
    assert not (tmp_path / "cmp").exists()


def test_cli_rejects_an_empty_regime_label(tmp_path, capsys, episodes_started):
    # an empty label would read as "no regime", like a profile without labels
    cfg = write_cfg(tmp_path, "flow.N0 = 0-100@5\nflow.regimes = 0-50@, 50-100@b\n")
    assert main([*_grid_argv(tmp_path, ["fixed controller=fixed"]), "--config", str(cfg)]) == 1
    assert "flow.regimes" in capsys.readouterr().err
    assert episodes_started == []
    assert not (tmp_path / "cmp").exists()


def test_cli_compare_with_few_cycles_writes_blank_correlations(tmp_path, capsys):
    weights = tmp_path / "policy.tscw"
    tiny_bundle().save(weights)
    grid = write_cfg(tmp_path, f"ppo controller=policy weights={weights}\n"
                               "fixed controller=fixed\n", "grid.txt")
    out = tmp_path / "eval"
    assert main(["compare", "--grid", str(grid), "--seeds", "0", "--horizon", "500",
                 "--out", str(out)]) == 0
    for config in ("ppo", "fixed"):
        with (out / f"correlations_{config}.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5 and all(r["pearson_r"] == "" for r in rows)
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys, episodes_started):
    assert main(["conquer"]) == 1  # unknown subcommand
    for gone in ("eval", "simulate", "baseline"):  # folded into compare
        assert main([gone]) == 1
    fixed_grid = write_cfg(tmp_path, "fixed controller=fixed\n", "fixed.txt")
    assert main(["compare", "--grid", str(fixed_grid), "--horizon", "200", "--seeds", "0",
                 "--plots", "--out", str(tmp_path / "plots")]) == 1  # plot scripts gone
    assert not (tmp_path / "plots").exists()
    assert main(["compare"]) == 1  # missing required --grid
    absent = write_cfg(tmp_path, f"ppo controller=policy weights={tmp_path / 'absent.tscw'}\n",
                       "absent.txt")
    assert main(["compare", "--grid", str(absent)]) == 1
    fixed_run = ["compare", "--grid", str(fixed_grid), "--seeds", "0",
                "--out", str(tmp_path / "x")]
    webster = ["compare", "--grid", str(write_cfg(tmp_path, "webster controller=webster\n",
                                                  "webster.txt")), "--seeds", "0"]
    bad_cfg = write_cfg(tmp_path, "nope = 1\n")
    assert main([*fixed_run, "--config", str(bad_cfg), "--horizon", "200"]) == 1
    for off_grid in ("plan.g_min_s = 10.5\n", "plan.yellow_s = 4.6\n"):
        assert main([*fixed_run, "--config", str(write_cfg(tmp_path, off_grid))]) == 1
    for window in ("0.5", "900.7"):  # webster counts arrivals per whole second
        cfg = write_cfg(tmp_path, f"webster.flow_window_s = {window}\n")
        assert main([*webster, "--config", str(cfg),
                     "--horizon", "200", "--out", str(tmp_path / "x")]) == 1
    for interval in ("0.25", "0.5", "1.5", "145.5"):  # and recomputes on whole seconds
        cfg = write_cfg(tmp_path, f"webster.recompute_interval_s = {interval}\n")
        assert main([*webster, "--config", str(cfg),
                     "--horizon", "400", "--out", str(tmp_path / "x")]) == 1
    missing_cfg = tmp_path / "ghost.cfg"
    assert main([*fixed_run, "--config", str(missing_cfg)]) == 1
    empty_grid = write_cfg(tmp_path, "# nothing\n", "grid.txt")
    assert main(["compare", "--grid", str(empty_grid)]) == 1
    # a grid or config path that is a directory, or a file that is not UTF-8
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(b"fixed controller=fixed  # caf\xe9\n")
    unread = tmp_path / "unread"
    for bad in (tmp_path, not_utf8):
        assert main(["compare", "--grid", str(bad), "--horizon", "200", "--seeds", "0",
                     "--out", str(unread)]) == 1
        assert main([*fixed_run, "--config", str(bad)]) == 1
    # a config_id names the column's output files
    for bad_id in ("a/b", "a\0b"):
        grid = write_cfg(tmp_path, f"{bad_id} controller=fixed\n", "bad_id.txt")
        assert main(["compare", "--grid", str(grid), "--horizon", "200", "--seeds", "0",
                     "--out", str(unread)]) == 1
    assert not unread.exists()
    assert main(["-h"]) == 0
    assert main(["train", "--repr", "ae8"]) == 1  # a latent is named by its --encoder
    for bad in ("nan", "inf", "-1"):  # rates and loss weights must be finite and >= 0
        assert main(["pretrain-ae", f"--lr={bad}", "--buffer-steps", "8",
                     "--out", str(tmp_path / "ae.tscw")]) == 1
        for key in ("ppo.learning_rate", "ppo.value_coef", "ppo.entropy_coef"):
            cfg = write_cfg(tmp_path, f"{key} = {bad}\n")
            assert main(["train", "--config", str(cfg), "--timesteps", "0",
                         "--out", str(tmp_path / "x")]) == 1
        cfg = write_cfg(tmp_path, f"dqn.learning_rate = {bad}\n")
        assert main(["dqn", "--config", str(cfg), "--timesteps", "0",
                     "--out", str(tmp_path / "x")]) == 1
    cfg = write_cfg(tmp_path, "reward.alpha_abs = nan\n")
    assert main(["train", "--config", str(cfg), "--timesteps", "0",
                 "--out", str(tmp_path / "x")]) == 1
    cfg = write_cfg(tmp_path, "reward.alpha_abs = inf\n")
    assert main(["dqn", "--config", str(cfg), "--timesteps", "0",
                 "--out", str(tmp_path / "x")]) == 1
    # a budget or buffer too large to count or to hold
    assert main(["train", "--timesteps", "1" + "0" * 400, "--out", str(tmp_path / "x")]) == 1
    assert main(["train", "--timesteps", str(2**53 + 1), "--out", str(tmp_path / "x")]) == 1
    for budget in ("-5", str(2**53 + 1)):  # dqn's budget has train's range
        assert main(["dqn", "--timesteps", budget, "--out", str(tmp_path / "x")]) == 1
    assert main(["pretrain-ae", "--buffer-steps", "1" + "0" * 30,
                 "--out", str(tmp_path / "ae.tscw")]) == 1
    assert main(["pretrain-ae", "--latent", str(10**15), "--buffer-steps", "8",
                 "--out", str(tmp_path / "ae.tscw")]) == 1
    assert not (tmp_path / "ae.tscw").exists()
    # seeds must be non-negative, as a flag, a seed list or a config key
    negative = tmp_path / "negative"
    for command in (["train", "--timesteps", "0"], ["pretrain-ae", "--buffer-steps", "8"],
                    ["dqn", "--timesteps", "0"]):
        assert main([*command, "--seed", "-1", "--out", str(negative)]) == 1
    fixed = write_cfg(tmp_path, "fixed controller=fixed\n", "fixed.txt")
    assert main(["compare", "--grid", str(fixed), "--seeds=-1,2", "--horizon", "200",
                 "--out", str(negative)]) == 1
    assert not negative.exists()
    # an --out that cannot be a directory is refused before the job runs
    a_file = tmp_path / "a_file"
    a_file.write_text("kept\n")
    for command in (["train", "--timesteps", "0"], ["dqn", "--timesteps", "0"],
                    ["compare", "--grid", str(fixed), "--horizon", "200"]):
        for out in (a_file, a_file / "sub"):
            assert main([*command, "--out", str(out)]) == 1
    assert main(["pretrain-ae", "--buffer-steps", "8", "--out", str(a_file / "ae.tscw")]) == 1
    capsys.readouterr()
    assert main(["train", "--timesteps", "1000000", "--out", str(a_file)]) == 1
    printed = capsys.readouterr()
    assert "trained" not in printed.out and "is not a directory" in printed.err
    assert a_file.read_text() == "kept\n"
    capsys.readouterr()
    assert episodes_started == []
    assert not (tmp_path / "x").exists()


def test_cli_docs_name_every_subcommand():
    import re

    from tsclab.harness import cli

    commands = set(_subcommands())
    assert all(callable(p.get_default("handler")) for p in _subcommands().values())
    assert set(re.findall(r"^    tsclab (\S+)", cli.__doc__, re.M)) == commands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    assert set(re.findall(r"^tsclab (\S+)", block, re.M)) == commands


def test_readme_config_table_names_every_key():
    # the keys are derived from field names, so a renamed field renames a key
    import re

    from tsclab.harness import config

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration files\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)\.` \| `\w+` \| (.*) \|$", section, re.M)
    documented = {f"{group}.{key}" for group, cells in rows if group != "flow"
                  for key in re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cells))}
    assert documented == set(config._SCHEMA)
    assert len(documented) == 40
    assert {group for group, _ in rows} == set(config.SECTIONS) | {"flow"}


def unreferenced_definitions(package: Path) -> list[str]:
    """Top-level functions and classes, and static methods as
    ``Class.name``, that no code under ``package`` names outside their own
    bodies; dunders are skipped.  A top-level name counts when it appears as a
    name or as any attribute (``module.name``); a static method counts only
    as ``Class.name``, so ``rng.uniform`` does not stand for
    ``FlowProfile.uniform``.  Imports and strings are not references."""
    trees = [ast.parse(path.read_text()) for path in sorted(package.rglob("*.py"))]
    defined = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node] = node.name
            if isinstance(node, ast.ClassDef):
                defined.update(
                    (item, f"{node.name}.{item.name}") for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and any(isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in item.decorator_list))
    used = set()
    stack = [(tree, ()) for tree in trees]
    while stack:
        node, owners = stack.pop()
        names = []
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
            if isinstance(node.value, ast.Name):
                names.append(f"{node.value.id}.{node.attr}")
        used.update(name for name in names if name not in owners)
        if node in defined:
            owners = (*owners, defined[node])
        stack.extend((child, owners) for child in ast.iter_child_nodes(node))
    return sorted(name for name in defined.values()
                  if name not in used and not name.split(".")[-1].startswith("__"))


def test_src_holds_no_code_only_tests_use():
    # the package keeps only what a command runs; a reference implementation
    # that only tests call belongs in the tests
    package = Path(__file__).resolve().parents[1] / "src" / "tsclab"
    assert unreferenced_definitions(package) == []


def unpassed_defaults(package: Path) -> list[str]:
    """Defaulted parameters, as ``function.name`` (``Class.name`` for
    ``__init__``), that no call under ``package`` passes by position or by
    keyword.  A call counts for every function of its name, ``Class(...)``
    for the class's ``__init__``; ``self`` and ``cls`` take no position, and
    a ``*args`` or ``**kwargs`` call passes every parameter."""
    trees = [ast.parse(path.read_text()) for path in sorted(package.rglob("*.py"))]
    defaulted = {}  # (callee, parameter) -> position in a call, None if keyword-only
    calls = []
    stack = [(tree, None) for tree in trees]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, ast.FunctionDef):
            a = node.args
            positional = [arg.arg for arg in a.posonlyargs + a.args]
            if owner is not None and positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            callee = owner if node.name == "__init__" else node.name
            for name in positional[len(positional) - len(a.defaults):]:
                defaulted[callee, name] = positional.index(name)
            defaulted.update(((callee, arg.arg), None)
                             for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                             if default is not None)
        elif isinstance(node, ast.Call):
            calls.append(node)
        inner = node.name if isinstance(node, ast.ClassDef) else (
            None if isinstance(node, ast.FunctionDef) else owner)
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))
    passed = set()
    for call in calls:
        func = call.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        keywords = {k.arg for k in call.keywords}
        spread = None in keywords or any(isinstance(a, ast.Starred) for a in call.args)
        passed.update(
            key for key, position in defaulted.items() if key[0] == name and (
                spread or key[1] in keywords
                or (position is not None and position < len(call.args))))
    return sorted(f"{callee}.{name}" for callee, name in defaulted.keys() - passed)


def test_src_defaults_are_passed_somewhere():
    # a default that no caller overrides is a constant, not a setting; the
    # console script calls main() and perfbench calls main([...])
    package = Path(__file__).resolve().parents[1] / "src" / "tsclab"
    assert unpassed_defaults(package) == ["main.argv"]
