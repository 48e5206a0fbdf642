"""Experiment harness tests: cycle metrics, aggregation, the episode and grid
runners, CSV round trips, configuration parsing, and the command line."""

import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from conftest import rate_veh_h
from tsclab.agents.bundle import PolicyBundle, TrainLogRow, write_training_log_csv
from tsclab.baselines import DynamicWebsterController, FixedTimeController
from tsclab.envs import DqnObservation
from tsclab.errors import ConfigurationError, ContractViolation
from tsclab.harness.cli import main
from tsclab.harness.config import (
    default_flow_profile,
    flows_from_config,
    normalizers_for_training,
    parse_config_file,
    ppo_from_config,
    run_from_config,
    RunSettings,
    webster_from_config,
)
from tsclab.harness.metrics import (
    CycleRecord,
    CycleTracker,
    correlation_report,
    cycle_queue_metric,
    mean_std,
    pearson,
    read_cycles_csv,
    write_cycles_csv,
    write_events_csv,
)
from tsclab.harness.runner import (
    ExperimentConfig,
    PolicyController,
    RunSpec,
    SummaryRow,
    make_controller,
    observation_for_bundle,
    run_episode,
    run_grid,
    write_correlations_csv,
    write_summary_csv,
    write_webster_log_csv,
)
from tsclab.neural import Mlp
from tsclab.sim import (
    FlowProfile,
    IntersectionLayout,
    N_LANES,
    PhasePlan,
    TickReport,
    at_decision_point,
)

LAYOUT = IntersectionLayout()
PLAN = PhasePlan()


def uniform_flows(rate):
    return FlowProfile.uniform([rate] * N_LANES)


def make_report(queue_lengths, tick=0, phase=0, in_yellow=False,
                cycle_completed=False):
    zeros = (0,) * N_LANES
    return TickReport(tick=tick, phase=phase, in_yellow=in_yellow,
                      phase_changed=False, cycle_completed=cycle_completed,
                      arrivals=zeros, discharges=zeros,
                      queue_lengths=tuple(queue_lengths))


def tiny_bundle(seed=0):
    return PolicyBundle(algo="ppo", repr_kind="expanded", reward_kind="queue",
                        policy=Mlp([19, 16, 3], "tanh", seed=seed))


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
    record = cycle_queue_metric(ticks, cycle_index=5, green_s=(20, 20, 20, 20),
                                regime="high")
    # lane maxima (4,2,7,1,9,3,2,3); approaches pair adjacent lanes
    assert record.approach_max_queue == (4, 7, 9, 3)
    assert record.q_cycle == 23
    # phases serve opposite lanes (0,4), (1,5), (2,6), (3,7)
    assert record.phase_max_queue == (9, 3, 7, 3)
    assert record.cycle_index == 5
    assert record.regime == "high"


def test_cycle_metric_single_lane():
    ticks = [(0, 0, 0, 0, 0, 0, 4, 0), (0, 0, 0, 0, 0, 0, 2, 0)]
    assert cycle_queue_metric(ticks).q_cycle == 4


def test_cycle_metric_validation():
    with pytest.raises(ValueError):
        cycle_queue_metric([])
    with pytest.raises(ValueError):
        cycle_queue_metric([(1, 2, 3)])


def test_cycle_record_total_must_match():
    with pytest.raises(ValueError):
        CycleRecord(cycle_index=0, approach_max_queue=(1, 1, 1, 1), q_cycle=5,
                    cycle_len_s=10, green_s=(10.0,) * 4,
                    phase_max_queue=(1, 1, 1, 1))


def test_cycle_tracker_splits_on_cycle_wrap():
    tracker = CycleTracker()
    row_a = (1, 0, 0, 0, 0, 0, 0, 0)
    row_b = (0, 0, 2, 0, 0, 0, 0, 0)
    assert tracker.feed(make_report(row_a, phase=0), "low") is None
    assert tracker.feed(make_report(row_a, phase=1)) is None
    assert tracker.feed(make_report(row_a, phase=1, in_yellow=True)) is None
    record = tracker.feed(make_report(row_b, cycle_completed=True), "medium")
    assert record is not None
    assert record.cycle_len_s == 3
    assert record.approach_max_queue == (1, 0, 0, 0)
    assert record.green_s == (1.0, 1.0, 0.0, 0.0)  # yellow tick is not green
    assert record.regime == "low"
    # the wrap tick starts the next cycle's buffer
    trailing = tracker.flush()
    assert trailing.cycle_len_s == 1
    assert trailing.approach_max_queue == (0, 2, 0, 0)
    assert trailing.regime == "medium"
    assert trailing.cycle_index == record.cycle_index + 1
    assert tracker.flush() is None


def test_cycle_metric_idempotent_on_episode_ticks():
    result = run_episode(LAYOUT, PLAN, uniform_flows(350.0),
                         FixedTimeController(), seed=8, horizon_s=650,
                         record_ticks=True)
    offset = 0
    assert len(result.records) >= 5
    for record in result.records:
        chunk = result.tick_queues[offset:offset + record.cycle_len_s]
        redone = cycle_queue_metric(chunk)
        assert redone.approach_max_queue == record.approach_max_queue
        assert redone.q_cycle == record.q_cycle
        assert redone.phase_max_queue == record.phase_max_queue
        offset += record.cycle_len_s


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
            cycle_index=i, approach_max_queue=(q, 0, 0, 0), q_cycle=q,
            cycle_len_s=int(4 * g + 20), green_s=(g,) * 4,
            phase_max_queue=(q, q, q, q)))
    return records


def test_correlation_report_needs_ten_cycles():
    with pytest.raises(ContractViolation):
        correlation_report(_synth_records(9))


def test_correlation_report_perfect_alignment():
    greens = [10.0 + i for i in range(12)]
    queues = [2 * i for i in range(12)]
    report = correlation_report(_synth_records(12, greens, queues))
    assert report.n_cycles == 12
    for r in report.green_vs_queue:
        assert r == pytest.approx(1.0, abs=1e-12)
    assert report.cycle_len_vs_q == pytest.approx(1.0, abs=1e-12)


def test_correlation_report_constant_green_is_undefined():
    report = correlation_report(_synth_records(12))
    assert report.green_vs_queue == (None, None, None, None)


# -- episode runner --------------------------------------------------------------


def test_run_episode_zero_flow_has_empty_queues():
    result = run_episode(LAYOUT, PLAN, uniform_flows(0.0), FixedTimeController(),
                         seed=0, horizon_s=400)
    assert result.controller_id == "fixed"
    assert all(r.q_cycle == 0 for r in result.records)
    assert result.events is None and result.tick_queues is None
    assert result.webster_log is None


def test_run_episode_deterministic():
    def run():
        result = run_episode(LAYOUT, PLAN, uniform_flows(300.0),
                             FixedTimeController(), seed=21, horizon_s=500)
        return result.records

    assert run() == run()


class RecordingController:
    """Random-action controller that logs the clock of every ``decide`` call
    and of every tick that ends on a decision point."""

    controller_id = "recording"

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.decided = []
        self.decision_ticks = []

    def begin_episode(self, sim):
        pass

    def decide(self, sim):
        self.decided.append(sim.clock)
        return int(self.rng.integers(0, 3))

    def on_tick(self, sim, report):
        if at_decision_point(sim):
            self.decision_ticks.append(sim.clock)


def test_run_episode_decides_at_every_decision_point_below_horizon():
    flows = uniform_flows(500.0)
    probe = RecordingController(seed=5)
    run_episode(LAYOUT, PLAN, flows, probe, seed=2, horizon_s=1500)
    # end the episode exactly on a decision point, which must go unasked
    horizon = probe.decided[40]
    ctrl = RecordingController(seed=5)
    result = run_episode(LAYOUT, PLAN, flows, ctrl, seed=2, horizon_s=horizon,
                         record_ticks=True)
    assert len(result.tick_queues) == horizon
    assert ctrl.decided == probe.decided[:40]
    assert ctrl.decision_ticks == probe.decided[:41]
    assert max(ctrl.decided) < horizon


def test_mean_q_cycle_requires_records():
    result = run_episode(LAYOUT, PLAN, uniform_flows(0.0), FixedTimeController(),
                         seed=0, horizon_s=400)
    result.records.clear()
    with pytest.raises(ContractViolation):
        result.mean_q_cycle


# -- policy playback -------------------------------------------------------------


def test_policy_controller_sampled_playback_is_deterministic():
    bundle = tiny_bundle()

    def run():
        controller = PolicyController(bundle, LAYOUT, sample_seed=42)
        result = run_episode(LAYOUT, PLAN, uniform_flows(300.0), controller,
                             seed=3, horizon_s=600)
        return result.records

    assert run() == run()


def test_policy_controller_greedy_differs_from_sampled():
    bundle = tiny_bundle()
    greedy = run_episode(LAYOUT, PLAN, uniform_flows(300.0),
                         PolicyController(bundle, LAYOUT), seed=3,
                         horizon_s=600).records
    sampled = run_episode(LAYOUT, PLAN, uniform_flows(300.0),
                          PolicyController(bundle, LAYOUT, sample_seed=42),
                          seed=3, horizon_s=600).records
    assert greedy != sampled


def test_observation_for_bundle_dqn40():
    bundle = PolicyBundle(algo="dqn", repr_kind="dqn40", reward_kind="resco_wait",
                          policy=Mlp([40, 16, 3], "relu", seed=0))
    obs = observation_for_bundle(bundle, LAYOUT)
    assert isinstance(obs, DqnObservation)
    assert obs.dim == 40


def test_make_controller_kinds_and_errors(tmp_path):
    assert isinstance(make_controller("fixed", LAYOUT, PLAN), FixedTimeController)
    webster = make_controller("webster", LAYOUT, PLAN,
                              webster_params={"recompute_interval_s": 60.0})
    assert isinstance(webster, DynamicWebsterController)
    assert webster.recompute_interval_s == 60.0
    with pytest.raises(ConfigurationError):
        make_controller("policy", LAYOUT, PLAN)
    with pytest.raises(ConfigurationError):
        make_controller("lqr", LAYOUT, PLAN)
    path = tmp_path / "p.tscw"
    tiny_bundle().save(path)
    controller = make_controller("policy", LAYOUT, PLAN, weights_path=path,
                                 sample_seed=1)
    assert controller.controller_id == "policy"


# -- comparison grid -------------------------------------------------------------


def grid_experiment(horizon=400, seeds=(0, 1)):
    return ExperimentConfig(layout=LAYOUT, plan=PLAN,
                            flows=uniform_flows(300.0), seeds=seeds,
                            horizon_s=horizon)


def test_run_grid_parallel_matches_sequential():
    specs = [RunSpec("fixed", "fixed"), RunSpec("webster", "webster")]
    rows1, results1 = run_grid(grid_experiment(), specs, workers=1)
    rows2, results2 = run_grid(grid_experiment(), specs, workers=2)
    assert rows1 == rows2
    assert results1 == results2
    assert [r.config_id for r in rows1] == ["fixed", "webster"]
    assert all(r.n_seeds == 2 for r in rows1)


def test_run_grid_rejects_duplicate_ids():
    with pytest.raises(ConfigurationError):
        run_grid(grid_experiment(), [RunSpec("a", "fixed"), RunSpec("a", "webster")])


def test_run_grid_flags_seed_with_no_cycles():
    with pytest.raises(ContractViolation):
        run_grid(grid_experiment(horizon=100), [RunSpec("fixed", "fixed")])


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        grid_experiment(seeds=())
    with pytest.raises(ConfigurationError):
        grid_experiment(horizon=50)
    with pytest.raises(ConfigurationError):
        RunSpec("p", "policy")


# -- CSV round trips -------------------------------------------------------------


def test_cycles_csv_round_trip(tmp_path):
    result = run_episode(LAYOUT, PLAN, uniform_flows(350.0),
                         FixedTimeController(), seed=1, horizon_s=450)
    path = tmp_path / "cycles.csv"
    write_cycles_csv(path, result.records)
    loaded = read_cycles_csv(path)
    assert len(loaded) == len(result.records)
    for orig, got in zip(result.records, loaded):
        assert got.cycle_index == orig.cycle_index
        assert got.approach_max_queue == orig.approach_max_queue
        assert got.q_cycle == orig.q_cycle
        assert got.cycle_len_s == orig.cycle_len_s
        assert got.green_s == orig.green_s
        assert got.regime == orig.regime


def test_summary_csv_layout(tmp_path):
    rows = [
        SummaryRow(config_id="ppo", controller="policy", n_seeds=5,
                   mean_q_cycle=18.5, std_q_cycle=1.25,
                   phase_regime_mean={("low", 0): 3.0, ("high", 1): 9.5}),
        SummaryRow(config_id="fixed", controller="fixed", n_seeds=5,
                   mean_q_cycle=44.0, std_q_cycle=2.0,
                   phase_regime_mean={("low", 0): 6.0}),
    ]
    path = tmp_path / "summary.csv"
    write_summary_csv(path, rows)
    with path.open(newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert [r["config_id"] for r in parsed] == ["ppo", "fixed"]
    # high sorts before low in the regime columns
    header = parsed[0].keys()
    assert list(header)[:5] == ["config_id", "controller", "n_seeds",
                                "mean_Q_cycle", "std_Q_cycle"]
    assert "p2_mean_q_high" in header and "p1_mean_q_low" in header
    assert float(parsed[0]["mean_Q_cycle"]) == 18.5
    assert parsed[1]["p2_mean_q_high"] == ""


def test_correlations_csv_blank_for_undefined(tmp_path):
    path = tmp_path / "corr.csv"
    write_correlations_csv(path, [(0, "green1_vs_phase_queue", 0.5),
                                  (0, "cycle_len_vs_total_queue", None)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "seed,quantity,pearson_r"
    assert lines[1] == "0,green1_vs_phase_queue,0.5"
    assert lines[2] == "0,cycle_len_vs_total_queue,"


def test_webster_log_csv(tmp_path):
    ctrl = DynamicWebsterController(LAYOUT, PLAN)
    run_episode(LAYOUT, PLAN, uniform_flows(0.0), ctrl, seed=0, horizon_s=300)
    path = tmp_path / "webster.csv"
    write_webster_log_csv(path, ctrl.recompute_log)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["clock_s", "y1", "y2", "y3", "y4", "cycle_s",
                       "g1", "g2", "g3", "g4", "saturated"]
    assert len(rows) == 1 + len(ctrl.recompute_log)
    assert float(rows[1][5]) == 35.0


def test_events_csv(tmp_path):
    path = tmp_path / "events.csv"
    write_events_csv(path, [(4, 0, "enter", 0), (19, 0, "discharge", 0)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "tick,lane,event,vehicle_id"
    assert lines[1:] == ["4,0,enter,0", "19,0,discharge,0"]


def test_training_log_csv(tmp_path):
    rows = [
        TrainLogRow(rollout_idx=0, sim_time_s=200.0, mean_reward=-0.25,
                    mean_q_cycle=None, policy_entropy=1.09, value_loss=0.5),
        TrainLogRow(rollout_idx=1, sim_time_s=400.0, mean_reward=-0.125,
                    mean_q_cycle=12.5, policy_entropy=1.0, value_loss=0.25),
    ]
    path = tmp_path / "log.csv"
    write_training_log_csv(path, rows)
    with path.open(newline="") as fh:
        parsed = list(csv.DictReader(fh))
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
"""))
    ppo = ppo_from_config(cfg)
    assert ppo.n_steps == 32
    assert ppo.hidden_sizes == (16, 8)
    assert ppo.learning_rate == 1e-3
    # explicit overrides beat file values; None leaves the file value alone
    assert ppo_from_config(cfg, n_steps=64).n_steps == 64
    assert ppo_from_config(cfg, n_steps=None).n_steps == 32
    assert run_from_config(cfg).seeds == (3, 4)
    assert webster_from_config(cfg) == {"recompute_interval_s": 60.0}
    bad = parse_config_file(write_cfg(tmp_path, "ppo.n_steps = lots\n", "b.cfg"))
    with pytest.raises(ConfigurationError):
        ppo_from_config(bad)


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
    ):
        cfg = parse_config_file(write_cfg(tmp_path, text))
        with pytest.raises(ConfigurationError):
            flows_from_config(cfg)


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
    assert normalizers_for_training(100_000, 100.0).cycles_max == 1000.0
    assert normalizers_for_training(7200, 100.0).cycles_max == 72.0
    assert normalizers_for_training(0, 100.0).cycles_max == 1.0


def test_run_settings_validation():
    with pytest.raises(ConfigurationError):
        RunSettings(horizon_s=0)
    with pytest.raises(ConfigurationError):
        RunSettings(seeds=())
    with pytest.raises(ConfigurationError):
        RunSettings(workers=0)


# -- command line ----------------------------------------------------------------


def test_cli_simulate(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--horizon", "300", "--out", str(out)]) == 0
    assert (out / "events.csv").exists()
    assert (out / "cycles.csv").exists()
    lines = (out / "events.csv").read_text().splitlines()
    assert lines[0] == "tick,lane,event,vehicle_id"
    assert len(lines) > 1
    assert "simulated 300s" in capsys.readouterr().out


# SHA-256 of the files `tsclab simulate --method webster --seed 3 --horizon 3600`
# writes: with the default scenario, and with an oversaturated one that has a
# fractional travel time, a 1.5 s headway and a flow change off the tick grid.
# Any change to the simulator's draws, event order or vehicle ids shows here.
_GOLDEN_HEAVY_CFG = """\
sim.travel_time_to_stopline_s = 7.5
sim.saturation_headway_s = 1.5
sim.startup_lost_time_s = 3
flow.N0 = 0-900.5@700, 900.5-3600@350
flow.E0 = 0-3600@650
flow.S1 = 0-1800@300, 1800-3600@900
flow.W1 = 0-3600@250
"""
_GOLDEN_DIGESTS = {
    "default": {
        "events.csv": "ffc78a0db22f039da5b4b51171ea702262f100f31ea9f6516b7132f63a13c383",
        "cycles.csv": "b93c672489baa25b4d4ab3f7cb72265016e26b28c407fd715e7b46f48e0ea5de",
    },
    "heavy": {
        "events.csv": "227afa9692882ae2038fb87ab075d57b6516c9e9e6826622746637537ae557fb",
        "cycles.csv": "db79f992d31d769f12eb01d4d8d4a1d180af98f49f5ecbc34579781c3432cfef",
    },
}


@pytest.mark.parametrize("scenario", sorted(_GOLDEN_DIGESTS))
def test_cli_simulate_record_events_golden(tmp_path, capsys, scenario):
    out = tmp_path / "sim"
    argv = ["simulate", "--method", "webster", "--seed", "3", "--horizon", "3600",
            "--out", str(out)]
    if scenario == "heavy":
        argv += ["--config", str(write_cfg(tmp_path, _GOLDEN_HEAVY_CFG))]
    assert main(argv) == 0
    capsys.readouterr()
    for name, digest in _GOLDEN_DIGESTS[scenario].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_cli_baseline_webster(tmp_path, capsys):
    out = tmp_path / "base"
    assert main(["baseline", "--method", "webster", "--horizon", "600",
                 "--out", str(out)]) == 0
    assert (out / "cycles.csv").exists()
    assert (out / "webster_log.csv").exists()
    assert "webster seed=0" in capsys.readouterr().out


def test_cli_train_eval_round_trip(tmp_path, capsys):
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

    eval_out = tmp_path / "eval"
    assert main(["eval", "--weights", str(weights), "--seeds", "0,1",
                 "--horizon", "2000", "--out", str(eval_out)]) == 0
    assert (eval_out / "cycles_seed0.csv").exists()
    assert (eval_out / "cycles_seed1.csv").exists()
    with (eval_out / "correlations.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10  # 2 seeds x (4 per-phase rows + cycle length row)
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
                 "--seeds", "0,1", "--plots", "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    for config in ("fixed", "webster"):
        for seed in (0, 1):
            assert (out / f"cycles_{config}_seed{seed}.csv").exists()
    assert (out / "plot_summary.py").exists()
    assert (out / "plot_cycles.py").exists()
    assert "2 configs x 2 seeds" in capsys.readouterr().out


def test_cli_pretrain_ae(tmp_path, capsys):
    out_file = tmp_path / "ae4.tscw"
    assert main(["pretrain-ae", "--latent", "4", "--buffer-steps", "60",
                 "--epochs", "1", "--out", str(out_file)]) == 0
    assert out_file.exists()
    from tsclab.agents.autoencoder import load_autoencoder

    encoder, decoder = load_autoencoder(out_file)
    assert encoder.layer_sizes == (19, 32, 4)
    assert "latent=4" in capsys.readouterr().out


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
    assert bundle.repr_kind == "dqn40"
    capsys.readouterr()


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["conquer"]) == 1  # unknown subcommand
    assert main(["compare"]) == 1  # missing required --grid
    assert main(["baseline"]) == 1  # missing required --method
    assert main(["eval", "--weights", str(tmp_path / "absent.tscw")]) == 2
    bad_cfg = write_cfg(tmp_path, "nope = 1\n")
    assert main(["simulate", "--config", str(bad_cfg), "--horizon", "200",
                 "--out", str(tmp_path / "x")]) == 1
    for off_grid in ("plan.g_min_s = 10.5\n", "plan.yellow_s = 4.6\n"):
        assert main(["simulate", "--config", str(write_cfg(tmp_path, off_grid)),
                     "--out", str(tmp_path / "x")]) == 1
    missing_cfg = tmp_path / "ghost.cfg"
    assert main(["simulate", "--config", str(missing_cfg)]) == 1
    empty_grid = write_cfg(tmp_path, "# nothing\n", "grid.txt")
    assert main(["compare", "--grid", str(empty_grid)]) == 1
    assert main(["-h"]) == 0
    assert main(["train", "--repr", "ae8"]) == 1  # ae repr without encoder
    capsys.readouterr()
