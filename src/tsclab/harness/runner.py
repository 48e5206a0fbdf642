"""Episode execution, policy playback, and the comparison grid runner."""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..baselines import DynamicWebsterController, FixedTimeController
from ..envs import DqnObservation, run_to_decision
from ..errors import ConfigurationError, ContractViolation
from ..agents.bundle import PolicyBundle
from ..sim import (
    FlowProfile,
    IntersectionLayout,
    N_PHASES,
    PhasePlan,
    apply_action,
    new_simulation,
)
from ..sim import step  # noqa: F401  (unused; perfbench/spans.py wraps it by this name)
from ..neural import softmax_sample
from ..staterep import make_observation
from .metrics import CycleRecord, CycleTracker, mean_std, write_cycles_csv

REGIME_ORDER = ("high", "medium", "low")


def observation_for_bundle(bundle: PolicyBundle, layout: IntersectionLayout):
    """Rebuild the observation wrapper a saved bundle was trained with."""
    if bundle.repr_kind == "dqn40":
        return DqnObservation(layout)
    return make_observation(bundle.repr_kind, bundle.norms,
                            ae_encoder=bundle.ae_encoder,
                            kplanes_params=bundle.kplanes)


class PolicyController:
    """Plays a saved policy at every decision point.

    With ``sample_seed`` set, actions are drawn from the policy's action
    distribution (the object the training objective optimizes) using a
    dedicated deterministic stream; without it, playback is greedy argmax.
    Greedy playback can collapse a rarely-extended phase to a constant
    green, which hides the policy's queue responsiveness.
    """

    controller_id = "policy"

    def __init__(self, bundle: PolicyBundle, layout: IntersectionLayout,
                 sample_seed: int | None = None) -> None:
        self.bundle = bundle
        self.observation = observation_for_bundle(bundle, layout)
        self._rng = None
        if sample_seed is not None:
            self._rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(int(sample_seed)))
            )

    def begin_episode(self, sim) -> None:
        pass

    def decide(self, sim) -> int:
        obs = self.observation.observe(sim)
        if self._rng is None:
            return self.bundle.greedy_action(obs)
        return softmax_sample(self.bundle.policy.predict(obs), self._rng)[0]

    def on_tick(self, sim, report) -> None:
        pass


def make_controller(kind: str, layout: IntersectionLayout, plan: PhasePlan,
                    weights_path=None, webster_params: dict | None = None,
                    sample_seed: int | None = None):
    """Build a controller by name: ``fixed``, ``webster``, or ``policy``."""
    if kind == "fixed":
        return FixedTimeController()
    if kind == "webster":
        return DynamicWebsterController(layout, plan, **(webster_params or {}))
    if kind == "policy":
        if weights_path is None:
            raise ConfigurationError("policy controller needs a weights file")
        return PolicyController(PolicyBundle.load(weights_path), layout,
                                sample_seed=sample_seed)
    raise ConfigurationError(
        f"unknown controller {kind!r}; expected fixed, webster, or policy"
    )


@dataclass
class EpisodeResult:
    """Everything one evaluation episode produced."""

    controller_id: str
    seed: int
    horizon_s: int
    records: list
    events: list | None = None
    tick_queues: list | None = None
    webster_log: list | None = None

    @property
    def mean_q_cycle(self) -> float:
        if not self.records:
            raise ContractViolation("episode completed no cycles")
        return float(np.mean([r.q_cycle for r in self.records]))


def run_episode(layout: IntersectionLayout, plan: PhasePlan, flows: FlowProfile,
                controller, seed: int, horizon_s: int,
                record_events: bool = False,
                record_ticks: bool = False) -> EpisodeResult:
    """Drive one seeded episode under ``controller`` for ``horizon_s``
    simulated seconds and collect its per-cycle queue records.

    The controller is consulted at every decision point below the horizon and
    notified (``on_tick``) after every tick, through the same
    :func:`~tsclab.envs.run_to_decision` driver as training."""
    sim = new_simulation(layout, plan, flows, seed, record_events=record_events)
    tracker = CycleTracker()
    controller.begin_episode(sim)
    tick_queues: list | None = [] if record_ticks else None
    records: list = []

    def on_tick(report) -> None:
        controller.on_tick(sim, report)
        record = tracker.feed(report, sim.regime())
        if record is not None:
            records.append(record)
        if tick_queues is not None:
            tick_queues.append(report.queue_lengths)

    while run_to_decision(sim, horizon_s, on_tick):
        apply_action(sim, controller.decide(sim))
    return EpisodeResult(
        controller_id=controller.controller_id,
        seed=seed,
        horizon_s=horizon_s,
        records=records,
        events=list(sim.events) if record_events else None,
        tick_queues=tick_queues,
        webster_log=list(getattr(controller, "recompute_log", ())) or None,
    )


# -- comparison grid -----------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One named column of a comparison: a controller and its weights."""

    config_id: str
    controller: str
    weights_path: str | None = None

    def __post_init__(self) -> None:
        if self.controller == "policy" and not self.weights_path:
            raise ConfigurationError(
                f"{self.config_id}: policy entries need weights=<path>"
            )


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared scenario for every cell of a comparison grid."""

    layout: IntersectionLayout
    plan: PhasePlan
    flows: FlowProfile
    seeds: tuple = (0, 1, 2, 3, 4)
    horizon_s: int = 7200
    webster_params: dict | None = None

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ConfigurationError("need at least one seed")
        if self.horizon_s < self.plan.default_cycle_s:
            raise ConfigurationError(
                "horizon is shorter than one default cycle; no metric possible"
            )


def _grid_job(job: tuple) -> tuple:
    experiment, spec, seed = job
    controller = make_controller(
        spec.controller, experiment.layout, experiment.plan,
        weights_path=spec.weights_path,
        webster_params=experiment.webster_params,
        sample_seed=seed,
    )
    result = run_episode(experiment.layout, experiment.plan, experiment.flows,
                         controller, seed, experiment.horizon_s)
    return spec.config_id, seed, result.records


@dataclass(frozen=True)
class SummaryRow:
    """Aggregated episode metric for one grid column."""

    config_id: str
    controller: str
    n_seeds: int
    mean_q_cycle: float
    std_q_cycle: float
    phase_regime_mean: dict = field(hash=False, default_factory=dict)


def _aggregate(spec: RunSpec, per_seed: dict) -> SummaryRow:
    seed_means = []
    pooled: list[CycleRecord] = []
    for seed, records in sorted(per_seed.items()):
        if not records:
            raise ContractViolation(f"{spec.config_id} seed {seed}: no cycles completed")
        seed_means.append(float(np.mean([r.q_cycle for r in records])))
        pooled.extend(records)
    mean, std = mean_std(seed_means)
    phase_regime: dict = {}
    regimes = sorted({r.regime for r in pooled},
                     key=lambda s: (REGIME_ORDER.index(s) if s in REGIME_ORDER else 99, s))
    for regime in regimes:
        subset = [r for r in pooled if r.regime == regime]
        for p in range(N_PHASES):
            phase_regime[(regime, p)] = float(
                np.mean([r.phase_max_queue[p] for r in subset])
            )
    return SummaryRow(
        config_id=spec.config_id,
        controller=spec.controller,
        n_seeds=len(seed_means),
        mean_q_cycle=mean,
        std_q_cycle=std,
        phase_regime_mean=phase_regime,
    )


def run_grid(experiment: ExperimentConfig, specs, workers: int = 1):
    """Run every (config, seed) cell and aggregate per config.

    Returns ``(summary_rows, results)`` where ``results`` maps
    ``(config_id, seed)`` to the episode's cycle records.  Jobs are
    independent; ``workers > 1`` runs them on a process pool.  Output order
    and content are identical either way because each job owns its seed.
    """
    specs = list(specs)
    ids = [s.config_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("duplicate config_id in comparison grid")
    jobs = [(experiment, spec, seed) for spec in specs for seed in experiment.seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_grid_job, jobs))
    else:
        outcomes = [_grid_job(job) for job in jobs]
    results = {(config_id, seed): records for config_id, seed, records in outcomes}
    rows = []
    for spec in specs:
        per_seed = {seed: results[(spec.config_id, seed)] for seed in experiment.seeds}
        rows.append(_aggregate(spec, per_seed))
    return rows, results


def write_summary_csv(path, rows) -> None:
    """One row per config: mean and std of Q_cycle across seeds, then the
    per-phase mean queue split by flow regime."""
    rows = list(rows)
    pair_keys: list = []
    for row in rows:
        for key in row.phase_regime_mean:
            if key not in pair_keys:
                pair_keys.append(key)
    pair_keys.sort(key=lambda k: (REGIME_ORDER.index(k[0]) if k[0] in REGIME_ORDER
                                  else 99, k[0], k[1]))
    header = ["config_id", "controller", "n_seeds", "mean_Q_cycle", "std_Q_cycle"]
    header += [f"p{p + 1}_mean_q_{regime or 'all'}" for regime, p in pair_keys]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            cells = [row.config_id, row.controller, row.n_seeds,
                     repr(row.mean_q_cycle), repr(row.std_q_cycle)]
            for key in pair_keys:
                value = row.phase_regime_mean.get(key)
                cells.append("" if value is None else repr(value))
            writer.writerow(cells)


WEBSTER_LOG_HEADER = ("clock_s", "y1", "y2", "y3", "y4", "cycle_s",
                      "g1", "g2", "g3", "g4", "saturated")


def write_webster_log_csv(path, log_rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(WEBSTER_LOG_HEADER)
        for row in log_rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def write_correlations_csv(path, rows) -> None:
    """Rows of (seed, quantity, pearson_r); r may be None (blank cell)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("seed", "quantity", "pearson_r"))
        for seed, quantity, r in rows:
            writer.writerow((seed, quantity, "" if r is None else repr(r)))


_PLOT_SUMMARY_SRC = '''\
"""Bar chart of mean cycle queues per config from summary.csv.

Usage: python plot_summary.py [summary.csv] [out.png]
"""
import csv
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

src = sys.argv[1] if len(sys.argv) > 1 else "summary.csv"
dst = sys.argv[2] if len(sys.argv) > 2 else "summary.png"
with open(src, newline="") as fh:
    rows = list(csv.DictReader(fh))
labels = [r["config_id"] for r in rows]
means = [float(r["mean_Q_cycle"]) for r in rows]
stds = [float(r["std_Q_cycle"]) for r in rows]
fig, ax = plt.subplots(figsize=(1.2 * len(rows) + 2, 4))
ax.bar(labels, means, yerr=stds, capsize=4, color="#4878a8")
ax.set_ylabel("mean cycle queue (veh)")
ax.set_title("Controller comparison")
fig.tight_layout()
fig.savefig(dst, dpi=150)
print(f"wrote {dst}")
'''

_PLOT_CYCLES_SRC = '''\
"""Per-cycle queue traces from one or more cycles CSV files.

Usage: python plot_cycles.py cycles_a.csv [cycles_b.csv ...]
"""
import csv
import sys

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

paths = sys.argv[1:] or ["cycles.csv"]
fig, ax = plt.subplots(figsize=(8, 4))
for path in paths:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    xs = [int(r["cycle_index"]) for r in rows]
    ys = [float(r["Q_cycle"]) for r in rows]
    ax.plot(xs, ys, label=path)
ax.set_xlabel("cycle")
ax.set_ylabel("cycle queue (veh)")
ax.legend(fontsize=8)
fig.tight_layout()
fig.savefig("cycles.png", dpi=150)
print("wrote cycles.png")
'''


def write_plot_scripts(out_dir) -> None:
    """Drop standalone matplotlib scripts next to the CSV outputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "plot_summary.py").write_text(_PLOT_SUMMARY_SRC)
    (out / "plot_cycles.py").write_text(_PLOT_CYCLES_SRC)


def write_grid_outputs(out_dir, rows, results) -> None:
    """Summary plus one cycles CSV per (config, seed) cell."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_summary_csv(out / "summary.csv", rows)
    for (config_id, seed), records in sorted(results.items()):
        write_cycles_csv(out / f"cycles_{config_id}_seed{seed}.csv", records)
