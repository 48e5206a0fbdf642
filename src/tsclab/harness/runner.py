"""Episode execution, policy playback, and the comparison grid runner."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..baselines import DynamicWebsterController, FixedTimeController
from ..envs import run_to_decision
from ..errors import ConfigurationError
from ..agents.bundle import PolicyBundle
from ..sim import SimState, apply_action
from ..sim import step  # noqa: F401  (unused; perfbench/spans.py wraps it by this name)
from ..neural import softmax_sample
from .config import RunSettings, add_pair, read_lines
from .metrics import CycleRecord, CycleTracker


class PolicyController:
    """Plays a saved policy on its bundle's observation at every decision
    point.

    With ``sample_seed`` set, actions are drawn from the policy's action
    distribution (the object the training objective optimizes); :func:`run_grid`
    seeds their generator with the cell's seed, as it seeds the arrivals, so
    both start in one state.  Without it, playback is greedy argmax.
    Greedy playback can collapse a rarely-extended phase to a constant
    green, which hides the policy's queue responsiveness.
    """

    def __init__(self, bundle: PolicyBundle, sample_seed: int | None = None) -> None:
        self.bundle = bundle
        self._rng = (None if sample_seed is None
                     else np.random.Generator(np.random.PCG64(int(sample_seed))))

    def decide(self, sim) -> int:
        outputs = self.bundle.policy.predict(self.bundle.observation.observe(sim))
        if self._rng is None:
            return int(np.argmax(outputs))
        return softmax_sample(outputs, self._rng)[0]


# How a grid cell builds each controller kind from the run, its column's
# bundle (policy columns only) and its sample seed (sampled playback only).
CONTROLLERS = {
    "fixed": lambda run, bundle, sample_seed: FixedTimeController(),
    "webster": lambda run, bundle, sample_seed: DynamicWebsterController(
        run.layout, run.plan, run.webster),
    "policy": lambda run, bundle, sample_seed: PolicyController(bundle, sample_seed),
}


def run_episode(sim: SimState, controller, horizon_s: int) -> list[CycleRecord]:
    """Drive ``sim`` under ``controller`` until the clock reaches
    ``horizon_s`` and return the per-cycle queue records of the cycles it
    completed.

    A controller object plays one episode: build a new one per call.  The
    controller is consulted at every decision point below the horizon,
    through the same :func:`~tsclab.envs.run_to_decision` driver as
    training.  Only a controller that defines ``on_tick(sim)`` puts a hook
    on the ticks; the cycle records come from the simulator's
    ``completed_cycles``."""
    on_tick = getattr(controller, "on_tick", None)
    while run_to_decision(sim, horizon_s, on_tick):
        apply_action(sim, controller.decide(sim))
    tracker = CycleTracker(sim.flows)
    return [tracker.feed(entry) for entry in sim.completed_cycles]


# -- comparison grid -----------------------------------------------------------


PLAYBACK_KINDS = ("sample", "greedy")


@dataclass(frozen=True)
class RunSpec:
    """One named column of a comparison: a controller (a key of
    :data:`CONTROLLERS`) and, for a policy only, its weight file and how it
    plays them (one of :data:`PLAYBACK_KINDS`; None picks the bundle's
    default, see :meth:`playback_for`).  A grid line's keys are these
    fields' names, see :func:`read_grid`."""

    config_id: str
    controller: str
    weights: str | None = None
    playback: str | None = None

    def __post_init__(self) -> None:
        if "/" in self.config_id or "\0" in self.config_id:
            # the id names the column's output files
            raise ConfigurationError(
                f"{self.config_id!r}: a config_id may not contain '/' or a NUL byte")
        if self.controller not in CONTROLLERS:
            raise ConfigurationError(
                f"{self.config_id}: unknown controller {self.controller!r}; "
                f"expected one of {tuple(CONTROLLERS)}"
            )
        if self.controller == "policy" and not self.weights:
            raise ConfigurationError(
                f"{self.config_id}: policy entries need weights=<path>"
            )
        for key in ("weights", "playback"):
            if self.controller != "policy" and getattr(self, key) is not None:
                raise ConfigurationError(
                    f"{self.config_id}: only policy entries take {key}=")
        if self.playback is not None and self.playback not in PLAYBACK_KINDS:
            raise ConfigurationError(
                f"{self.config_id}: unknown playback {self.playback!r}; "
                f"expected one of {PLAYBACK_KINDS}")

    def playback_for(self, bundle: PolicyBundle) -> str:
        """The playback of this column's ``bundle``: a PPO policy samples
        the action distribution it was trained on; a DQN's outputs are
        Q-values, not a distribution, so it plays their argmax and cannot
        be sampled."""
        if bundle.algo != "dqn":
            return self.playback or "sample"
        if self.playback == "sample":
            raise ConfigurationError(
                f"{self.config_id}: a dqn bundle plays its argmax; "
                f"playback=sample needs a policy distribution")
        return "greedy"


def read_grid(path) -> list[RunSpec]:
    """The columns of grid file ``path``: each line is a ``config_id``
    followed by ``key=value`` tokens whose keys are :class:`RunSpec`'s other
    fields, each at most once; ``controller`` is required."""
    keys = {field.name for field in fields(RunSpec)} - {"config_id"}
    specs = []
    for lineno, line in read_lines(path, "grid file"):
        config_id, *tokens = line.split()
        values = {}
        for token in tokens:
            add_pair(values, token, keys, f"{path}:{lineno}")
        if "controller" not in values:
            raise ConfigurationError(f"{path}:{lineno}: missing controller=")
        specs.append(RunSpec(config_id, **values))
    if not specs:
        raise ConfigurationError(f"{path}: no grid entries")
    return specs


def _grid_job(job: tuple) -> tuple:
    run, config_id, seed, controller = job
    sim = SimState(run.layout, run.plan, run.flows, seed)
    records = run_episode(sim, controller, run.horizon_s)
    return (config_id, seed), records, getattr(controller, "recompute_log", None)


def run_grid(run: RunSettings, specs):
    """Run every (config, seed) cell; return two dicts keyed by
    ``(config_id, seed)``: every cell's cycle records, and each Webster
    cell's timing recomputations (its controller's ``recompute_log``).

    Each policy column's bundle is loaded once and every cell's controller
    is built before the first episode, so a bad input fails before any
    episode runs.  A sampled policy draws its actions from a stream seeded
    by the cell's seed.
    Jobs are independent; ``run.workers > 1`` runs them on a process pool
    of that many workers, but no more than the cells (a pool starts them all).
    Output order and content are identical either way because each job owns
    its seed.
    """
    specs = list(specs)
    ids = [s.config_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("duplicate config_id in comparison grid")
    bundles = {spec.config_id: PolicyBundle.load(spec.weights)
               for spec in specs if spec.controller == "policy"}
    jobs = []
    for spec in specs:
        bundle = bundles.get(spec.config_id)
        sampled = bundle is not None and spec.playback_for(bundle) == "sample"
        jobs += [(run, spec.config_id, seed,
                  CONTROLLERS[spec.controller](run, bundle, seed if sampled else None))
                 for seed in run.seeds]
    workers = min(run.workers, len(jobs))
    if workers > 1:
        # imported here: the process pool machinery costs every other run
        # about 1.5 MB of resident memory and part of the import time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_grid_job, jobs))
    else:
        outcomes = [_grid_job(job) for job in jobs]
    return ({key: records for key, records, _log in outcomes},
            {key: log for key, _records, log in outcomes if log is not None})
