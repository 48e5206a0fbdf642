"""Per-cycle queue metrics, the comparison report's tables, and CSV output.

The headline evaluation number for a run is the per-cycle total queue: for
each signal cycle, take every lane's maximum queue over the cycle's ticks,
reduce each approach to its worse lane, and sum the four approaches.  Lower
is better; the metric is monotone in congestion even when queues exceed the
nominal lane storage.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import ContractViolation
from ..sim import N_PHASES, FlowProfile, approach_max, phase_max


@dataclass(frozen=True)
class CycleRecord:
    """Queue statistics of one completed signal cycle.  A cycle's number is
    its position in its run's list of records."""

    approach_max_queue: tuple
    cycle_len_s: int
    green_s: tuple
    phase_max_queue: tuple
    regime: str = ""

    @property
    def q_cycle(self) -> int:
        """The cycle's total queue: its approach maxima summed."""
        return sum(self.approach_max_queue)


class CycleTracker:
    """Turns the simulator's completed cycles into records.

    ``feed`` takes one ``SimState.completed_cycles`` entry, ``(start_tick,
    length_s, lane_max, green_s)``, whose lane maxima the simulator keeps as
    each lane's largest queue over the cycle's ticks, reduces each approach
    and each phase to its worse lane, and tags the cycle with the regime of
    ``flows`` during its first tick.
    """

    def __init__(self, flows: FlowProfile) -> None:
        self._flows = flows

    def feed(self, entry: tuple) -> CycleRecord:
        start_tick, length_s, lane_max, green_s = entry
        return CycleRecord(
            approach_max_queue=approach_max(lane_max),
            cycle_len_s=length_s,
            green_s=tuple(float(g) for g in green_s),
            phase_max_queue=phase_max(lane_max),
            regime=self._flows.regime_at(start_tick - 1),
        )


def mean_q_cycle(records: Sequence[CycleRecord]) -> float:
    """Mean per-cycle total queue over one episode's cycle records."""
    if not records:
        raise ContractViolation("episode completed no cycles")
    return float(np.mean([r.q_cycle for r in records]))


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1); std is 0 for one value."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no values to aggregate")
    mean = float(arr.mean())
    std = 0.0 if arr.size < 2 else float(arr.std(ddof=1))
    return mean, std


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Pearson correlation; None marks an undefined value (zero variance)."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.size < 2:
        raise ValueError("need two equally long series of length >= 2")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        return None
    return float((xc @ yc) / (sx * sy))


def correlation_report(records: Sequence[CycleRecord]) -> dict:
    """Adaptivity diagnostics over a run's cycles, by the quantity names of
    ``correlations_*.csv``: per phase, the correlation between allocated
    green and the phase's max queue, then cycle length against total queue.
    Under 10 cycles say nothing meaningful, so every correlation is then
    undefined (None)."""
    pairs = {f"green{p + 1}_vs_phase_queue": ([r.green_s[p] for r in records],
                                              [r.phase_max_queue[p] for r in records])
             for p in range(N_PHASES)}
    pairs["cycle_len_vs_total_queue"] = ([r.cycle_len_s for r in records],
                                         [r.q_cycle for r in records])
    enough = len(records) >= 10
    return {name: pearson(x, y) if enough else None for name, (x, y) in pairs.items()}


REGIME_ORDER = ("high", "medium", "low")


def summary_table(columns: Sequence[tuple], seeds: Iterable[int],
                  results: dict) -> tuple[list, list]:
    """``summary.csv``'s header and rows: one row per ``(config_id,
    controller)`` column with its seed count and the mean and std of
    Q_cycle across seeds, then per flow regime (in :data:`REGIME_ORDER`,
    then by name) each phase's mean max queue over the column's cycles in
    that regime, blank where it has none.  ``results`` maps ``(config_id,
    seed)`` to an episode's cycle records."""
    seeds = sorted(seeds)
    pooled = {config_id: [r for seed in seeds for r in results[(config_id, seed)]]
              for config_id, _ in columns}
    regimes = sorted({r.regime for records in pooled.values() for r in records},
                     key=lambda g: (REGIME_ORDER.index(g) if g in REGIME_ORDER
                                    else len(REGIME_ORDER), g))
    header = ["config_id", "controller", "n_seeds", "mean_Q_cycle", "std_Q_cycle"]
    header += [f"p{p + 1}_mean_q_{regime or 'all'}"
               for regime in regimes for p in range(N_PHASES)]
    rows = []
    for config_id, controller in columns:
        # RunSettings' horizon floor gives every episode at least one cycle
        mean, std = mean_std([mean_q_cycle(results[(config_id, seed)]) for seed in seeds])
        cells = []
        for regime in regimes:
            subset = [r for r in pooled[config_id] if r.regime == regime]
            cells += [float(np.mean([r.phase_max_queue[p] for r in subset]))
                      if subset else None for p in range(N_PHASES)]
        rows.append([config_id, controller, len(seeds), mean, std, *cells])
    return header, rows


# -- CSV output ---------------------------------------------------------------


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as one CSV table, with one rule for every
    cell: None is an empty cell, any float (numpy's included) prints as
    ``repr(float(v))``, and anything else as ``str(v)``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # csv already writes None as "" and a float as its repr, but the repr
        # of a numpy float names its type ("np.float64(0.5)")
        writer.writerows([float(v) if isinstance(v, np.floating) else v for v in row]
                         for row in rows)


CYCLES_CSV_HEADER = ("cycle_index", "Q_cycle", "Q_N", "Q_E", "Q_S", "Q_W",
                     "cycle_len_s", "g1", "g2", "g3", "g4", "regime")


def write_cycles_csv(path, records: Iterable[CycleRecord]) -> None:
    write_csv(path, CYCLES_CSV_HEADER,
              ((i, r.q_cycle, *r.approach_max_queue, r.cycle_len_s, *r.green_s, r.regime)
               for i, r in enumerate(records)))
