"""Shared fixtures and the acceptance-criterion reporting hook."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from tsclab.errors import ContractViolation
from tsclab.harness.metrics import CycleRecord
from tsclab.sim import (FlowProfile, IntersectionLayout, LANE_IDS, N_LANES, N_PHASES, PhasePlan,
                        step)
from tsclab.weights import load_arrays, save_arrays

# (label, passed, detail) tuples collected by the acceptance tests and
# replayed as one line each at the end of the pytest run
_CRITERION_LINES: list[tuple[str, bool, str]] = []


def record_criterion(label: str, passed: bool, detail: str) -> None:
    _CRITERION_LINES.append((label, passed, detail))
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {label}: {status} ({detail})", flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for label, passed, detail in _CRITERION_LINES:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{label}: {status} ({detail})")


@pytest.fixture
def layout() -> IntersectionLayout:
    return IntersectionLayout()


@pytest.fixture
def plan() -> PhasePlan:
    return PhasePlan()


@pytest.fixture
def zero_flows() -> FlowProfile:
    return uniform_profile([0.0] * N_LANES)


def uniform_profile(rates_veh_h, span_s: float = 3600.0) -> FlowProfile:
    """Constant per-lane rates in veh/h, ordered as ``LANE_IDS``."""
    return FlowProfile.build(
        {lane: [(0.0, span_s, rate)] for lane, rate in zip(LANE_IDS, rates_veh_h, strict=True)}
    )


def softmax(logits) -> np.ndarray:
    """Stable softmax along the last axis: the plain reference the sampler
    and the trained policies are checked against."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def reference_softmax_sample(logits, rng) -> tuple[int, float]:
    """The categorical draw as it ran on numpy arrays: max-subtracted
    log-softmax, normalized probabilities and a left-to-right inverse CDF.
    Training and evaluation results depend on every bit of its action, its
    log-probability and the one ``rng.random()`` it consumes."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("softmax_sample expects a single logit vector")
    m = z.max()
    if m != m:
        raise ValueError("NaN logits")
    z = z - m
    logp = z - np.log(np.exp(z).sum())
    probs = np.exp(logp)
    probs /= probs.sum()
    u = rng.random()
    action = len(probs) - 1
    total = 0.0
    for i, p in enumerate(probs.tolist()):
        total += p
        if not u >= total:
            action = i
            break
    return action, float(logp[action])


# the K-Planes groups of expanded-state components; one plane per pair
_REF_GROUPS = ((0, 5, 6), (7, 8, 9, 10), (11, 12, 13, 14), (15, 16, 17, 18))
_REF_PLANE_UV = np.array([pair for group in _REF_GROUPS
                          for pair in combinations(group, 2)]).T
_REF_GROUP_STARTS = np.array((0, 3, 9, 15))


def random_planes(seed: int, resolution: int, feature_dim: int) -> np.ndarray:
    """21 random (resolution, resolution, feature_dim) feature planes, drawn
    as ``kplanes_planes`` draws its 8 x 8 x 16 ones, for transform tests
    over other plane shapes."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.uniform(0.5, 1.5, size=(21, resolution, resolution, feature_dim))


def reference_kplanes_transform(planes, state) -> np.ndarray:
    """The K-Planes transform as it ran plane-array by plane-array: the "dq"
    components rescaled in a state copy, per-axis grid sizes, a corner index
    built on every call, weights from four gathered factor rows and the four
    weighted corners summed by hand.  Every K-Planes observation depends on
    every bit of it."""
    s = np.asarray(state, dtype=np.float64)
    if s.shape != (19,):
        raise ContractViolation("expected a 19-component state")
    coords = s.copy()
    coords[11:15] = (s[11:15] + 1.0) / 2.0
    uv = coords[_REF_PLANE_UV]
    if np.isnan(uv).any():
        raise ContractViolation("cannot sample a feature plane at NaN")
    grids = planes
    n, rows, cols = grids.shape[:3]
    last = np.array(((rows - 1,), (cols - 1,)))
    xy = np.minimum(np.maximum(uv, 0.0), 1.0) * last
    ij = np.minimum(xy.astype(np.intp), last - 1)
    t = xy - ij
    first = np.arange(0, n * rows * cols, rows * cols) + ij[0] * cols + ij[1]
    corners = grids.reshape((-1,) + grids.shape[3:])[
        first + np.array(((0,), (cols,), (1,), (cols + 1,)))]
    factors = np.concatenate((1.0 - t, t))  # rows 1-tu, 1-tv, tu, tv
    terms = (factors[[0, 2, 0, 2]] * factors[[1, 1, 3, 3]])[..., None] * corners
    samples = terms[0] + terms[1] + terms[2] + terms[3]
    features = np.multiply.reduceat(samples, _REF_GROUP_STARTS, axis=0)
    return np.concatenate((features.ravel(), s[1:5]))


def reference_expanded_state(sim, cycles_max: float = 72.0) -> np.ndarray:
    """The expanded state as it was built from lists: a one-hot phase list,
    the queue, change and green components from comprehensions, one array
    of the concatenation, and a clamp into fresh arrays.  Every expanded,
    latent and K-Planes observation depends on every bit of it."""
    q_max, g_max = 25.0, 40.0
    q_now = sim.approach_queues()
    phase = [0.0] * N_PHASES
    phase[sim.current_phase] = 1.0
    raw = np.array(
        [sim.cycle_elapsed_s / 180.0, *phase,
         sim.phase_elapsed_s / g_max, len(sim.completed_cycles) / cycles_max]
        + [q / q_max for q in q_now]
        + [(q - p) / q_max for q, p in zip(q_now, sim.decision_queues)]
        + [g / g_max for g in sim.programmed_green_s],
        dtype=np.float64,
    )
    lower = np.zeros(19)
    lower[11:15] = -1.0
    return np.minimum(np.maximum(raw, lower), 1.0)


def rewrite_weight_file(src, dst, norms=None, **fields) -> None:
    """Copy weight file ``src`` to ``dst`` with the given tag fields' values
    replaced or, for a field the tag lacks, appended (a value of None drops
    the field) and, when ``norms`` is given, its first array replaced; every
    other byte stays as saved."""
    blob = load_arrays(src)
    items = dict(item.split("=", 1) for item in blob.tag.split(";"))
    items.update(fields)
    tag = ";".join(f"{key}={value}" for key, value in items.items() if value is not None)
    arrays = blob.arrays
    if norms is not None:
        arrays = [np.array(norms, dtype=np.float64)] + arrays[1:]
    save_arrays(dst, arrays, tag=tag, seed=blob.seed)


def cycle_queue_metric(tick_queues, green_s=(0.0,) * N_PHASES,
                       regime: str = "") -> CycleRecord:
    """Brute-force Q_cycle of one cycle from its per-tick lane queues, one
    8-lane row per tick: per lane the max over ticks, per approach the max
    over its two lanes, summed over the approaches.  The reference the
    simulator's running per-cycle maxima are replayed against."""
    arr = np.asarray(tick_queues)
    if arr.size == 0:
        raise ValueError("empty tick log: a cycle needs at least one tick")
    if arr.ndim != 2 or arr.shape[1] != N_LANES:
        raise ValueError(f"tick log must be T x {N_LANES} queue lengths")
    lane_max = arr.max(axis=0)
    # LANE_IDS run N0 N1 E0 E1 S0 S1 W0 W1: an approach is two adjacent
    # lanes, and lanes i and i + 4 face each other and share phase i
    approach_max = tuple(lane_max.reshape(4, 2).max(axis=1).tolist())
    phase_max = tuple(lane_max.reshape(2, 4).max(axis=0).tolist())
    return CycleRecord(approach_max_queue=approach_max, cycle_len_s=arr.shape[0],
                       green_s=tuple(float(g) for g in green_s),
                       phase_max_queue=phase_max, regime=regime)


def force_queue(sim, lane: int, count: int, join_tick: int | None = None) -> None:
    """Plant ``count`` vehicles at the back of a lane's queue, joined at
    ``join_tick`` (default: now) (test scaffolding)."""
    join = sim.clock if join_tick is None else join_tick
    sim.queues[lane].append([join, count])
    sim.queued[lane] += count
    sim.join_ticks[lane] += join * count


def force_transit(sim, lane: int, count: int, stopline_tick: int) -> None:
    """Plant ``count`` vehicles travelling in a lane that reach its stopline
    at ``stopline_tick``, after any already travelling."""
    counts = [0] * N_LANES
    counts[lane] = count
    sim.transit.append((stopline_tick, counts))


def step_crossings(sim) -> list[int]:
    """Advance ``sim`` one tick and return each lane's vehicles that crossed
    its stopline on it, passed through or discharged.  The simulator keeps
    no such count; it follows from conservation: the lane's queued and
    approaching vehicles before the tick, plus its arrivals, minus its
    queued and approaching vehicles after it."""
    def held():
        return [q + a for q, a in zip(sim.queued, sim.approaching())]

    before = held()
    step(sim)
    return [b + a - h for b, a, h in zip(before, sim.arrivals, held())]


def rate_veh_h(profile, lane: int, t_s: float) -> float:
    """A lane's arrival rate in veh/h at time ``t_s``."""
    return float(profile.rates_and_horizon(t_s)[0][lane]) * 3600.0


def compensated_sum(values, start=0):
    """A sum of floats as Python 3.12's builtin ``sum`` takes it: compensated
    (Neumaier), so it can differ in the last bit from adding left to right."""
    total, compensation = float(start), 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


def lane_index(lane_id: str) -> int:
    return LANE_IDS.index(lane_id)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(20260816))
