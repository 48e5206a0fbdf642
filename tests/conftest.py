"""Shared fixtures and the acceptance-criterion reporting hook."""

from __future__ import annotations

import numpy as np
import pytest

from tsclab.sim import FlowProfile, IntersectionLayout, LANE_IDS, N_LANES, PhasePlan

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
    return FlowProfile.uniform([0.0] * N_LANES)


def force_queue(sim, lane: int, count: int, join_tick: int | None = None) -> None:
    """Plant ``count`` vehicles at the back of a lane's queue, joined at
    ``join_tick`` (default: now), in a run that records no events (test
    scaffolding)."""
    join = sim.clock if join_tick is None else join_tick
    sim.queues[lane].append([join, count])
    sim.queued[lane] += count
    sim.join_ticks[lane] += join * count


def force_transit(sim, lane: int, count: int, stopline_tick: int) -> list[int]:
    """Plant ``count`` vehicles travelling in a lane that reach its stopline
    at ``stopline_tick``, after any already travelling; return their ids."""
    first = sim._next_vehicle_id
    sim._next_vehicle_id += count
    ids = list(range(first, first + count))
    if sim.vehicle_ids is not None:
        sim.vehicle_ids[lane].extend(ids)
    counts = [0] * N_LANES
    counts[lane] = count
    sim.transit.append((stopline_tick, counts))
    return ids


def lane_events(sim, lane: int) -> list[tuple[int, str, int]]:
    """(tick, event, vehicle id) of every recorded event of one lane."""
    return [(tick, event, vid) for tick, lane_id, event, vid in sim.events
            if lane_id == LANE_IDS[lane]]


def rate_veh_h(profile, lane: int, t_s: float) -> float:
    """A lane's arrival rate in veh/h at time ``t_s``."""
    return float(profile.rates_and_horizon(t_s)[0][lane]) * 3600.0


def lane_index(lane_id: str) -> int:
    return LANE_IDS.index(lane_id)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(20260816))
