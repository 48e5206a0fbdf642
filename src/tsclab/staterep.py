"""Observation encodings of the intersection state for the controllers.

Four families: a raw 8-scalar summary, a normalized 19-component vector, a
learned autoencoder latent of that vector, and a fixed random-grid transform
that expands the 19 components to 68 features by sampling factorized feature
planes with bilinear interpolation.  The DQN baseline observes its own
40-value per-lane features.  Every encoding is a pure function of the
simulation state (plus fixed parameters), so repeated calls at the same tick
return identical vectors; :func:`make_observation` builds each kind.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .neural import Mlp
from .sim import FREE_FLOW_SPEED_MS, N_LANES, N_PHASES, PHASE_SERVED, SimState, sum_in_order

EXPANDED_DIM = 19
KPLANES_DIM = 68

# component layout of the expanded vector
_IDX_TC = 0
_IDX_PHASE = slice(1, 5)
_IDX_TP = 5
_IDX_NCYC = 6
# lower clamp per component: the queue changes (11-14) reach down to -1
_LOWER = np.zeros(EXPANDED_DIM)
_LOWER[11:15] = -1.0
# the one-hot active phase, per phase
_PHASE_ONE_HOT = tuple(tuple(float(p == active) for p in range(N_PHASES))
                       for active in range(N_PHASES))


# divisors scaling the raw state components into [0, 1]: queues, greens and
# the elapsed cycle are fixed; the completed-cycle count's divisor
# ``cycles_max`` is the one an observation chooses (training sets it from its
# budget), by default the nominal cycles of a 7200 s episode
QUEUE_MAX = 25.0
GREEN_MAX_S = 40.0
CYCLE_TIME_MAX_S = 180.0
DEFAULT_CYCLES_MAX = 72.0


def baseline_state(sim: SimState) -> np.ndarray:
    """Raw 8-scalar summary: cycle length, per-phase programmed greens, the
    1-based active phase, remaining green of the active phase, and the total
    queue (per-approach maxima summed).  Nothing is normalized."""
    greens = sim.programmed_green_s
    cycle_len = sum_in_order(greens) + N_PHASES * sim.plan.yellow_s
    remaining = max(greens[sim.current_phase] - sim.phase_elapsed_s, 0.0)
    total_q = float(sum(sim.approach_queues()))
    return np.array(
        [cycle_len, greens[0], greens[1], greens[2], greens[3],
         sim.current_phase + 1, remaining, total_q],
        dtype=np.float64,
    )


def expanded_state(sim: SimState, cycles_max: float = DEFAULT_CYCLES_MAX) -> np.ndarray:
    """Normalized 19-component observation.

    Layout: cycle-elapsed time, 4-D one-hot active phase, phase-elapsed green,
    completed-cycle count, per-approach max queues, their change since the
    previous decision point (``sim.decision_queues``, zeros before the first
    action), and the programmed greens.  Queue components clamp into [0, 1]
    and the change components into [-1, 1], so saturated lanes cannot push
    the vector out of its documented range.
    """
    q_max, g_max = QUEUE_MAX, GREEN_MAX_S
    q0, q1, q2, q3 = sim.approach_queues()
    p0, p1, p2, p3 = sim.decision_queues
    g0, g1, g2, g3 = sim.programmed_green_s
    raw = np.array(
        (sim.cycle_elapsed_s / CYCLE_TIME_MAX_S, *_PHASE_ONE_HOT[sim.current_phase],
         sim.phase_elapsed_s / g_max, len(sim.completed_cycles) / cycles_max,
         q0 / q_max, q1 / q_max, q2 / q_max, q3 / q_max,
         (q0 - p0) / q_max, (q1 - p1) / q_max, (q2 - p2) / q_max, (q3 - p3) / q_max,
         g0 / g_max, g1 / g_max, g2 / g_max, g3 / g_max),
        dtype=np.float64,
    )
    np.maximum(raw, _LOWER, out=raw)
    return np.minimum(raw, 1.0, out=raw)


# continuous feature groups of the expanded vector: (name, component indices);
# the "dq" components rescale from [-1, 1] to [0, 1] before sampling
_KPLANES_GROUPS = (
    ("time", (_IDX_TC, _IDX_TP, _IDX_NCYC)),
    ("queue", tuple(range(7, 11))),
    ("dq", tuple(range(11, 15))),
    ("green", tuple(range(15, 19))),
)
# every unordered component pair of each group owns one plane, in this order;
# column k of _PLANE_UV holds plane k's (u, v) components
_GROUP_PAIRS = tuple(tuple(combinations(indices, 2)) for _n, indices in _KPLANES_GROUPS)
_PLANE_UV = np.array([pair for pairs in _GROUP_PAIRS for pair in pairs]).T
_GROUP_STARTS = np.cumsum([0] + [len(pairs) for pairs in _GROUP_PAIRS[:-1]])
# the planes of the third group, "dq"
_DQ_PLANES = slice(int(_GROUP_STARTS[2]), int(_GROUP_STARTS[3]))
_PLANE_NUMBERS = np.arange(_PLANE_UV.shape[1])
# a cell's corners g00, g10, g01, g11 as steps from g00 along u (the grid's
# first axis) and v
_CORNER_DU = np.array(((0,), (1,), (0,), (1,)))
_CORNER_DV = np.array(((0,), (0,), (1,), (1,)))


# every plane is a KPLANES_RESOLUTION x KPLANES_RESOLUTION grid of
# KPLANES_FEATURES-dimensional feature vectors, drawn from seed KPLANES_SEED
KPLANES_RESOLUTION = 8
KPLANES_FEATURES = 16
KPLANES_SEED = 1234


def kplanes_planes(seed: int) -> np.ndarray:
    """The fixed random feature planes of the factorized 68-D transform.

    Each continuous group of the expanded state owns one plane per unordered
    pair of its components.  Group sizes (3, 4, 4, 4) give 3 + 6 + 6 + 6 = 21
    planes, stacked as one read-only (21, R, R, F) array filled from a
    uniform(0.5, 1.5) draw seeded by ``seed``; the same seed always draws the
    same planes.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    planes = rng.uniform(0.5, 1.5, size=(_PLANE_UV.shape[1], KPLANES_RESOLUTION,
                                         KPLANES_RESOLUTION, KPLANES_FEATURES))
    planes.flags.writeable = False
    return planes


def kplanes_transform(planes: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Expand a 19-component state through feature planes ``planes``, one
    (21, R, R, F) array such as :func:`kplanes_planes` draws.

    For every component pair inside a group, the pair's plane is sampled
    bilinearly at the two component values; the samples multiply element-wise,
    left to right, into one feature vector per group.  The four group vectors
    concatenate with the one-hot phase, giving 4*F + 4 features.

    An R x R plane's nodes sit at coordinates i/(R-1) along its first two
    axes, and coordinates clamp to [0, 1]; the per-node feature vectors
    interpolate componentwise.  Each sample is ``(1-tu)(1-tv) g00 +
    tu (1-tv) g10 + (1-tu) tv g01 + tu tv g11``, each weight formed before it
    scales its corner and the terms summed left to right.  All planes sample
    at once, with one gather of their corners from ``planes`` as the call
    finds it.  A NaN in a sampled component raises
    :class:`ContractViolation`; the one-hot phase passes through as given.
    """
    s = np.asarray(state, dtype=np.float64)
    if s.shape != (EXPANDED_DIM,):
        raise ContractViolation(f"expected a {EXPANDED_DIM}-component state")
    uv = s[_PLANE_UV]
    dq = uv[:, _DQ_PLANES]
    dq += 1.0
    dq /= 2.0
    if np.isnan(uv).any():
        raise ContractViolation("cannot sample a feature plane at NaN")
    n, r = planes.shape[:2]
    xy = np.minimum(np.maximum(uv, 0.0), 1.0)
    xy *= r - 1
    ij = np.minimum(xy.astype(np.intp), r - 2)
    t = xy - ij
    # corners[c, k] is corner c of plane k's cell, gathered in one index
    corners = planes[_PLANE_NUMBERS, ij[0] + _CORNER_DU, ij[1] + _CORNER_DV]
    # factors[side, axis]: side 0 is 1 - t and side 1 is t, axis 0 is u and
    # 1 is v; weights[b, a] = u-factor a times v-factor b, in corner order
    factors = np.concatenate((1.0 - t, t)).reshape(2, 2, n)
    weights = (factors[None, :, 0] * factors[:, None, 1]).reshape(4, n, 1)
    # -0.0 starts the sum, not add's identity 0.0, so that four -0.0 terms
    # sum to -0.0 as they do left to right
    samples = np.add.reduce(corners * weights, axis=0, initial=-0.0)
    features = np.multiply.reduceat(samples, _GROUP_STARTS, axis=0)
    return np.concatenate((features.ravel(), s[_IDX_PHASE]))


# -- controller-facing observations -----------------------------------------


class Observation:
    """Base of the observation kinds: ``kind`` names one, ``dim`` is its
    length and ``observe(sim)`` computes it.  Besides its kind, an
    observation keeps only what training chose for it, which a policy bundle
    saves with it: the completed-cycle divisor ``cycles_max`` and the
    ``encoder`` of a latent.  A kind that uses neither keeps these defaults."""

    cycles_max = DEFAULT_CYCLES_MAX
    encoder: Mlp | None = None


class BaselineObservation(Observation):
    kind = "baseline"
    dim = 8

    def observe(self, sim: SimState) -> np.ndarray:
        return baseline_state(sim)


class ExpandedObservation(Observation):
    kind = "expanded"
    dim = EXPANDED_DIM

    def __init__(self, cycles_max: float = DEFAULT_CYCLES_MAX) -> None:
        self.cycles_max = cycles_max

    def observe(self, sim: SimState) -> np.ndarray:
        return expanded_state(sim, self.cycles_max)


class LatentObservation(Observation):
    """Autoencoder latent of the expanded state."""

    def __init__(self, encoder: Mlp, cycles_max: float = DEFAULT_CYCLES_MAX) -> None:
        if encoder.layer_sizes[0] != EXPANDED_DIM:
            raise ConfigurationError(
                f"encoder takes {encoder.layer_sizes[0]} inputs, expected the "
                f"{EXPANDED_DIM}-component expanded state"
            )
        self.encoder = encoder
        self.cycles_max = cycles_max
        self.dim = encoder.layer_sizes[-1]
        self.kind = f"ae{self.dim}"

    def observe(self, sim: SimState) -> np.ndarray:
        return self.encoder.predict(expanded_state(sim, self.cycles_max))


class KPlanesObservation(Observation):
    kind = "kplanes"
    dim = KPLANES_DIM

    def __init__(self, cycles_max: float = DEFAULT_CYCLES_MAX) -> None:
        self.planes = kplanes_planes(KPLANES_SEED)
        self.cycles_max = cycles_max

    def observe(self, sim: SimState) -> np.ndarray:
        return kplanes_transform(self.planes, expanded_state(sim, self.cycles_max))


class DqnObservation(Observation):
    """Per-lane feature rows for the DQN baseline, flattened to 40 values.

    Each lane contributes (served-by-active-green flag, approaching count,
    queue length, total wait, summed speeds).  The counts divide by
    ``QUEUE_MAX``, the wait by 600 s and the speeds by ``QUEUE_MAX`` times
    the free-flow speed, so magnitudes stay near [0, 1]."""

    kind = "dqn40"
    dim = 5 * N_LANES

    def observe(self, sim: SimState) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.float64)
        served = () if sim.in_yellow else PHASE_SERVED[sim.current_phase]
        for lane in range(N_LANES):
            approaching, queued, wait_s, speeds = sim.lane_observables(lane)
            base = 5 * lane
            out[base] = 1.0 if lane in served else 0.0
            out[base + 1] = approaching / QUEUE_MAX
            out[base + 2] = queued / QUEUE_MAX
            out[base + 3] = wait_s / 600.0
            out[base + 4] = speeds / (QUEUE_MAX * FREE_FLOW_SPEED_MS)
        return out


# the encoder-free kinds a PPO policy trains on; a latent's kind ``ae<k>``
# comes from its encoder, and the DQN baseline's ``dqn40`` is not one
REPRESENTATION_KINDS = ("baseline", "expanded", "kplanes")


def make_observation(kind: str, cycles_max: float = DEFAULT_CYCLES_MAX) -> Observation:
    """Build the observation of an encoder-free kind, ``dqn40`` included; a
    latent is built from its encoder, as :class:`LatentObservation`.

    ``cycles_max`` divides the completed-cycle count of the kinds built on
    the expanded state; the other kinds ignore it.
    """
    if kind == "baseline":
        return BaselineObservation()
    if kind == "expanded":
        return ExpandedObservation(cycles_max)
    if kind == "kplanes":
        return KPlanesObservation(cycles_max)
    if kind == "dqn40":
        return DqnObservation()
    raise ConfigurationError(
        f"unknown representation {kind!r}; expected dqn40 or one of {REPRESENTATION_KINDS}"
    )
