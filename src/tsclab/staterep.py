"""Observation encodings of the intersection state for the controllers.

Four families: a raw 8-scalar summary, a normalized 19-component vector, a
learned autoencoder latent of that vector, and a fixed random-grid transform
that expands the 19 components to 68 features by sampling factorized feature
planes with bilinear interpolation.  Every encoding is a pure function of the
simulation state (plus fixed parameters), so repeated calls at the same tick
return identical vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .neural import Mlp
from .sim import N_PHASES, SimState

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


@dataclass(frozen=True)
class StateNormalizers:
    """Constants dividing the raw state components into [0, 1] ranges."""

    queue_max: float = 25.0
    green_max_s: float = 40.0
    cycle_time_max_s: float = 180.0
    cycles_max: float = 72.0

    def __post_init__(self) -> None:
        for name in ("queue_max", "green_max_s", "cycle_time_max_s", "cycles_max"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be positive")

    @staticmethod
    def for_horizon(horizon_s: float, nominal_cycle_s: float = 100.0) -> "StateNormalizers":
        """Normalizers whose cycle-count scale matches a run horizon."""
        if horizon_s <= 0.0 or nominal_cycle_s <= 0.0:
            raise ConfigurationError("horizon and nominal cycle must be positive")
        return StateNormalizers(cycles_max=max(1.0, horizon_s / nominal_cycle_s))

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.queue_max, self.green_max_s, self.cycle_time_max_s, self.cycles_max],
            dtype=np.float64,
        )

    @staticmethod
    def from_array(values: np.ndarray) -> "StateNormalizers":
        q, g, c, n = (float(v) for v in values)
        return StateNormalizers(queue_max=q, green_max_s=g, cycle_time_max_s=c, cycles_max=n)


def baseline_state(sim: SimState) -> np.ndarray:
    """Raw 8-scalar summary: cycle length, per-phase programmed greens, the
    1-based active phase, remaining green of the active phase, and the total
    queue (per-approach maxima summed).  Nothing is normalized."""
    greens = sim.programmed_green_s
    cycle_len = sum(greens) + N_PHASES * sim.plan.yellow_s
    remaining = max(greens[sim.current_phase] - sim.phase_elapsed_s, 0.0)
    total_q = float(sum(sim.approach_queues()))
    return np.array(
        [cycle_len, greens[0], greens[1], greens[2], greens[3],
         sim.current_phase + 1, remaining, total_q],
        dtype=np.float64,
    )


def expanded_state(sim: SimState,
                   norms: StateNormalizers = StateNormalizers()) -> np.ndarray:
    """Normalized 19-component observation.

    Layout: cycle-elapsed time, 4-D one-hot active phase, phase-elapsed green,
    completed-cycle count, per-approach max queues, their change since the
    previous decision point (``sim.decision_queues``, zeros before the first
    action), and the programmed greens.  Queue components clamp into [0, 1]
    and the change components into [-1, 1], so saturated lanes cannot push
    the vector out of its documented range.
    """
    q_max, g_max = norms.queue_max, norms.green_max_s
    q_now = sim.approach_queues()
    phase = [0.0] * N_PHASES
    phase[sim.current_phase] = 1.0
    raw = np.array(
        [sim.cycle_elapsed_s / norms.cycle_time_max_s, *phase,
         sim.phase_elapsed_s / g_max, sim.cycles_completed / norms.cycles_max]
        + [q / q_max for q in q_now]
        + [(q - p) / q_max for q, p in zip(q_now, sim.decision_queues)]
        + [g / g_max for g in sim.programmed_green_s],
        dtype=np.float64,
    )
    return np.minimum(np.maximum(raw, _LOWER), 1.0)


# weight factor rows, out of (1-tu, 1-tv, tu, tv), for corners g00, g10, g01, g11
_WEIGHT_U = np.array((0, 2, 0, 2))
_WEIGHT_V = np.array((1, 1, 3, 3))


def _sample_planes(grids: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Bilinearly sample each grid ``grids[k]`` at ``(uv[0, k], uv[1, k])``.

    The four corners of every grid come from one indexed gather; each sample
    then runs :func:`bilinear_sample`'s per-element arithmetic in its order.
    """
    if np.isnan(uv).any():
        raise ContractViolation("cannot sample a feature plane at NaN")
    n, rows, cols = grids.shape[:3]
    last = np.array(((rows - 1,), (cols - 1,)))
    xy = np.minimum(np.maximum(uv, 0.0), 1.0) * last
    ij = np.minimum(xy.astype(np.intp), last - 1)
    t = xy - ij
    first = np.arange(0, n * rows * cols, rows * cols) + ij[0] * cols + ij[1]
    corners = grids.reshape((-1,) + grids.shape[3:])[
        first + np.array(((0,), (cols,), (1,), (cols + 1,)))]
    factors = np.concatenate((1.0 - t, t))
    weights = factors[_WEIGHT_U] * factors[_WEIGHT_V]
    terms = weights.reshape(weights.shape + (1,) * (grids.ndim - 3)) * corners
    return terms[0] + terms[1] + terms[2] + terms[3]


def bilinear_sample(plane: np.ndarray, u: float, v: float) -> np.ndarray:
    """Bilinearly interpolate a regular grid at clamped coordinates.

    The grid's nodes sit at coordinates k/(R-1) along each of the first two
    axes; trailing axes (the per-node feature vectors kept by the planes)
    interpolate componentwise.  The sample is
    ``(1-tu)(1-tv) g00 + tu (1-tv) g10 + (1-tu) tv g01 + tu tv g11``, each
    weight formed before it scales its corner and the terms summed left to
    right.
    """
    grid = np.asarray(plane, dtype=np.float64)
    if grid.ndim < 2 or grid.shape[0] < 2 or grid.shape[1] < 2:
        raise ConfigurationError("plane must be at least 2x2")
    return _sample_planes(grid[None], np.array(((float(u),), (float(v),))))[0]


# continuous feature groups of the expanded vector: (name, component indices,
# rescale from [-1,1] to [0,1] before sampling)
_KPLANES_GROUPS = (
    ("time", (_IDX_TC, _IDX_TP, _IDX_NCYC), False),
    ("queue", tuple(range(7, 11)), False),
    ("dq", tuple(range(11, 15)), True),
    ("green", tuple(range(15, 19)), False),
)
# every unordered component pair of each group owns one plane, in this order
_GROUP_PAIRS = tuple(tuple(combinations(indices, 2)) for _n, indices, _r in _KPLANES_GROUPS)
_PLANE_UV = np.array([pair for pairs in _GROUP_PAIRS for pair in pairs]).T
_GROUP_STARTS = np.cumsum([0] + [len(pairs) for pairs in _GROUP_PAIRS[:-1]])
_RESCALED = np.array([i for _n, indices, rescale in _KPLANES_GROUPS if rescale
                      for i in indices])


class KPlanesParams:
    """Fixed random feature planes for the factorized 68-D transform.

    Each continuous group of the expanded state owns one R x R grid of
    F-dimensional feature vectors per unordered pair of its components.
    Group sizes (3, 4, 4, 4) give 3 + 6 + 6 + 6 = 21 planes, stacked in
    ``planes`` as one (21, R, R, F) array.  Grids fill from a seeded
    uniform(0.5, 1.5) draw, are frozen after construction, and the same seed
    always reproduces the same grids.
    """

    def __init__(self, seed: int, resolution: int = 8, feature_dim: int = 16) -> None:
        if resolution < 2:
            raise ConfigurationError("grid resolution must be at least 2")
        if feature_dim < 1:
            raise ConfigurationError("feature dimension must be at least 1")
        self.seed = int(seed)
        self.resolution = resolution
        self.feature_dim = feature_dim
        rng = np.random.Generator(np.random.PCG64(self.seed))
        self.planes = rng.uniform(0.5, 1.5,
                                  size=(_PLANE_UV.shape[1], resolution, resolution, feature_dim))
        self.planes.flags.writeable = False

    @property
    def output_dim(self) -> int:
        return len(_KPLANES_GROUPS) * self.feature_dim + N_PHASES


def kplanes_transform(params: KPlanesParams, state: np.ndarray) -> np.ndarray:
    """Expand a 19-component state through the fixed feature planes.

    For every component pair inside a group, the pair's plane is sampled
    bilinearly at the two component values; the samples multiply element-wise,
    left to right, into one feature vector per group.  The four group vectors
    concatenate with the one-hot phase, giving 4*F + 4 features.
    """
    s = np.asarray(state, dtype=np.float64)
    if s.shape != (EXPANDED_DIM,):
        raise ContractViolation(f"expected a {EXPANDED_DIM}-component state")
    coords = s.copy()
    coords[_RESCALED] = (s[_RESCALED] + 1.0) / 2.0
    samples = _sample_planes(params.planes, coords[_PLANE_UV])
    features = np.multiply.reduceat(samples, _GROUP_STARTS, axis=0)
    return np.concatenate((features.ravel(), s[_IDX_PHASE]))


def encode(encoder: Mlp, state: np.ndarray) -> np.ndarray:
    """Deterministic forward pass of a trained encoder on one state vector."""
    s = np.asarray(state, dtype=np.float64)
    if s.ndim != 1 or s.shape[0] != encoder.layer_sizes[0]:
        raise ContractViolation(
            f"encoder expects {encoder.layer_sizes[0]} inputs, got shape {s.shape}"
        )
    return encoder.predict(s)


# -- controller-facing observation wrappers ---------------------------------


class BaselineObservation:
    kind = "baseline"
    dim = 8

    def observe(self, sim: SimState) -> np.ndarray:
        return baseline_state(sim)


class ExpandedObservation:
    kind = "expanded"
    dim = EXPANDED_DIM

    def __init__(self, norms: StateNormalizers = StateNormalizers()) -> None:
        self.norms = norms

    def observe(self, sim: SimState) -> np.ndarray:
        return expanded_state(sim, self.norms)


class LatentObservation:
    """Autoencoder latent of the expanded state."""

    def __init__(self, encoder: Mlp, norms: StateNormalizers = StateNormalizers()) -> None:
        self.encoder = encoder
        self.norms = norms
        self.dim = encoder.layer_sizes[-1]
        self.kind = f"ae{self.dim}"

    def observe(self, sim: SimState) -> np.ndarray:
        return encode(self.encoder, expanded_state(sim, self.norms))


class KPlanesObservation:
    kind = "kplanes"
    dim = KPLANES_DIM

    def __init__(self, params: KPlanesParams,
                 norms: StateNormalizers = StateNormalizers()) -> None:
        if params.output_dim != KPLANES_DIM:
            raise ConfigurationError(
                f"plane parameters produce {params.output_dim} features, expected {KPLANES_DIM}"
            )
        self.params = params
        self.norms = norms

    def observe(self, sim: SimState) -> np.ndarray:
        return kplanes_transform(self.params, expanded_state(sim, self.norms))


REPRESENTATION_KINDS = ("baseline", "expanded", "ae4", "ae8", "ae16", "ae19", "ae32", "kplanes")

DEFAULT_KPLANES_SEED = 1234


def make_observation(kind: str, norms: StateNormalizers = StateNormalizers(),
                     ae_encoder: Mlp | None = None,
                     kplanes_params: KPlanesParams | None = None):
    """Build the observation wrapper for a representation kind."""
    if kind == "baseline":
        return BaselineObservation()
    if kind == "expanded":
        return ExpandedObservation(norms)
    if kind == "kplanes":
        params = kplanes_params or KPlanesParams(DEFAULT_KPLANES_SEED)
        return KPlanesObservation(params, norms)
    if kind.startswith("ae"):
        if ae_encoder is None:
            raise ConfigurationError(
                f"representation {kind!r} needs a pretrained encoder"
            )
        obs = LatentObservation(ae_encoder, norms)
        if obs.kind != kind:
            raise ConfigurationError(
                f"encoder latent size {obs.dim} does not match representation {kind!r}"
            )
        return obs
    raise ConfigurationError(
        f"unknown representation {kind!r}; expected one of {REPRESENTATION_KINDS}"
    )
