"""State representation tests: the raw 8-scalar summary, the normalized
19-component vector, bilinear plane sampling, the 68-D plane transform, and
the encoder/observation wrappers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (force_queue, lane_index, random_planes, reference_expanded_state,
                      reference_kplanes_transform, uniform_profile)
from tsclab.errors import ConfigurationError, ContractViolation
from tsclab.neural import Mlp
from tsclab.sim import (
    ACTION_EXTEND,
    IntersectionLayout,
    N_LANES,
    N_PHASES,
    PhasePlan,
    SimState,
    apply_action,
    at_decision_point,
    step,
)
from tsclab.staterep import (
    CYCLE_TIME_MAX_S,
    DEFAULT_CYCLES_MAX,
    EXPANDED_DIM,
    GREEN_MAX_S,
    KPLANES_DIM,
    KPLANES_FEATURES,
    KPLANES_RESOLUTION,
    KPLANES_SEED,
    QUEUE_MAX,
    LatentObservation,
    REPRESENTATION_KINDS,
    baseline_state,
    expanded_state,
    kplanes_planes,
    kplanes_transform,
    make_observation,
)


def make_sim(seed=0, rates=None):
    flows = uniform_profile(rates if rates is not None else [0.0] * N_LANES)
    return SimState(IntersectionLayout(), PhasePlan(), flows, seed)


def run_to_decision(sim):
    while not at_decision_point(sim):
        step(sim)


# -- raw 8-scalar summary --------------------------------------------------------


def test_baseline_state_fresh():
    state = baseline_state(make_sim())
    np.testing.assert_array_equal(state, [100.0, 20.0, 20.0, 20.0, 20.0, 1.0, 20.0, 0.0])


def test_baseline_state_after_extension():
    sim = make_sim()
    run_to_decision(sim)
    apply_action(sim, ACTION_EXTEND)
    state = baseline_state(sim)
    np.testing.assert_array_equal(state, [105.0, 25.0, 20.0, 20.0, 20.0, 1.0, 15.0, 0.0])


def test_baseline_state_counts_queue():
    sim = make_sim()
    force_queue(sim, lane_index("N0"), 4)
    force_queue(sim, lane_index("N1"), 4)
    force_queue(sim, lane_index("W0"), 3)
    state = baseline_state(sim)
    # per-approach maxima: max(4, 4) + 0 + 0 + max(3, 0)
    assert state[7] == 7.0


# -- normalized 19-component vector ----------------------------------------------


def test_expanded_state_fresh():
    vec = expanded_state(make_sim())
    assert vec.shape == (EXPANDED_DIM,)
    expected = np.zeros(19)
    expected[1] = 1.0
    expected[15:19] = 0.5
    np.testing.assert_allclose(vec, expected, atol=1e-15)


def test_expanded_state_queue_and_change():
    sim = make_sim()
    force_queue(sim, lane_index("N0"), 10)
    sim.decision_queues = (15, 0, 0, 0)
    vec = expanded_state(sim)
    assert vec[7] == pytest.approx(0.4, abs=1e-15)
    assert vec[11] == pytest.approx(-0.2, abs=1e-15)
    assert vec[8] == vec[9] == vec[10] == 0.0
    np.testing.assert_array_equal(vec[12:15], 0.0)


def test_expanded_state_clamps_saturated_queues():
    sim = make_sim()
    force_queue(sim, lane_index("E0"), 60)
    vec = expanded_state(sim)
    assert vec[8] == 1.0
    assert vec[12] == 1.0
    drained = make_sim()
    drained.decision_queues = (0, 60, 0, 0)
    assert expanded_state(drained)[12] == -1.0


def test_expanded_state_in_documented_ranges_under_load():
    rates = [800.0] * N_LANES
    sim = make_sim(seed=11, rates=rates)
    rng = np.random.Generator(np.random.PCG64(4))
    for _ in range(10_000):
        if at_decision_point(sim):
            apply_action(sim, int(rng.integers(0, 3)))
        vec = expanded_state(sim)
        assert 0.0 <= vec[0] <= 1.0
        one_hot = vec[1:5]
        assert sorted(one_hot) == [0.0, 0.0, 0.0, 1.0]
        assert 0.0 <= vec[5] <= 1.0
        assert 0.0 <= vec[6] <= 1.0
        assert (vec[7:11] >= 0.0).all() and (vec[7:11] <= 1.0).all()
        assert (vec[11:15] >= -1.0).all() and (vec[11:15] <= 1.0).all()
        assert (vec[15:19] >= 0.0).all() and (vec[15:19] <= 1.0).all()
        step(sim)
    # 100 s nominal cycles over 10k s: the cycle-count component must have
    # hit its clamp ceiling by the end
    assert expanded_state(sim)[6] == 1.0


@st.composite
def _expanded_cases(draw):
    """A simulation set to any phase and timers, with queues past
    ``QUEUE_MAX``, queue drops past -``QUEUE_MAX``, greens past
    ``GREEN_MAX_S``, and a completed-cycle divisor."""
    sim = make_sim()
    sim.clock = draw(st.integers(0, 20_000))
    sim.cycle_start_tick = draw(st.integers(1, sim.clock + 1))
    sim.current_phase = draw(st.integers(0, N_PHASES - 1))
    sim.phase_elapsed_s = draw(st.integers(0, 120))
    sim.completed_cycles = [None] * draw(st.integers(0, 400))
    sim.queued = draw(st.lists(st.integers(0, 4 * int(QUEUE_MAX)),
                               min_size=N_LANES, max_size=N_LANES))
    sim.decision_queues = tuple(draw(st.lists(st.integers(0, 6 * int(QUEUE_MAX)),
                                              min_size=4, max_size=4)))
    sim.programmed_green_s = draw(st.lists(
        st.floats(1.0, 3 * GREEN_MAX_S) | st.integers(1, 3 * int(GREEN_MAX_S)).map(float),
        min_size=N_PHASES, max_size=N_PHASES))
    cycles_max = draw(st.sampled_from((DEFAULT_CYCLES_MAX, 1.0, 3.0, 1000.0))
                      | st.floats(1e-3, 1e6))
    return sim, cycles_max


@given(case=_expanded_cases())
@settings(max_examples=300, deadline=None)
def test_expanded_state_bitwise_equals_reference(case):
    sim, cycles_max = case
    ours = expanded_state(sim, cycles_max)
    assert ours.dtype == np.float64 and ours.shape == (EXPANDED_DIM,)
    assert ours.tobytes() == reference_expanded_state(sim, cycles_max).tobytes()


# -- bilinear sampling -----------------------------------------------------------


def _sample_first_plane(plane, u, v):
    """Sample ``plane`` through :func:`kplanes_transform`: it becomes the
    first plane (components 0 and 5) and every other plane holds ones, so at
    the node and half-node coordinates used here the time group's features
    are exactly that one sample."""
    grid = np.asarray(plane, dtype=np.float64)
    grid = grid.reshape(grid.shape[:2] + (-1,))
    planes = np.ones((21,) + grid.shape)
    planes[0] = grid
    state = np.zeros(EXPANDED_DIM)
    state[0], state[5] = u, v
    features = kplanes_transform(planes, state)[:grid.shape[2]]
    return features if np.ndim(plane) > 2 else features[0]


def test_bilinear_corners():
    plane = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert _sample_first_plane(plane, 0, 0) == 1.0
    assert _sample_first_plane(plane, 0, 1) == 2.0
    assert _sample_first_plane(plane, 1, 0) == 3.0
    assert _sample_first_plane(plane, 1, 1) == 4.0


def test_bilinear_center_and_edges():
    plane = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert _sample_first_plane(plane, 0.5, 0.5) == pytest.approx(1.5, abs=1e-15)
    assert _sample_first_plane(plane, 0.5, 0.0) == pytest.approx(1.0, abs=1e-15)
    three = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    # u=0.25 lands halfway between the first two rows of a 3-node axis
    assert _sample_first_plane(three, 0.25, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_bilinear_clamps_out_of_range_coordinates():
    plane = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert _sample_first_plane(plane, -1.0, 0.0) == _sample_first_plane(plane, 0.0, 0.0)
    assert _sample_first_plane(plane, 2.0, 1.5) == _sample_first_plane(plane, 1.0, 1.0)


def test_bilinear_interpolates_feature_vectors_componentwise():
    plane = np.zeros((2, 2, 2))
    plane[0, 0] = [1.0, 10.0]
    plane[1, 0] = [3.0, 30.0]
    plane[0, 1] = [5.0, 50.0]
    plane[1, 1] = [7.0, 70.0]
    np.testing.assert_allclose(_sample_first_plane(plane, 0.5, 0.5), [4.0, 40.0],
                               atol=1e-15)


# -- factorized plane transform --------------------------------------------------


def test_kplanes_params_shape_and_count():
    planes = kplanes_planes(3)
    assert planes.shape == (21, KPLANES_RESOLUTION, KPLANES_RESOLUTION, KPLANES_FEATURES)
    assert (KPLANES_RESOLUTION, KPLANES_FEATURES) == (8, 16)
    assert 4 * KPLANES_FEATURES + 4 == KPLANES_DIM == 68
    assert planes.min() >= 0.5 and planes.max() <= 1.5


def test_kplanes_params_frozen_and_reproducible():
    planes = kplanes_planes(9)
    with pytest.raises(ValueError):
        planes[0][0, 0, 0] = 2.0
    np.testing.assert_array_equal(planes, kplanes_planes(9))
    assert not np.array_equal(planes, kplanes_planes(10))
    # the observation's planes are the representation's, of KPLANES_SEED
    np.testing.assert_array_equal(make_observation("kplanes").planes,
                                  kplanes_planes(KPLANES_SEED))
    with pytest.raises(ValueError):  # PCG64's own check
        kplanes_planes(-1)


def test_kplanes_transform_length_and_phase_passthrough():
    planes = kplanes_planes(3)
    vec = expanded_state(make_sim())
    out = kplanes_transform(planes, vec)
    assert out.shape == (68,)
    np.testing.assert_array_equal(out[64:], vec[1:5])


def test_kplanes_transform_with_unit_planes():
    vec = expanded_state(make_sim())
    out = kplanes_transform(np.ones((21, 8, 8, 16)), vec)
    # every sample is 1 so each group collapses to ones; the one-hot follows
    np.testing.assert_array_equal(out, np.concatenate([np.ones(64), vec[1:5]]))


def test_kplanes_transform_group_products():
    consts = np.linspace(1.01, 1.21, 21)
    planes = consts[:, None, None, None] * np.ones((21, 2, 2, 1))
    vec = expanded_state(make_sim())
    out = kplanes_transform(planes, vec)
    assert out.shape == (4 * 1 + 4,)
    # groups own 3, 6, 6, 6 consecutive planes; constant grids make the
    # group feature the plain product of its constants
    assert out[0] == pytest.approx(np.prod(consts[0:3]), abs=1e-12)
    assert out[1] == pytest.approx(np.prod(consts[3:9]), abs=1e-12)
    assert out[2] == pytest.approx(np.prod(consts[9:15]), abs=1e-12)
    assert out[3] == pytest.approx(np.prod(consts[15:21]), abs=1e-12)


def test_kplanes_transform_rejects_wrong_shape():
    with pytest.raises(ContractViolation):
        kplanes_transform(kplanes_planes(0), np.zeros(8))


def test_kplanes_transform_rejects_nan():
    vec = expanded_state(make_sim())
    vec[8] = np.nan
    with pytest.raises(ContractViolation):
        kplanes_transform(kplanes_planes(0), vec)
    with pytest.raises(ContractViolation):
        _sample_first_plane(np.ones((2, 2)), 0.5, float("nan"))
    # the one-hot phase (components 1-4) is copied, not sampled: a NaN there
    # passes through
    vec = expanded_state(make_sim())
    vec[2] = np.nan
    out = kplanes_transform(kplanes_planes(0), vec)
    assert np.isnan(out[65]) and np.isfinite(np.delete(out, 65)).all()


def test_kplanes_transform_pure():
    planes = random_planes(6, 8, 16)
    before = planes.copy()
    vec = expanded_state(make_sim())
    vec[7:11] = [0.3, 0.8, 0.1, 1.0]
    vec[11:15] = [-0.5, 0.2, 0.9, -1.0]
    first = kplanes_transform(planes, vec)
    second = kplanes_transform(planes, vec)
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(planes, before)


@pytest.mark.parametrize("resolution, feature_dim", [(8, 16), (2, 1), (5, 3)])
def test_kplanes_transform_bitwise_equals_per_plane_sampling(resolution, feature_dim):
    planes = random_planes(resolution, resolution, feature_dim)
    rng = np.random.Generator(np.random.PCG64(resolution))
    for trial in range(300):
        vec = rng.uniform(-0.2, 1.2, EXPANDED_DIM)
        if trial % 3 == 0:  # components on grid nodes, including both edges
            vec = np.round(vec * (resolution - 1)) / (resolution - 1)
        vec[1:5] = np.eye(4)[trial % 4]
        assert (kplanes_transform(planes, vec).tobytes()
                == reference_kplanes_transform(planes, vec).tobytes())


def _transform_or_error(transform, planes, state):
    try:
        return transform(planes, state).tobytes()
    except (ContractViolation, FloatingPointError) as exc:
        return type(exc)


_SPECIAL_COMPONENTS = (0.0, -0.0, 1.0, -1.0, 0.5, 1.5, -1.5, 2.0, 5e-324, 1e300, -1e300,
                       np.inf, -np.inf)


@st.composite
def _kplanes_cases(draw):
    """Plane shapes, an optional seed of reassigned planes, and a state whose
    components sit on grid nodes (as sampled, and as the "dq" group's
    [-1, 1] values that rescale onto them), at edge or out-of-range values,
    or anywhere in [-2, 2], with a NaN in at most one component."""
    resolution = draw(st.integers(2, 9))
    feature_dim = draw(st.integers(1, 17))
    last = resolution - 1
    component = st.one_of(st.integers(0, last).map(lambda i: i / last),
                          st.integers(0, last).map(lambda i: 2.0 * i / last - 1.0),
                          st.sampled_from(_SPECIAL_COMPONENTS),
                          st.floats(min_value=-2.0, max_value=2.0))
    state = np.array(draw(st.lists(component, min_size=EXPANDED_DIM, max_size=EXPANDED_DIM)))
    nan_at = draw(st.none() | st.integers(0, EXPANDED_DIM - 1))
    if nan_at is not None:
        state[nan_at] = np.nan
    planes_seed = draw(st.none() | st.integers(0, 2**32 - 1))
    return resolution, feature_dim, state, planes_seed


@given(case=_kplanes_cases())
@settings(max_examples=400, deadline=None)
def test_kplanes_transform_bitwise_equals_reference(case):
    # the transform before its one-gather rewrite (conftest); other planes,
    # rounded so that exact and signed zeros occur, follow planes of the same
    # shape the transform has already read
    resolution, feature_dim, state, planes_seed = case
    planes = random_planes(resolution, resolution, feature_dim)
    _transform_or_error(kplanes_transform, planes, state)
    if planes_seed is not None:
        rng = np.random.Generator(np.random.PCG64(planes_seed))
        planes = np.round(rng.uniform(-2.0, 2.0, planes.shape), 1)
    ours = _transform_or_error(kplanes_transform, planes, state)
    assert ours == _transform_or_error(reference_kplanes_transform, planes, state)
    sampled = np.delete(state, range(1, 5))
    assert (ours == ContractViolation) == bool(np.isnan(sampled).any())
    with np.errstate(all="raise"):
        ours = _transform_or_error(kplanes_transform, planes, state)
        theirs = _transform_or_error(reference_kplanes_transform, planes, state)
    if ours == FloatingPointError:
        assert theirs == FloatingPointError


# -- encoder wrapper -------------------------------------------------------------


def test_encode_latent_dimension_and_determinism():
    enc = Mlp([19, 32, 16], "relu", seed=2)
    sim = make_sim()
    latent = LatentObservation(enc).observe(sim)
    assert latent.shape == (16,)
    np.testing.assert_array_equal(latent, LatentObservation(enc).observe(sim))
    assert latent.tobytes() == enc.predict(expanded_state(sim)).tobytes()


def test_encode_rejects_dimension_mismatch():
    # checked once, when the observation is built, not at every decision
    for inputs in (8, 20):
        with pytest.raises(ConfigurationError):
            LatentObservation(Mlp([inputs, 32, 8], "relu", seed=2))


# -- observation factory ---------------------------------------------------------


def test_make_observation_dims():
    sim = make_sim()
    for kind, dim in (("baseline", 8), ("expanded", 19), ("kplanes", 68), ("dqn40", 40)):
        obs = make_observation(kind)
        assert obs.kind == kind
        assert obs.dim == dim
        assert obs.observe(sim).shape == (dim,)


def test_make_observation_latent():
    # make_observation builds no latent: its kind comes from the encoder
    with pytest.raises(ConfigurationError, match="unknown representation 'ae8'"):
        make_observation("ae8")
    obs = LatentObservation(Mlp([19, 32, 8], "relu", seed=1))
    assert obs.kind == "ae8"
    assert obs.dim == 8
    assert obs.observe(make_sim()).shape == (8,)


def test_make_observation_errors():
    with pytest.raises(ConfigurationError):
        make_observation("onehot")
    assert REPRESENTATION_KINDS == ("baseline", "expanded", "kplanes")


# -- normalizers -----------------------------------------------------------------


def test_normalizer_defaults_and_horizon_scaling():
    assert (QUEUE_MAX, GREEN_MAX_S, CYCLE_TIME_MAX_S) == (25.0, 40.0, 180.0)
    assert DEFAULT_CYCLES_MAX == 72.0
    sim = make_sim()
    sim.completed_cycles.extend([None] * 9)
    assert expanded_state(sim)[6] == 9.0 / 72.0
    assert expanded_state(sim, 36.0)[6] == 9.0 / 36.0
    assert make_observation("expanded", 36.0).observe(sim)[6] == 9.0 / 36.0


def test_normalizer_validation_and_round_trip():
    # cycles_max is the one divisor an observation chooses; the kinds built
    # on the expanded state keep it, the others keep the default.  A bundle
    # checks the value its file brings (tests/test_agents.py, LYING_HEADERS)
    for kind in ("expanded", "kplanes"):
        assert make_observation(kind, 10.0).cycles_max == 10.0
    assert LatentObservation(Mlp([19, 32, 8], "relu", seed=1), 10.0).cycles_max == 10.0
    for kind in ("baseline", "dqn40"):
        assert make_observation(kind, 10.0).cycles_max == DEFAULT_CYCLES_MAX
