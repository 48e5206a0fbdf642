"""State representation tests: the raw 8-scalar summary, the normalized
19-component vector, bilinear plane sampling, the 68-D plane transform, and
the encoder/observation wrappers."""

import numpy as np
import pytest

from conftest import force_queue, lane_index
from tsclab.errors import ConfigurationError, ContractViolation
from tsclab.neural import Mlp
from tsclab.sim import (
    ACTION_EXTEND,
    FlowProfile,
    IntersectionLayout,
    N_LANES,
    PhasePlan,
    apply_action,
    at_decision_point,
    new_simulation,
    step,
)
from tsclab.staterep import (
    EXPANDED_DIM,
    KPLANES_DIM,
    KPlanesObservation,
    KPlanesParams,
    REPRESENTATION_KINDS,
    StateNormalizers,
    baseline_state,
    bilinear_sample,
    encode,
    expanded_state,
    kplanes_transform,
    make_observation,
)


def make_sim(seed=0, rates=None):
    flows = FlowProfile.uniform(rates if rates is not None else [0.0] * N_LANES)
    return new_simulation(IntersectionLayout(), PhasePlan(), flows, seed)


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


# -- bilinear sampling -----------------------------------------------------------


def test_bilinear_corners():
    plane = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert bilinear_sample(plane, 0, 0) == 1.0
    assert bilinear_sample(plane, 0, 1) == 2.0
    assert bilinear_sample(plane, 1, 0) == 3.0
    assert bilinear_sample(plane, 1, 1) == 4.0


def test_bilinear_center_and_edges():
    plane = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert bilinear_sample(plane, 0.5, 0.5) == pytest.approx(1.5, abs=1e-15)
    assert bilinear_sample(plane, 0.5, 0.0) == pytest.approx(1.0, abs=1e-15)
    three = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    # u=0.25 lands halfway between the first two rows of a 3-node axis
    assert bilinear_sample(three, 0.25, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_bilinear_clamps_out_of_range_coordinates():
    plane = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert bilinear_sample(plane, -1.0, 0.0) == bilinear_sample(plane, 0.0, 0.0)
    assert bilinear_sample(plane, 2.0, 1.5) == bilinear_sample(plane, 1.0, 1.0)


def test_bilinear_interpolates_feature_vectors_componentwise():
    plane = np.zeros((2, 2, 2))
    plane[0, 0] = [1.0, 10.0]
    plane[1, 0] = [3.0, 30.0]
    plane[0, 1] = [5.0, 50.0]
    plane[1, 1] = [7.0, 70.0]
    np.testing.assert_allclose(bilinear_sample(plane, 0.5, 0.5), [4.0, 40.0],
                               atol=1e-15)


def test_bilinear_rejects_degenerate_grid():
    with pytest.raises(ConfigurationError):
        bilinear_sample(np.ones((1, 2)), 0.5, 0.5)


# -- factorized plane transform --------------------------------------------------


def test_kplanes_params_shape_and_count():
    params = KPlanesParams(seed=3)
    assert len(params.planes) == 21
    assert params.output_dim == KPLANES_DIM == 68
    for grid in params.planes:
        assert grid.shape == (8, 8, 16)
        assert grid.min() >= 0.5 and grid.max() <= 1.5


def test_kplanes_params_frozen_and_reproducible():
    params = KPlanesParams(seed=9)
    with pytest.raises(ValueError):
        params.planes[0][0, 0, 0] = 2.0
    again = KPlanesParams(seed=9)
    for a, b in zip(params.planes, again.planes):
        np.testing.assert_array_equal(a, b)
    other = KPlanesParams(seed=10)
    assert any(not np.array_equal(a, b)
               for a, b in zip(params.planes, other.planes))


def test_kplanes_params_validation():
    with pytest.raises(ConfigurationError):
        KPlanesParams(seed=0, resolution=1)
    with pytest.raises(ConfigurationError):
        KPlanesParams(seed=0, feature_dim=0)


def test_kplanes_transform_length_and_phase_passthrough():
    params = KPlanesParams(seed=3)
    vec = expanded_state(make_sim())
    out = kplanes_transform(params, vec)
    assert out.shape == (68,)
    np.testing.assert_array_equal(out[64:], vec[1:5])


def test_kplanes_transform_with_unit_planes():
    params = KPlanesParams(seed=0)
    params.planes = np.ones((21, 8, 8, 16))
    vec = expanded_state(make_sim())
    out = kplanes_transform(params, vec)
    # every sample is 1 so each group collapses to ones; the one-hot follows
    np.testing.assert_array_equal(out, np.concatenate([np.ones(64), vec[1:5]]))


def test_kplanes_transform_group_products():
    params = KPlanesParams(seed=0, resolution=2, feature_dim=1)
    consts = np.linspace(1.01, 1.21, 21)
    params.planes = consts[:, None, None, None] * np.ones((21, 2, 2, 1))
    vec = expanded_state(make_sim())
    out = kplanes_transform(params, vec)
    assert out.shape == (4 * 1 + 4,)
    # groups own 3, 6, 6, 6 consecutive planes; constant grids make the
    # group feature the plain product of its constants
    assert out[0] == pytest.approx(np.prod(consts[0:3]), abs=1e-12)
    assert out[1] == pytest.approx(np.prod(consts[3:9]), abs=1e-12)
    assert out[2] == pytest.approx(np.prod(consts[9:15]), abs=1e-12)
    assert out[3] == pytest.approx(np.prod(consts[15:21]), abs=1e-12)


def test_kplanes_transform_rejects_wrong_shape():
    params = KPlanesParams(seed=0)
    with pytest.raises(ContractViolation):
        kplanes_transform(params, np.zeros(8))


def test_kplanes_transform_rejects_nan():
    vec = expanded_state(make_sim())
    vec[8] = np.nan
    with pytest.raises(ContractViolation):
        kplanes_transform(KPlanesParams(seed=0), vec)
    with pytest.raises(ContractViolation):
        bilinear_sample(np.ones((2, 2)), 0.5, float("nan"))


def test_kplanes_transform_pure():
    params = KPlanesParams(seed=6)
    before = [grid.copy() for grid in params.planes]
    vec = expanded_state(make_sim())
    vec[7:11] = [0.3, 0.8, 0.1, 1.0]
    vec[11:15] = [-0.5, 0.2, 0.9, -1.0]
    first = kplanes_transform(params, vec)
    second = kplanes_transform(params, vec)
    np.testing.assert_array_equal(first, second)
    for grid, saved in zip(params.planes, before):
        np.testing.assert_array_equal(grid, saved)


def _per_plane_kplanes(params, state):
    """The transform one plane at a time, in plain Python scalars."""
    planes = list(params.planes)
    groups = ([0, 5, 6], [7, 8, 9, 10], [11, 12, 13, 14], [15, 16, 17, 18])
    pieces = []
    for g, indices in enumerate(groups):
        vals = [float(state[i]) for i in indices]
        if g == 2:
            vals = [(x + 1.0) / 2.0 for x in vals]
        features = np.ones(params.feature_dim)
        for a in range(len(vals)):
            for b in range(a + 1, len(vals)):
                grid = planes.pop(0)
                x = min(max(vals[a], 0.0), 1.0) * (grid.shape[0] - 1)
                y = min(max(vals[b], 0.0), 1.0) * (grid.shape[1] - 1)
                i0 = min(int(x), grid.shape[0] - 2)
                j0 = min(int(y), grid.shape[1] - 2)
                tu, tv = x - i0, y - j0
                features *= ((1.0 - tu) * (1.0 - tv) * grid[i0, j0]
                             + tu * (1.0 - tv) * grid[i0 + 1, j0]
                             + (1.0 - tu) * tv * grid[i0, j0 + 1]
                             + tu * tv * grid[i0 + 1, j0 + 1])
        pieces.append(features)
    return np.concatenate(pieces + [state[1:5]])


@pytest.mark.parametrize("resolution, feature_dim", [(8, 16), (2, 1), (5, 3)])
def test_kplanes_transform_bitwise_equals_per_plane_sampling(resolution, feature_dim):
    params = KPlanesParams(seed=resolution, resolution=resolution, feature_dim=feature_dim)
    rng = np.random.Generator(np.random.PCG64(resolution))
    for trial in range(300):
        vec = rng.uniform(-0.2, 1.2, EXPANDED_DIM)
        if trial % 3 == 0:  # components on grid nodes, including both edges
            vec = np.round(vec * (resolution - 1)) / (resolution - 1)
        vec[1:5] = np.eye(4)[trial % 4]
        assert (kplanes_transform(params, vec).tobytes()
                == _per_plane_kplanes(params, vec).tobytes())


# -- encoder wrapper -------------------------------------------------------------


def test_encode_latent_dimension_and_determinism():
    enc = Mlp([19, 32, 16], "relu", seed=2)
    vec = expanded_state(make_sim())
    latent = encode(enc, vec)
    assert latent.shape == (16,)
    np.testing.assert_array_equal(latent, encode(enc, vec))


def test_encode_rejects_dimension_mismatch():
    enc = Mlp([19, 32, 8], "relu", seed=2)
    with pytest.raises(ContractViolation):
        encode(enc, np.zeros(8))


# -- observation factory ---------------------------------------------------------


def test_make_observation_dims():
    sim = make_sim()
    for kind, dim in (("baseline", 8), ("expanded", 19), ("kplanes", 68)):
        obs = make_observation(kind)
        assert obs.kind == kind
        assert obs.dim == dim
        assert obs.observe(sim).shape == (dim,)


def test_make_observation_latent():
    obs = make_observation("ae8", ae_encoder=Mlp([19, 32, 8], "relu", seed=1))
    assert obs.kind == "ae8"
    assert obs.dim == 8
    assert obs.observe(make_sim()).shape == (8,)


def test_make_observation_errors():
    with pytest.raises(ConfigurationError):
        make_observation("onehot")
    with pytest.raises(ConfigurationError):
        make_observation("ae8")
    with pytest.raises(ConfigurationError):
        make_observation("ae4", ae_encoder=Mlp([19, 32, 8], "relu", seed=1))
    assert "baseline" in REPRESENTATION_KINDS and "kplanes" in REPRESENTATION_KINDS


def test_kplanes_observation_rejects_wrong_output_dim():
    with pytest.raises(ConfigurationError):
        KPlanesObservation(KPlanesParams(seed=0, feature_dim=8))


# -- normalizers -----------------------------------------------------------------


def test_normalizer_defaults_and_horizon_scaling():
    norms = StateNormalizers()
    assert (norms.queue_max, norms.green_max_s) == (25.0, 40.0)
    assert (norms.cycle_time_max_s, norms.cycles_max) == (180.0, 72.0)
    assert StateNormalizers.for_horizon(7200.0).cycles_max == 72.0
    assert StateNormalizers.for_horizon(50.0).cycles_max == 1.0
    assert StateNormalizers.for_horizon(3600.0, nominal_cycle_s=60.0).cycles_max == 60.0


def test_normalizer_validation_and_round_trip():
    with pytest.raises(ConfigurationError):
        StateNormalizers(queue_max=0.0)
    with pytest.raises(ConfigurationError):
        StateNormalizers.for_horizon(0.0)
    with pytest.raises(ConfigurationError):
        StateNormalizers.for_horizon(100.0, nominal_cycle_s=-1.0)
    norms = StateNormalizers(queue_max=30.0, cycles_max=10.0)
    again = StateNormalizers.from_array(norms.as_array())
    assert again == norms
