"""Network engine tests: forward/backward correctness against hand math and
finite differences, softmax behavior, and the optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsclab.errors import ContractViolation
from tsclab.neural import Adam, Mlp, adam_step, log_softmax, softmax, softmax_sample


def zero_net(sizes, activation="tanh"):
    net = Mlp(sizes, activation, seed=0)
    for w in net.weights:
        w[...] = 0.0
    return net


# -- forward -------------------------------------------------------------------


def test_forward_zero_weights_returns_bias():
    net = zero_net([4, 3])
    net.biases[0][...] = [1.0, -2.0, 0.5]
    out = net.predict(np.zeros(4))
    np.testing.assert_array_equal(out, [1.0, -2.0, 0.5])
    out = net.predict(np.ones(4) * 7)
    np.testing.assert_array_equal(out, [1.0, -2.0, 0.5])


def test_forward_matches_hand_computation():
    net = zero_net([2, 2, 1])
    net.weights[0][...] = [[0.5, -0.25], [1.0, 2.0]]
    net.biases[0][...] = [0.1, -0.2]
    net.weights[1][...] = [[2.0, -1.0]]
    net.biases[1][...] = [0.3]
    x = np.array([0.4, -0.6])
    h1 = math.tanh(0.5 * 0.4 + (-0.25) * (-0.6) + 0.1)
    h2 = math.tanh(1.0 * 0.4 + 2.0 * (-0.6) - 0.2)
    expected = 2.0 * h1 - 1.0 * h2 + 0.3
    assert net.predict(x)[0] == pytest.approx(expected, abs=1e-12)


def test_forward_batched_matches_single():
    net = Mlp([5, 8, 3], "relu", seed=3)
    xs = np.random.Generator(np.random.PCG64(1)).normal(size=(6, 5))
    batch = net.predict(xs)
    for i in range(6):
        np.testing.assert_allclose(batch[i], net.predict(xs[i]), atol=1e-14)


def test_forward_rejects_bad_input_shape():
    net = Mlp([4, 2], seed=0)
    with pytest.raises(ValueError):
        net.predict(np.zeros(3))


def test_mlp_constructor_validation():
    with pytest.raises(ValueError):
        Mlp([4], seed=0)
    with pytest.raises(ValueError):
        Mlp([4, 0], seed=0)
    with pytest.raises(ValueError):
        Mlp([4, 2], hidden_activation="sigmoid", seed=0)


# -- backward ------------------------------------------------------------------


def test_backward_linear_layer_outer_product():
    net = Mlp([3, 2], seed=5)
    x = np.array([1.0, -2.0, 0.5])
    net.forward(x)
    upstream = np.array([0.7, -0.3])
    grads, dx = net.backward(upstream)
    dW, db = grads[0]
    np.testing.assert_allclose(dW, np.outer(upstream, x), atol=1e-15)
    np.testing.assert_allclose(db, upstream, atol=1e-15)
    np.testing.assert_allclose(dx, upstream @ net.weights[0], atol=1e-15)


def test_backward_before_forward_rejected():
    net = Mlp([3, 2], seed=0)
    with pytest.raises(ContractViolation):
        net.backward(np.zeros(2))


def test_backward_zero_upstream_gives_zero_gradients():
    net = Mlp([4, 6, 2], seed=1)
    net.forward(np.ones(4))
    grads, dx = net.backward(np.zeros(2))
    for dW, db in grads:
        assert not dW.any()
        assert not db.any()
    assert not dx.any()


def test_backward_shape_mismatch_rejected():
    net = Mlp([4, 6, 2], seed=1)
    net.forward(np.ones(4))
    with pytest.raises(ValueError):
        net.backward(np.zeros(3))


def finite_difference_check(net, x, upstream, h=1e-5, kink_margin=1e-3):
    """Max relative error between analytic and central-difference gradients.

    For relu nets the input is nudged until no pre-activation sits within
    ``kink_margin`` of zero, keeping the difference quotient on one branch.
    """
    rng = np.random.Generator(np.random.PCG64(99))
    if net.hidden_activation == "relu":
        for _ in range(200):
            a = np.asarray(x, dtype=np.float64)
            clear = True
            for idx, (w, b) in enumerate(zip(net.weights, net.biases)):
                z = a @ w.T + b
                if idx < len(net.weights) - 1:
                    if np.min(np.abs(z)) < kink_margin:
                        clear = False
                        break
                    a = np.maximum(z, 0.0)
            if clear:
                break
            x = x + rng.normal(scale=0.05, size=x.shape)
    net.forward(x)
    grads, _ = net.backward(upstream)
    analytic = np.concatenate([g.ravel() for pair in grads for g in pair])
    flat = net.get_flat()
    numeric = np.empty_like(analytic)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += h
        net.set_flat(bumped)
        up = float(np.sum(net.predict(x) * upstream))
        bumped[i] -= 2 * h
        net.set_flat(bumped)
        down = float(np.sum(net.predict(x) * upstream))
        numeric[i] = (up - down) / (2 * h)
    net.set_flat(flat)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_gradients_match_finite_differences_relu():
    net = Mlp([19, 32, 16], "relu", seed=7)
    rng = np.random.Generator(np.random.PCG64(21))
    x = rng.normal(size=19)
    upstream = rng.normal(size=16)
    assert finite_difference_check(net, x, upstream) < 1e-4


def test_gradients_match_finite_differences_tanh_batch():
    net = Mlp([6, 10, 3], "tanh", seed=13)
    rng = np.random.Generator(np.random.PCG64(22))
    x = rng.normal(size=(4, 6))
    upstream = rng.normal(size=(4, 3))
    assert finite_difference_check(net, x, upstream) < 1e-4


# -- softmax -------------------------------------------------------------------


def test_softmax_uniform_on_equal_logits():
    np.testing.assert_allclose(softmax(np.zeros(3)), [1 / 3] * 3, atol=1e-15)


def test_softmax_stable_for_huge_logits():
    probs = softmax(np.array([1000.0, 0.0, 0.0]))
    assert np.isfinite(probs).all()
    assert probs[0] == pytest.approx(1.0)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_softmax_sums_to_one_and_positive(logits):
    probs = softmax(np.array(logits))
    assert abs(probs.sum() - 1.0) < 1e-12
    assert (probs > 0.0).all()
    np.testing.assert_allclose(np.log(probs), log_softmax(np.array(logits)),
                               atol=1e-12)


def test_softmax_sample_rejects_nan():
    rng = np.random.Generator(np.random.PCG64(0))
    with pytest.raises(ValueError):
        softmax_sample(np.array([float("nan"), 0.0, 0.0]), rng)
    with pytest.raises(ValueError):
        softmax_sample(np.zeros((2, 3)), rng)


def test_softmax_sample_frequencies_match_probabilities():
    logits = np.array([0.5, -0.5, 1.0])
    probs = softmax(logits)
    rng = np.random.Generator(np.random.PCG64(77))
    counts = np.zeros(3)
    n = 100_000
    for _ in range(n):
        action, log_prob, returned = softmax_sample(logits, rng)
        counts[action] += 1
    np.testing.assert_allclose(returned, probs, atol=1e-12)
    assert log_prob == pytest.approx(float(np.log(probs[action])), abs=1e-12)
    np.testing.assert_allclose(counts / n, probs, atol=0.01)


def test_softmax_sample_draws_as_generator_choice():
    # policy playback draws with softmax_sample where it once used
    # Generator.choice(p=softmax(logits)); both must pick the same action and
    # consume the stream alike, or saved evaluation results would change
    logit_rng = np.random.Generator(np.random.PCG64(3))
    ours = np.random.Generator(np.random.PCG64(11))
    theirs = np.random.Generator(np.random.PCG64(11))
    for trial in range(20_000):
        scale = (0.01, 0.3, 3.0, 30.0)[trial % 4]
        logits = scale * logit_rng.standard_normal(3)
        expected = int(theirs.choice(3, p=softmax(logits)))
        assert softmax_sample(logits, ours)[0] == expected
    assert ours.bit_generator.state == theirs.bit_generator.state


# -- optimizer -----------------------------------------------------------------


def test_adam_zero_gradient_leaves_params():
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    moments = ([np.zeros(2), np.zeros((1, 1))], [np.zeros(2), np.zeros((1, 1))])
    adam_step(params, [np.zeros(2), np.zeros((1, 1))], moments, lr=0.1, t=1)
    np.testing.assert_array_equal(params[0], [1.0, -2.0])
    np.testing.assert_array_equal(params[1], [[3.0]])


def test_adam_first_step_is_lr_times_sign():
    params = [np.array([1.0, 1.0, 1.0])]
    grads = [np.array([0.5, -3.0, 1e-5])]
    moments = ([np.zeros(3)], [np.zeros(3)])
    adam_step(params, grads, moments, lr=0.01, t=1)
    # bias-corrected ratio m_hat/sqrt(v_hat) = sign(g) up to eps rounding
    np.testing.assert_allclose(params[0], [1.0 - 0.01, 1.0 + 0.01, 1.0 - 0.01],
                               atol=1e-4)


def test_adam_deterministic():
    def run():
        params = [np.array([0.3, -0.7])]
        opt = Adam(params, lr=0.05)
        for i in range(10):
            opt.step([np.array([0.1 * i, -0.2])])
        return params[0].copy()

    np.testing.assert_array_equal(run(), run())


def test_adam_validation():
    with pytest.raises(ValueError):
        adam_step([np.zeros(2)], [np.zeros(2)],
                  ([np.zeros(2)], [np.zeros(2)]), lr=0.1, t=0)
    opt = Adam([np.zeros(2)], lr=0.1)
    with pytest.raises(ValueError):
        opt.step([np.zeros(2), np.zeros(2)])


def test_adam_lr_zero_leaves_params_bit_identical():
    net = Mlp([4, 6, 2], seed=3)
    before = net.get_flat()
    opt = Adam(net.parameters(), lr=0.0)
    net.forward(np.ones(4))
    grads, _ = net.backward(np.ones(2))
    opt.step(net.gradient_arrays(grads))
    np.testing.assert_array_equal(net.get_flat(), before)


# -- parameter plumbing --------------------------------------------------------


def test_flat_round_trip():
    net = Mlp([5, 7, 2], seed=9)
    flat = net.get_flat()
    assert flat.shape == (net.n_params,)
    other = Mlp([5, 7, 2], seed=10)
    other.set_flat(flat)
    np.testing.assert_array_equal(other.get_flat(), flat)
    with pytest.raises(ValueError):
        net.set_flat(np.zeros(3))


def test_copy_is_independent():
    net = Mlp([3, 4, 2], seed=1)
    clone = net.copy()
    np.testing.assert_array_equal(clone.get_flat(), net.get_flat())
    clone.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != clone.weights[0][0, 0]


def test_same_seed_same_init():
    a = Mlp([6, 8, 3], seed=42)
    b = Mlp([6, 8, 3], seed=42)
    np.testing.assert_array_equal(a.get_flat(), b.get_flat())
