"""Network engine tests: forward/backward correctness against hand math,
finite differences and a plain reference, allocation budgets, softmax
behavior, and the optimizer."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsclab.agents.autoencoder import reconstruction_mse
from tsclab.errors import ContractViolation
from conftest import reference_softmax_sample, softmax
from tsclab.neural import (ACTIVATIONS, Adam, Mlp, log_softmax, share_parameters,
                            softmax_sample)
from tsclab.weights import mlp_from_arrays


def layer_gradients(net, gradient):
    """Per-layer (dW, db) views of a gradient laid out like ``net.flat``."""
    holder = mlp_from_arrays(net.parameters(), net.hidden_activation)
    holder.flat[...] = gradient
    return list(zip(holder.weights, holder.biases))


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
    # forward keeps a tape for backward, so it takes batches only
    for x in (np.zeros(4), np.zeros((1, 3)), np.zeros((1, 1, 4))):
        with pytest.raises(ValueError):
            net.forward(x)


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
    net.forward(x[None])
    upstream = np.array([0.7, -0.3])
    dx = net.backward(upstream[None])
    dW, db = layer_gradients(net, net.grad)[0]
    np.testing.assert_allclose(dW, np.outer(upstream, x), atol=1e-15)
    np.testing.assert_allclose(db, upstream, atol=1e-15)
    np.testing.assert_allclose(dx, [upstream @ net.weights[0]], atol=1e-15)


def test_backward_before_forward_rejected():
    net = Mlp([3, 2], seed=0)
    with pytest.raises(ContractViolation):
        net.backward(np.zeros((1, 2)))


def test_backward_zero_upstream_gives_zero_gradients():
    net = Mlp([4, 6, 2], seed=1)
    net.forward(np.ones((1, 4)))
    dx = net.backward(np.zeros((1, 2)))
    for dW, db in layer_gradients(net, net.grad):
        assert not dW.any()
        assert not db.any()
    assert not dx.any()


def test_backward_shape_mismatch_rejected():
    net = Mlp([4, 6, 2], seed=1)
    net.forward(np.ones((1, 4)))
    # a wrong width, a wrong row count, and the row without its batch axis
    for upstream in (np.zeros((1, 3)), np.zeros((2, 2)), np.zeros(2)):
        with pytest.raises(ValueError):
            net.backward(upstream)


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
    net.backward(upstream)
    analytic = net.grad
    flat = net.flat.copy()
    numeric = np.empty_like(analytic)
    for i in range(flat.size):
        net.flat[i] += h
        up = float(np.sum(net.predict(x) * upstream))
        net.flat[i] -= 2 * h
        down = float(np.sum(net.predict(x) * upstream))
        numeric[i] = (up - down) / (2 * h)
        net.flat[i] = flat[i]
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_gradients_match_finite_differences_relu():
    net = Mlp([19, 32, 16], "relu", seed=7)
    rng = np.random.Generator(np.random.PCG64(21))
    x = rng.normal(size=(1, 19))
    upstream = rng.normal(size=(1, 16))
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
    # a NaN anywhere, not only where max() starts, and before any draw
    for logits in ([float("nan"), 0.0, 0.0], [0.0, float("nan"), 1.0], [1.0, 2.0, float("nan")]):
        with pytest.raises(ValueError, match="NaN"):
            softmax_sample(np.array(logits), rng)
    assert rng.bit_generator.state == np.random.Generator(np.random.PCG64(0)).bit_generator.state
    with pytest.raises(ValueError):
        softmax_sample(np.zeros((2, 3)), rng)


def test_softmax_sample_frequencies_match_probabilities():
    logits = np.array([0.5, -0.5, 1.0])
    probs = softmax(logits)
    rng = np.random.Generator(np.random.PCG64(77))
    counts = np.zeros(3)
    n = 100_000
    for _ in range(n):
        action, log_prob = softmax_sample(logits, rng)
        counts[action] += 1
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


def test_softmax_sample_matches_reference_bitwise():
    logit_rng = np.random.Generator(np.random.PCG64(5))
    ours = np.random.Generator(np.random.PCG64(13))
    theirs = np.random.Generator(np.random.PCG64(13))
    for trial in range(20_000):
        scale = (0.01, 0.3, 3.0, 30.0)[trial % 4]
        logits = scale * logit_rng.standard_normal(2 + (trial // 4) % 4)
        action, log_prob = softmax_sample(logits, ours)
        ref_action, ref_log_prob = reference_softmax_sample(logits, theirs)
        assert action == ref_action
        assert log_prob.hex() == ref_log_prob.hex()
    assert ours.bit_generator.state == theirs.bit_generator.state


def _draw_or_error(sampler, logits, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    try:
        action, log_prob = sampler(logits, rng)
    except (ValueError, FloatingPointError) as exc:
        return type(exc)
    return action, struct.pack("<d", log_prob), rng.bit_generator.state


# up to 12 logits: numpy sums fewer than 8 terms left to right and longer
# vectors pairwise, and the sampler must follow it on both sides
_LOGIT_LISTS = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 700.0, -700.0, -36.8]),
              st.floats(min_value=-700.0, max_value=700.0)),
    min_size=1, max_size=12)


@given(values=_LOGIT_LISTS, neg_inf=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_softmax_sample_bitwise_equals_numpy_reference(values, neg_inf, seed):
    # the sampler before its Python-float rewrite (conftest), over ties,
    # signed zeros, spreads up to 1400 and at most one -inf logit
    logits = np.array(values)
    if len(values) > 1 and neg_inf < len(values):
        logits[neg_inf] = -np.inf
    assert (_draw_or_error(softmax_sample, logits, seed)
            == _draw_or_error(reference_softmax_sample, logits, seed))
    with np.errstate(all="raise"):
        ours = _draw_or_error(softmax_sample, logits, seed)
        theirs = _draw_or_error(reference_softmax_sample, logits, seed)
    if ours == FloatingPointError:
        assert theirs == FloatingPointError


@pytest.mark.parametrize("n_small", [2, 9])
def test_softmax_sample_sums_as_numpy_not_compensated(n_small):
    # exp(log(1e-16)) terms vanish against 1.0 one at a time, as numpy adds
    # them, but not in a compensated sum (Python's sum from 3.12 on), which
    # would round the normalizer, and so the log-probs, up by an ulp
    logits = np.array([0.0] + [math.log(1e-16)] * n_small)
    for seed in range(50):
        assert (_draw_or_error(softmax_sample, logits, seed)
                == _draw_or_error(reference_softmax_sample, logits, seed))


# -- optimizer -----------------------------------------------------------------


def test_adam_zero_gradient_leaves_params():
    param = np.array([1.0, -2.0, 3.0])
    Adam(param, np.zeros(3), lr=0.1).step()
    np.testing.assert_array_equal(param, [1.0, -2.0, 3.0])


def test_adam_first_step_is_lr_times_sign():
    param = np.array([1.0, 1.0, 1.0])
    Adam(param, np.array([0.5, -3.0, 1e-5]), lr=0.01).step()
    # bias-corrected ratio m_hat/sqrt(v_hat) = sign(g) up to eps rounding
    np.testing.assert_allclose(param, [1.0 - 0.01, 1.0 + 0.01, 1.0 - 0.01], atol=1e-4)


def test_adam_deterministic():
    def run():
        param, grad = np.array([0.3, -0.7]), np.empty(2)
        opt = Adam(param, grad, lr=0.05)
        for i in range(10):
            grad[...] = [0.1 * i, -0.2]
            opt.step()
        return param.copy()

    np.testing.assert_array_equal(run(), run())


def test_adam_validation():
    # a gradient vector of another shape is refused when the optimizer is
    # built, before any step could read it; a length-1 one would broadcast
    param = np.zeros(2)
    for grad in (np.zeros(3), np.zeros(1), np.zeros((2, 1)), [np.zeros(2), np.zeros(2)]):
        with pytest.raises(ValueError):
            Adam(param, grad, lr=0.1)
    assert not param.any()


def test_adam_lr_zero_leaves_params_bit_identical():
    net = Mlp([4, 6, 2], seed=3)
    before = net.flat.copy()
    opt = Adam(net.flat, net.grad, lr=0.0)
    net.forward(np.ones((1, 4)))
    net.backward(np.ones((1, 2)))
    opt.step()
    np.testing.assert_array_equal(net.flat, before)


# -- parameter plumbing --------------------------------------------------------


def test_flat_round_trip():
    net = Mlp([5, 7, 2], seed=9)
    assert net.flat.shape == (5 * 7 + 7 + 7 * 2 + 2,)
    other = Mlp([5, 7, 2], seed=10)
    other.flat[...] = net.flat
    x = np.linspace(-1.0, 1.0, 5)
    np.testing.assert_array_equal(other.predict(x), net.predict(x))
    with pytest.raises(ValueError):
        net.flat[...] = np.zeros(3)


layer_sizes = st.lists(st.integers(1, 12), min_size=2, max_size=5)


@settings(max_examples=60, deadline=None)
@given(sizes=layer_sizes, activation=st.sampled_from(ACTIVATIONS),
       seed=st.integers(0, 2**32 - 1))
def test_parameters_are_views_into_flat(sizes, activation, seed):
    net = Mlp(sizes, activation, seed=seed)
    params = net.parameters()
    assert all(np.shares_memory(p, net.flat) for p in params)
    np.testing.assert_array_equal(np.concatenate([p.ravel() for p in params]), net.flat)
    # the same per-layer uniform draws as separately allocated arrays get
    rng = np.random.Generator(np.random.PCG64(seed))
    for w, b, fan_in, fan_out in zip(net.weights, net.biases, sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        np.testing.assert_array_equal(w, rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        np.testing.assert_array_equal(b, np.zeros(fan_out))
    other = mlp_from_arrays(params, activation)
    assert not np.shares_memory(other.flat, net.flat)
    assert all(np.shares_memory(p, other.flat) for p in other.parameters())
    np.testing.assert_array_equal(other.flat, net.flat)


@settings(max_examples=25, deadline=None)
@given(sizes=layer_sizes, activation=st.sampled_from(ACTIVATIONS),
       seed=st.integers(0, 2**32 - 1))
def test_adam_on_flat_matches_per_array_steps(sizes, activation, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    for scale in (1e-6, 1.0, 1e3):
        net = Mlp(sizes, activation, seed=seed)
        twin = mlp_from_arrays(net.parameters(), activation)
        flat_opt = Adam(net.flat, net.grad, lr=1e-3)
        array_grads = [np.empty_like(p) for p in twin.parameters()]
        array_opts = [Adam(p, g, lr=1e-3) for p, g in zip(twin.parameters(), array_grads)]
        for _ in range(50):
            for g in array_grads:
                g[...] = scale * rng.standard_normal(g.shape)
            net.grad[...] = np.concatenate(array_grads, axis=None)
            flat_opt.step()
            for opt in array_opts:
                opt.step()
        assert net.flat.tobytes() == twin.flat.tobytes()


@settings(max_examples=25, deadline=None)
@given(first=layer_sizes, second=layer_sizes, activation=st.sampled_from(ACTIVATIONS),
       seed=st.integers(0, 2**32 - 1))
def test_shared_nets_keep_their_values_and_step_as_separate_ones(first, second,
                                                                activation, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    inputs = [rng.standard_normal((3, sizes[0])) for sizes in (first, second)]
    for scale in (1e-6, 1.0, 1e3):
        nets = [Mlp(first, activation, seed=seed), Mlp(second, activation, seed=seed + 1)]
        twins = [mlp_from_arrays(net.parameters(), activation) for net in nets]
        params, grads = share_parameters(*nets)
        assert params.tobytes() == b"".join(twin.flat.tobytes() for twin in twins)
        assert grads.shape == params.shape
        for net, twin, x in zip(nets, twins, inputs):
            views = [net.flat, *net.parameters(), *(w_t for w_t, _ in net._predict_layers)]
            assert all(np.shares_memory(v, params) for v in views)
            grad_views = [net.grad, *(g for pair in net._grad_layers for g in pair)]
            assert all(np.shares_memory(g, grads) for g in grad_views)
            assert net.predict(x).tobytes() == twin.predict(x).tobytes()
            other = mlp_from_arrays(net.parameters(), activation)
            for vector in (other.flat, other.grad):
                assert not np.shares_memory(vector, params)
                assert not np.shares_memory(vector, grads)
            upstream = rng.standard_normal((3, net.layer_sizes[-1]))
            net.forward(x)
            twin.forward(x)
            assert net.backward(upstream).tobytes() == twin.backward(upstream).tobytes()
            assert net.grad.tobytes() == twin.grad.tobytes()
        # 50 steps of one optimizer over the joint vectors against one per
        # twin on its own flat and grad, each step after a backward through
        # every net
        joint_opt = Adam(params, grads, lr=1e-3)
        twin_opts = [Adam(twin.flat, twin.grad, lr=1e-3) for twin in twins]
        for _ in range(50):
            for net, twin, x in zip(nets, twins, inputs):
                upstream = scale * rng.standard_normal((3, net.layer_sizes[-1]))
                for model in (net, twin):
                    model.forward(x)
                    model.backward(upstream, input_grad=False)
            joint_opt.step()
            for opt in twin_opts:
                opt.step()
        assert grads.tobytes() == b"".join(twin.grad.tobytes() for twin in twins)
        assert params.tobytes() == b"".join(twin.flat.tobytes() for twin in twins)
        for net, twin, x in zip(nets, twins, inputs):
            assert net.predict(x).tobytes() == twin.predict(x).tobytes()


def test_same_seed_same_init():
    a = Mlp([6, 8, 3], seed=42)
    b = Mlp([6, 8, 3], seed=42)
    np.testing.assert_array_equal(a.flat, b.flat)


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(1, 80), min_size=2, max_size=4),
       activation=st.sampled_from(ACTIVATIONS), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from((1e-3, 1.0, 30.0)))
def test_single_row_predict_equals_one_row_batch(sizes, activation, seed, scale):
    net = Mlp(sizes, activation, seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    x = scale * rng.standard_normal(sizes[0])
    assert net.predict(x).tobytes() == net.forward(x[None])[0].tobytes()
    # predict must read flat as it is now: an optimizer step rewrites it in place
    net.flat[...] = rng.standard_normal(net.flat.size)
    assert net.predict(x).tobytes() == net.forward(x[None])[0].tobytes()


def _reference_pass(net, x, upstream):
    """Forward and backward written plainly, as before any step wrote in
    place: a fresh array for every product, bias sum, activation and
    per-layer ``delta.T @ a_in`` and ``delta.sum(axis=0)``.  Returns (output,
    gradient in parameters() order, d_input)."""
    squeeze = x.ndim == 1
    a = x[None, :] if squeeze else x
    activations, pre = [a], []
    last = len(net.weights) - 1
    for idx, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        pre.append(z)
        if idx < last:
            a = np.tanh(z) if net.hidden_activation == "tanh" else np.maximum(z, 0.0)
        else:
            a = z
        activations.append(a)
    delta = upstream[None, :] if squeeze else upstream
    grads = [None] * len(net.weights)
    for layer in range(last, -1, -1):
        grads[layer] = (delta.T @ activations[layer], delta.sum(axis=0))
        delta = delta @ net.weights[layer]
        if layer > 0:
            if net.hidden_activation == "tanh":
                slope = 1.0 - activations[layer] * activations[layer]
            else:
                slope = (pre[layer - 1] > 0.0).astype(np.float64)
            delta = delta * slope
    gradient = np.concatenate([g.ravel() for pair in grads for g in pair])
    if squeeze:
        return a[0], gradient, delta[0]
    return a, gradient, delta


# input entries where a relu mask read from layer outputs could first differ
# from one read from pre-activations
_SPECIAL_ENTRIES = st.lists(
    st.tuples(st.integers(0, 2**16), st.sampled_from([np.nan, np.inf, -np.inf, -0.0])),
    max_size=4)


@settings(max_examples=100, deadline=None)
@given(sizes=layer_sizes, activation=st.sampled_from(ACTIVATIONS),
       seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 6),
       scale=st.sampled_from((1e-3, 1.0, 30.0)), specials=_SPECIAL_ENTRIES)
@np.errstate(invalid="ignore", over="ignore")
def test_in_place_passes_match_the_plain_reference_bitwise(sizes, activation, seed,
                                                           rows, scale, specials):
    # rows = 0 stands for a single 1-D input, which predict takes as it is
    # and forward and backward as a one-row batch
    net = Mlp(sizes, activation, seed=seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = (rows,) if rows else ()
    x = scale * rng.standard_normal((*shape, sizes[0]))
    for position, value in specials:
        x.flat[position % x.size] = value
    upstream = rng.standard_normal((*shape, sizes[-1]))
    x_before, upstream_before = x.tobytes(), upstream.tobytes()
    ref_out, ref_gradient, ref_dx = _reference_pass(net, x, upstream)

    out = net.predict(x)
    assert x.tobytes() == x_before
    assert out.tobytes() == ref_out.tobytes()
    batch, upstream_batch = (x, upstream) if rows else (x[None], upstream[None])
    assert net.forward(batch).tobytes() == out.tobytes()
    assert net.grad.shape == net.flat.shape
    assert not np.shares_memory(net.grad, net.flat)
    # poison the persistent gradient so that an entry backward leaves unwritten shows
    net.grad.fill(np.nan)
    dx = net.backward(upstream_batch)
    assert upstream.tobytes() == upstream_before
    assert net.grad.tobytes() == ref_gradient.tobytes()
    assert dx.tobytes() == ref_dx.tobytes()
    # without the input gradient: the same parameter gradient, no input product
    net.grad.fill(np.nan)
    assert net.backward(upstream_batch, input_grad=False) is None
    assert upstream.tobytes() == upstream_before
    assert net.grad.tobytes() == ref_gradient.tobytes()


# -- allocation budgets ------------------------------------------------------------


def _peak_traced_bytes(fn, *args):
    """Peak bytes allocated while ``fn(*args)`` runs; numpy reports its
    buffers to tracemalloc, so the peak covers every array made."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sizes", [[19, 64, 64, 3], [8, 32, 19], [5, 100, 7, 100, 2]])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_predict_holds_at_most_two_layers_and_the_output(sizes, activation):
    n = 20_000
    net = Mlp(sizes, activation, seed=0)
    x = np.random.Generator(np.random.PCG64(1)).standard_normal((n, sizes[0]))
    widths = sizes[1:]
    widest_pair = max(a + b for a, b in zip(widths[:-1], widths[1:]))
    assert _peak_traced_bytes(net.predict, x) <= 8 * n * (widest_pair + widths[-1])


@pytest.mark.parametrize("sizes", [[19, 64, 64, 3], [8, 32, 19], [5, 100, 7, 100, 2]])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_forward_holds_one_array_per_layer(sizes, activation):
    # the tape keeps each layer's output and nothing else: the bias and the
    # activation are applied in place on the layer's product; the slack is
    # the 64 KiB ufunc buffer numpy lends a broadcast bias add
    n = 20_000
    net = Mlp(sizes, activation, seed=0)
    x = np.random.Generator(np.random.PCG64(1)).standard_normal((n, sizes[0]))
    assert _peak_traced_bytes(net.forward, x) <= 8 * n * sum(sizes[1:]) + 96 * 2**10


def test_reconstruction_mse_allocation_budget():
    # the pass holds the buffer's row sums and one 128-row block's layers
    # (185 KiB at most here); running each layer over the whole buffer at
    # once peaked at 4.57 MiB on this buffer
    n = 10_000
    states = np.random.Generator(np.random.PCG64(2)).uniform(size=(n, 19))
    encoder = Mlp([19, 32, 8], "relu", seed=1)
    decoder = Mlp([8, 32, 19], "relu", seed=2)
    one_block = 8 * 128 * (32 + 8 + 32 + 19)
    budget = 8 * n + one_block + 16 * 2**10
    assert budget <= 256 * 2**10
    assert _peak_traced_bytes(reconstruction_mse, encoder, decoder, states) <= budget
