"""Minimal dense-network engine with hand-derived gradients.

Fixed-topology multilayer perceptrons (tanh or relu hidden layers, linear
output), reverse-mode gradients computed from a cached forward tape, a
numerically stable categorical head, and a bias-corrected adaptive-moment
optimizer.  Everything runs in 64-bit numpy on the CPU; networks are small
enough that exactness and reproducibility matter more than throughput.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ContractViolation, allocate

ACTIVATIONS = ("tanh", "relu")


def check_hidden_layers(hidden_sizes: Sequence[int], activation: str) -> None:
    """Raise :class:`ConfigurationError` unless :class:`Mlp` can build these
    layers (a config's hidden layers, or every layer of a net): every size
    at least 1, a known activation."""
    if activation not in ACTIVATIONS:
        raise ConfigurationError(
            f"unknown activation {activation!r}; expected one of {ACTIVATIONS}")
    if any(n < 1 for n in hidden_sizes):
        raise ConfigurationError(f"hidden sizes must be at least 1, got {hidden_sizes}")


class Mlp:
    """Fully connected network; hidden activations share one nonlinearity,
    the output layer is linear."""

    def __init__(self, layer_sizes: Sequence[int], hidden_activation: str = "tanh",
                 seed: int = 0) -> None:
        sizes = tuple(int(n) for n in layer_sizes)
        if len(sizes) < 2:
            raise ValueError("layer sizes need at least input and output dims")
        check_hidden_layers(sizes, hidden_activation)
        self.layer_sizes = sizes
        self.hidden_activation = hidden_activation
        shapes = [shape for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
                  for shape in ((fan_out, fan_in), (fan_out,))]
        ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
        self._layout = list(zip([0, *ends[:-1]], ends, shapes))
        name = f"layer sizes {sizes}"
        self._bind(allocate(name, (ends[-1],)), allocate(name, (ends[-1],)))
        rng = np.random.Generator(np.random.PCG64(seed))
        for w in self.weights:
            fan_out, fan_in = w.shape
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-limit, limit, size=w.shape)
        self._tape: list[np.ndarray] | None = None

    # -- forward / backward ---------------------------------------------------

    def _check_input(self, x, ndims: tuple = (1, 2)) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim not in ndims or arr.shape[-1] != self.layer_sizes[0]:
            raise ValueError(
                f"input shape {np.shape(x)} incompatible with {self.layer_sizes[0]} inputs "
                f"in a {'/'.join(map(str, ndims))}-D array"
            )
        return arr

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on a 2-D batch, one row per input, and keep the
        input and each layer's output, and nothing else, for
        :meth:`backward`.  Each layer runs as in :meth:`predict`."""
        tape = [self._check_input(x, (2,))]
        z = self._layers(tape[0], tape)
        self._tape = tape
        return z

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Run the network without touching the tape (safe for concurrent
        read-only inference on a frozen net).  A 1-D input runs as given,
        with the same values as the row of a one-row batch."""
        return self._layers(self._check_input(x), None)

    def _layers(self, a: np.ndarray, tape: list | None) -> np.ndarray:
        """The layer loop of :meth:`forward` and :meth:`predict`, appending
        each layer's output to ``tape`` when one is given.  Each layer
        multiplies by the transposed view of its weights that :meth:`_bind`
        built, which reads :attr:`flat` as it is now.  The product is the
        only array a layer allocates: the bias and the activation are
        applied to it in place, and the input is never written."""
        tanh = self.hidden_activation == "tanh"
        *hidden, (w_t, b) = self._predict_layers
        for hidden_w_t, hidden_b in hidden:
            z = a @ hidden_w_t
            z += hidden_b
            a = np.tanh(z, out=z) if tanh else np.maximum(z, 0.0, out=z)
            if tape is not None:
                tape.append(a)
        z = a @ w_t
        z += b
        if tape is not None:
            tape.append(z)
        return z

    def backward(self, upstream: np.ndarray, *,
                 input_grad: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """Exact reverse-mode gradients from the last :meth:`forward` call.

        ``upstream`` is d(loss)/d(output) with the same shape the forward
        pass returned.  Writes the parameter gradient, summed over the batch,
        into :attr:`grad` and returns it, plus d(loss)/d(input), or None in
        its place with ``input_grad=False``, which skips the first layer's
        input product.  The next call overwrites :attr:`grad`.
        """
        if self._tape is None:
            raise ContractViolation("backward called before forward")
        activations = self._tape
        delta = np.asarray(upstream, dtype=np.float64)
        if delta.shape != activations[-1].shape:
            raise ValueError(
                f"upstream shape {np.shape(upstream)} does not match output "
                f"shape {activations[-1].shape}"
            )
        tanh = self.hidden_activation == "tanh"
        for layer in range(len(self.weights) - 1, -1, -1):
            d_weight, d_bias = self._grad_layers[layer]
            np.matmul(delta.T, activations[layer], out=d_weight)
            delta.sum(axis=0, out=d_bias)
            if layer == 0:
                break
            # delta is the fresh product, never the caller's upstream
            delta = delta @ self.weights[layer]
            if tanh:
                slope = activations[layer] * activations[layer]
                delta *= np.subtract(1.0, slope, out=slope)
            else:
                # relu(z) > 0 exactly where z > 0, NaN and -0.0 included
                delta *= activations[layer] > 0.0
        if not input_grad:
            return self.grad, None
        return self.grad, delta @ self.weights[0]

    # -- parameter plumbing ---------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def _bind(self, flat: np.ndarray, grad: np.ndarray) -> None:
        """Make ``flat`` and ``grad`` the parameter and gradient vectors, both
        laid out in parameters() order, and build every view into them: the
        weights and biases, their transposed pairs for :meth:`predict` and
        :meth:`forward`, and each layer's gradient pair for :meth:`backward`."""
        def views(vector):
            return [vector[start:end].reshape(shape) for start, end, shape in self._layout]

        self.flat, self.grad = flat, grad
        params, grads = views(flat), views(grad)
        self.weights: list[np.ndarray] = params[0::2]
        self.biases: list[np.ndarray] = params[1::2]
        self._predict_layers = [(w.T, b) for w, b in zip(self.weights, self.biases)]
        self._grad_layers = list(zip(grads[0::2], grads[1::2]))


def share_parameters(*nets: Mlp) -> tuple[np.ndarray, np.ndarray]:
    """Lay the nets' parameters end to end in one new vector and their
    gradients in another, and rebind each net's views into them, keeping
    every value.  Returns (parameters, gradients), so one optimizer pass
    updates every net."""
    params = np.concatenate([net.flat for net in nets])
    grads = np.concatenate([net.grad for net in nets])
    start = 0
    for net in nets:
        end = start + net.flat.size
        net._bind(params[start:end], grads[start:end])
        start = end
    return params, grads


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _add_reduce(values: list[float]) -> float:
    """``np.add.reduce`` of a list of floats, bit for bit.  numpy adds fewer
    than 8 terms left to right, as this loop does (Python's ``sum`` does not:
    from 3.12 on it compensates float sums); 8 or more it adds pairwise, so
    those go to numpy."""
    if len(values) >= 8:
        return float(np.add.reduce(values))
    total = -0.0  # -0.0 + v is v for every float v, -0.0 included
    for v in values:
        total += v
    return total


def softmax_sample(logits: np.ndarray, rng: np.random.Generator) -> tuple[int, float]:
    """Sample one action from a categorical over the logits.

    Returns (action index, log probability of that action).  Max-subtraction
    keeps huge logits from overflowing.  The arithmetic runs on Python floats
    in numpy's order; only ``exp`` and ``log`` stay numpy calls, whose results
    Python's ``math`` does not always reproduce bit for bit.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("softmax_sample expects a single logit vector")
    values = z.tolist()
    if any(x != x for x in values):
        raise ValueError("NaN logits")
    m = max(values)
    shifted = [x - m for x in values]
    log_norm = float(np.log(_add_reduce(np.exp(shifted).tolist())))
    logp = [x - log_norm for x in shifted]
    probs = np.exp(logp).tolist()
    total_p = _add_reduce(probs)
    # inverse CDF over a left-to-right running sum of the normalized
    # probabilities, as searchsorted(side="right") on their cumsum finds it
    # (a NaN sum sorts last, so it also stops there)
    u = rng.random()
    total = 0.0
    for action, p in enumerate(probs):
        total += p / total_p
        if not u >= total:
            return action, logp[action]
    return len(probs) - 1, logp[-1]


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected adaptive-moment optimizer over one parameter vector
    (PPO and DQN pass one :attr:`Mlp.flat` per network, the autoencoder the
    vector :func:`share_parameters` lays both of its networks in)."""

    def __init__(self, param: np.ndarray, lr: float) -> None:
        self.param = param
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)

    def step(self, grad: np.ndarray) -> None:
        """Update the parameters and moments in place from ``grad``, which
        has the parameters' shape; ``t`` counts the updates from 1."""
        if np.shape(grad) != self.param.shape:
            raise ValueError(f"gradient shape {np.shape(grad)} does not match "
                             f"parameter shape {self.param.shape}")
        self.t += 1
        lr, beta1, beta2, eps, t = self.lr, _BETA1, _BETA2, _EPS, self.t
        m, v = self.m, self.v
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * (grad * grad)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        self.param -= lr * m_hat / (np.sqrt(v_hat) + eps)
