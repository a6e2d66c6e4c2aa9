"""Minimal dense-network engine: explicit backprop and adaptive-moment steps.

Two output heads cover both networks: "identity" (Critic Q-values) and
"actor", which splits the final layer into a sigmoid block of continuous
parameters and a softmax block of discrete-action probabilities.  Gradients
are exact reverse-mode; with both moment decay rates at zero the optimizer
is literal gradient descent.  Every operation follows the dtype of the
weights: float64 by default, or float32 when the net is built so.

A net keeps all its parameters in one flat array, ``Mlp.flat``, in the order
W0, b0, W1, b1, ...; its weights, biases and parameters() are views into
it, and backward writes a call's gradients into one fresh flat array of the
same layout.  So an element-wise step over a whole net, such as the
optimizer's, runs once over one array.
"""
from __future__ import annotations

import math
from functools import cached_property

import numpy as np


def relu(x):
    return np.maximum(x, 0.0)


def sigmoid(x):
    """1/(1 + e^-x) for x >= 0 and e^x/(1 + e^x) below, from one exp that
    never overflows.  min(x, -x) is -|x| that keeps a NaN's sign and payload."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def split_flat(flat: np.ndarray, shapes) -> list:
    """Views of consecutive pieces of a flat array, one of each shape."""
    out, pos = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[pos:pos + size].reshape(shape))
        pos += size
    return out


def softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class Mlp:
    """Fully-connected net: ReLU hidden layers, identity or actor head.

    For head="actor" the last layer width must be 2*n_discrete: the first
    half squashes to [0, 1] continuous parameters, the second half is a
    probability head.  The weights are drawn in float64 and cast to dtype,
    so a float32 net holds its float64 twin's weights rounded.
    """

    def __init__(self, layer_dims, rng: np.random.Generator, head="identity",
                 n_discrete: int | None = None, dtype=np.float64):
        if head not in ("identity", "actor"):
            raise ValueError(f"unknown head: {head}")
        if head == "actor":
            if n_discrete is None or layer_dims[-1] != 2 * n_discrete:
                raise ValueError("actor head needs layer_dims[-1] == 2*n_discrete")
        self.layer_dims = list(layer_dims)
        self.head = head
        self.n_discrete = n_discrete
        self._adopt(np.empty(sum(math.prod(s) for s in self.shapes), dtype=dtype))
        for w, b in zip(self.weights, self.biases):
            w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), w.shape)
            b[...] = 0.0

    @cached_property
    def shapes(self) -> list:
        """Shapes of [W0, b0, W1, b1, ...], the layout of the flat arrays."""
        return [s for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:])
                for s in ((fan_out, fan_in), (fan_out,))]

    def _adopt(self, flat: np.ndarray):
        """Make flat the parameter array; weights and biases view into it."""
        self.flat = flat
        views = self.split(flat)
        self.weights = views[0::2]
        self.biases = views[1::2]

    def split(self, flat: np.ndarray) -> list:
        """Views [W0, b0, W1, b1, ...] into a flat array of this net's layout."""
        return split_flat(flat, self.shapes)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def parameters(self):
        """List [W0, b0, W1, b1, ...] of views into the flat array."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def _layers(self, x):
        """(acts, pre): the input and each hidden ReLU output, then the last
        pre-activation."""
        x = np.atleast_2d(np.asarray(x, dtype=self.dtype))
        if x.shape[1] != self.layer_dims[0]:
            raise ValueError(f"input width {x.shape[1]} != {self.layer_dims[0]}")
        acts = [x]
        pre = None
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = acts[-1] @ w.T + b
            if i < self.n_layers - 1:
                acts.append(relu(pre))
        return acts, pre

    def forward(self, x):
        """Returns (output, cache).  Identity head: output is the last
        pre-activation; actor head: output is (params, probs)."""
        acts, pre = self._layers(x)
        if self.head == "identity":
            out = pre
            cache = (acts, pre, None)
        else:
            nd = self.n_discrete
            params = sigmoid(pre[:, :nd])
            probs = softmax(pre[:, nd:])
            out = (params, probs)
            cache = (acts, pre, (params, probs))
        return out, cache

    def actor_params(self, x) -> np.ndarray:
        """The actor head's continuous parameters alone: forward's params to
        the bit, with no probabilities and no cache."""
        _, pre = self._layers(x)
        return sigmoid(pre[:, :self.n_discrete])

    def backward(self, cache, grad_out):
        """Exact gradients of the forward map.

        grad_out: identity head — array like the output; actor head — tuple
        (grad_params, grad_probs).  Returns the parameter gradients in
        parameters() order, as views into one flat array that this call
        allocates, in the layout of ``flat``.
        """
        acts, pre, head_vals = cache
        if self.head == "identity":
            delta = np.atleast_2d(np.asarray(grad_out, dtype=self.dtype))
        else:
            grad_params, grad_probs = grad_out
            params, probs = head_vals
            nd = self.n_discrete
            delta = np.empty_like(pre)
            delta[:, :nd] = (np.atleast_2d(np.asarray(grad_params, dtype=self.dtype))
                             * params * (1.0 - params))
            gp = np.atleast_2d(np.asarray(grad_probs, dtype=self.dtype))
            # softmax Jacobian: p * (g - <g, p>)
            delta[:, nd:] = probs * (gp - np.add.reduce(gp * probs, axis=1, keepdims=True))
        grads = self.split(np.empty_like(self.flat))
        for i in range(self.n_layers - 1, -1, -1):
            np.add.reduce(delta, axis=0, out=grads[2 * i + 1])      # db
            np.matmul(delta.T, acts[i], out=grads[2 * i])           # dW
            if i > 0:
                delta = (delta @ self.weights[i]) * (acts[i] > 0.0)
        return grads

    def copy(self) -> "Mlp":
        twin = Mlp.__new__(Mlp)
        twin.layer_dims = list(self.layer_dims)
        twin.head = self.head
        twin.n_discrete = self.n_discrete
        twin._adopt(self.flat.copy())
        return twin


class OptimizerState:
    """Adaptive-moment updates with bias correction, over one flat array.

    Decay rates (0, 0) bypass the moment machinery entirely and apply the
    literal rule p -= lr * g.  ``m`` and ``v`` are the moment arrays of the
    parameter array stepped, an Mlp's flat array.  ``scratch`` holds two work
    arrays so that a step allocates nothing; it is not saved.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = None
        self.v = None
        self.scratch = None


def optimizer_step(param: np.ndarray, grad: np.ndarray, opt: OptimizerState):
    """One in-place update of a parameter array.

    p -= lr * m_hat / (sqrt(v_hat) + eps), evaluated in the state's scratch
    arrays operation by operation in that order, so the result is the same
    to the bit as the expression evaluated with temporaries.
    """
    opt.step_count += 1
    if opt.beta1 == 0.0 and opt.beta2 == 0.0:
        param -= opt.lr * grad
        return
    if opt.m is None:
        opt.m = np.zeros_like(param)
        opt.v = np.zeros_like(param)
    if opt.scratch is None:
        opt.scratch = (np.empty_like(param), np.empty_like(param))
    t = opt.step_count
    m_scale = 1.0 - opt.beta1 ** t
    v_scale = 1.0 - opt.beta2 ** t
    m, v, (a, b) = opt.m, opt.v, opt.scratch
    m *= opt.beta1
    np.multiply(1.0 - opt.beta1, grad, out=a)
    m += a
    v *= opt.beta2
    np.multiply(1.0 - opt.beta2, grad, out=a)
    a *= grad
    v += a
    np.divide(m, m_scale, out=a)         # m_hat
    a *= opt.lr
    np.divide(v, v_scale, out=b)         # v_hat
    np.sqrt(b, out=b)
    b += opt.eps
    a /= b
    param -= a


def clip_global_norm(grads, max_norm: float) -> np.ndarray:
    """The flat array behind grads, the views Mlp.backward returns, scaled
    in place when the gradients' global L2 norm exceeds max_norm > 0.

    The squares are summed array by array, in list order; with
    max_norm <= 0 no norm is formed.
    """
    flat = grads[0].base
    if max_norm > 0:
        total = np.sqrt(sum(float(np.add.reduce(g * g, axis=None)) for g in grads))
        if total > max_norm:
            flat *= max_norm / total
    return flat
