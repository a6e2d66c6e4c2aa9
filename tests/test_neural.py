import numpy as np
import pytest

from ris_detnet.neural import (Mlp, OptimizerState, clip_global_norm,
                               optimizer_step, sigmoid, softmax, split_flat)


def finite_diff_grads(net, loss_fn, h=1e-5):
    """Central-difference gradient oracle over every parameter entry."""
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_fn()
            p[idx] = orig - h
            dn = loss_fn()
            p[idx] = orig
            g[idx] = (up - dn) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


# ------------------------------------------------------------- forward

def test_forward_zero_weights_returns_bias():
    rng = np.random.default_rng(0)
    net = Mlp([3, 4, 2], rng)
    for w in net.weights:
        w[:] = 0.0
    net.biases[-1][:] = [1.5, -2.0]
    out, _ = net.forward(np.zeros(3))
    assert np.allclose(out[0], [1.5, -2.0])


def test_forward_single_linear_layer_hand_case():
    rng = np.random.default_rng(0)
    net = Mlp([2, 2], rng)
    net.weights[0][:] = [[1.0, 2.0], [3.0, 4.0]]
    net.biases[0][:] = [0.5, -0.5]
    out, _ = net.forward(np.array([1.0, -1.0]))
    assert np.allclose(out[0], [1.0 - 2.0 + 0.5, 3.0 - 4.0 - 0.5])


def test_forward_deterministic():
    net = Mlp([4, 8, 3], np.random.default_rng(5))
    x = np.random.default_rng(1).normal(size=4)
    a, _ = net.forward(x)
    b, _ = net.forward(x)
    assert np.array_equal(a, b)


def test_forward_rejects_bad_width():
    net = Mlp([4, 3], np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.forward(np.zeros(5))


def test_actor_head_outputs():
    net = Mlp([5, 16, 8], np.random.default_rng(2), head="actor", n_discrete=4)
    (params, probs), _ = net.forward(np.random.default_rng(3).normal(size=(6, 5)))
    assert params.shape == (6, 4) and probs.shape == (6, 4)
    assert np.all((params > 0) & (params < 1))
    assert np.all(probs > 0)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_actor_params_equal_forward_params_bitwise(dtype):
    # the acting and target paths read actor_params where they read
    # forward's params; the reference layout, one row and a replay batch
    net = Mlp([15, 128, 128, 32], np.random.default_rng(4), head="actor",
              n_discrete=16, dtype=dtype)
    rng = np.random.default_rng(5)
    for x in (rng.normal(size=15), rng.normal(size=(1, 15)), rng.normal(size=(32, 15))):
        (params, _), _ = net.forward(x)
        got = net.actor_params(x)
        assert got.dtype == params.dtype == dtype and got.shape == params.shape
        assert got.tobytes() == params.tobytes()


def test_softmax_extreme_logits_stable():
    p = softmax(np.array([[1000.0, 0.0, -1000.0]]))
    assert np.allclose(p.sum(), 1.0)
    assert np.all(np.isfinite(p))


# ------------------------------------------------------------- backward

def test_backward_matches_finite_differences_identity_head():
    rng = np.random.default_rng(7)
    net = Mlp([4, 6, 5, 3], rng)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))

    def loss_fn():
        out, _ = net.forward(x)
        return 0.5 * float(np.sum((out - target) ** 2))

    out, cache = net.forward(x)
    analytic = net.backward(cache, out - target)
    numeric = finite_diff_grads(net, loss_fn)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_backward_matches_finite_differences_actor_head():
    rng = np.random.default_rng(8)
    net = Mlp([4, 10, 6], rng, head="actor", n_discrete=3)
    x = rng.normal(size=(4, 4))
    wp = rng.normal(size=(4, 3))
    wq = rng.normal(size=(4, 3))

    def loss_fn():
        (params, probs), _ = net.forward(x)
        return float(np.sum(wp * params) + np.sum(wq * probs))

    (_, _), cache = net.forward(x)
    analytic = net.backward(cache, (wp, wq))
    numeric = finite_diff_grads(net, loss_fn)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_backward_zero_gradient():
    net = Mlp([3, 5, 2], np.random.default_rng(1))
    out, cache = net.forward(np.ones(3))
    grads = net.backward(cache, np.zeros_like(out))
    assert all(np.all(g == 0) for g in grads)


def test_backward_linear_layer_outer_product():
    net = Mlp([2, 2], np.random.default_rng(0))
    x = np.array([0.3, -1.2])
    g = np.array([[2.0, -1.0]])
    _, cache = net.forward(x)
    grads = net.backward(cache, g)
    assert np.allclose(grads[0], g.T @ np.atleast_2d(x))   # dL/dW = g x^T
    assert np.allclose(grads[1], g[0])                     # dL/db = g


# ------------------------------------------------------------- optimizer

def test_plain_sgd_mode_is_literal_update():
    net = Mlp([2, 2], np.random.default_rng(0))
    before = net.flat.copy()
    opt = OptimizerState(lr=0.1, beta1=0.0, beta2=0.0)
    optimizer_step(net.flat, np.ones_like(net.flat), opt)
    assert np.allclose(net.flat, before - 0.1, atol=1e-15)


def test_zero_gradient_leaves_params_unchanged():
    net = Mlp([3, 3], np.random.default_rng(2))
    before = net.flat.copy()
    zeros = np.zeros_like(net.flat)
    opt = OptimizerState(lr=0.5)
    optimizer_step(net.flat, zeros, opt)
    optimizer_step(net.flat, zeros, opt)
    assert np.array_equal(before, net.flat)


def test_adam_converges_on_quadratic():
    w = np.array([3.0, -4.0, 2.0])
    opt = OptimizerState(lr=0.1)
    f0 = float(np.sum(w ** 2))
    for _ in range(200):
        optimizer_step(w, 2.0 * w, opt)
    assert float(np.sum(w ** 2)) < f0 / 100.0


def test_parameter_count_invariant_under_steps():
    net = Mlp([4, 6, 2], np.random.default_rng(3))
    shapes = [p.shape for p in net.parameters()]
    opt = OptimizerState(lr=0.01)
    for _ in range(5):
        optimizer_step(net.flat, np.ones_like(net.flat), opt)
    assert [p.shape for p in net.parameters()] == shapes


def test_optimizer_step_matches_adam_formula_bitwise():
    # the in-place step against the expression it evaluates, with temporaries
    rng = np.random.default_rng(8)
    net = Mlp([5, 7, 3], rng)
    p = net.flat.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    opt = OptimizerState(lr=0.01)
    b1, b2, eps = opt.beta1, opt.beta2, opt.eps
    for t in range(1, 51):
        g = rng.normal(size=p.shape)
        optimizer_step(net.flat, g, opt)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p -= opt.lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.array_equal(net.flat, p)


def test_clip_global_norm():
    # the flat array behind the views comes back, scaled in place if at all
    flat = np.array([3.0, 4.0])        # norm 5
    assert clip_global_norm(split_flat(flat, [(2,)]), 1.0) is flat
    assert np.allclose(flat, [0.6, 0.8])
    small = np.array([0.1, 0.1])
    assert clip_global_norm(split_flat(small, [(2,)]), 10.0) is small
    assert np.array_equal(small, [0.1, 0.1])
    for off in (0.0, -1.0):
        assert clip_global_norm(split_flat(flat, [(2,)]), off) is flat
        assert np.allclose(flat, [0.6, 0.8])


def test_firing_clip_keeps_float32_gradients():
    # the float64 scale must not promote a float32 net's gradients, or Adam
    # would step the float32 net in float64
    flat = np.array([3.0, 4.0, 12.0], dtype=np.float32)
    clipped = clip_global_norm(split_flat(flat, [(2,), (1, 1)]), 1.0)    # norm 13
    assert clipped is flat and clipped.dtype == np.float32
    assert np.allclose(clipped, np.array([3.0, 4.0, 12.0]) / 13.0, rtol=1e-7, atol=0.0)


def test_float32_net_holds_its_float64_twin_weights_rounded():
    dims = [5, 7, 3]
    net64 = Mlp(dims, np.random.default_rng(6))
    net32 = Mlp(dims, np.random.default_rng(6), dtype=np.float32)
    assert net64.dtype == np.float64 and net32.dtype == np.float32
    for p64, p32 in zip(net64.parameters(), net32.parameters()):
        assert np.array_equal(p64.astype(np.float32), p32)
    x = np.random.default_rng(7).normal(size=(4, 5))
    out, cache = net32.forward(x)
    assert out.dtype == np.float32
    grads = net32.backward(cache, np.ones((4, 3)))
    assert all(g.dtype == np.float32 for g in grads)
    assert net32.copy().dtype == np.float32


# ------------------------------------------------------------- flat buffers

def _sigmoid_reference(x):
    """The boolean-mask sigmoid the exp(-|x|) form replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _backward_reference(net, cache, grad_out):
    """Mlp.backward as it was before the flat gradient array: one fresh
    array per parameter, bias gradients through ndarray.sum."""
    acts, pre, head_vals = cache
    if net.head == "identity":
        delta = np.atleast_2d(np.asarray(grad_out, dtype=net.dtype))
    else:
        grad_params, grad_probs = grad_out
        params, probs = head_vals
        nd = net.n_discrete
        delta = np.empty_like(pre)
        delta[:, :nd] = (np.atleast_2d(np.asarray(grad_params, dtype=net.dtype))
                         * params * (1.0 - params))
        gp = np.atleast_2d(np.asarray(grad_probs, dtype=net.dtype))
        delta[:, nd:] = probs * (gp - (gp * probs).sum(axis=1, keepdims=True))
    grads = []
    for i in range(net.n_layers - 1, -1, -1):
        grads.append(delta.sum(axis=0))
        grads.append(delta.T @ acts[i])
        if i > 0:
            delta = (delta @ net.weights[i]) * (acts[i] > 0.0)
    grads.reverse()
    return grads


def _clip_reference(grads, max_norm):
    """clip_global_norm as it was before the flat gradient array, with the
    rescaled arrays rounded back to the gradients' dtype: a rescaled list
    is one new array per gradient array."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm > 0:
        scale = max_norm / total
        grads = [(g * scale).astype(g.dtype) for g in grads]
    return grads


def per_array_steps(net, grads, opts):
    """One optimizer_step per parameter array of net, each with its own
    state: the reference for one step over the flat array."""
    for p, g, opt in zip(net.parameters(), grads, opts, strict=True):
        optimizer_step(p, g, opt)


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view(np.dtype(f"u{a.dtype.itemsize}"))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_equals_masked_reference_bitwise(dtype):
    info = np.finfo(dtype)
    unsigned = np.dtype(f"u{np.dtype(dtype).itemsize}")
    nan_payloads = (np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=unsigned)
                    if dtype is np.float64 else
                    np.array([0x7FC00123, 0xFFC00456], dtype=unsigned)).view(dtype)
    special = np.array([0.0, -0.0, info.tiny, -info.tiny, info.smallest_subnormal,
                        -info.smallest_subnormal, np.inf, -np.inf, np.nan, -np.nan,
                        info.max, -info.max, 80.0, -80.0, 800.0, -800.0], dtype=dtype)
    rng = np.random.default_rng(12)
    scales = rng.choice([1e-30, 1e-6, 1.0, 10.0, 100.0], 4000)
    x = np.concatenate([special, nan_payloads,
                        (rng.normal(size=4000) * scales).astype(dtype)])
    with np.errstate(invalid="ignore"):
        for arr in (x, x.reshape(-1, 2), np.stack([x, x], axis=1)[:, :1]):
            got, want = sigmoid(arr), _sigmoid_reference(arr)
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(_bits(got), _bits(want))


def test_parameters_are_views_into_one_flat_array():
    net = Mlp([4, 6, 3], np.random.default_rng(0), dtype=np.float32)
    params = net.parameters()
    assert net.flat.size == sum(p.size for p in params) == 4 * 6 + 6 + 6 * 3 + 3
    assert [p.shape for p in params] == net.shapes
    assert all(p.base is net.flat for p in params)
    assert np.array_equal(net.flat, np.concatenate([p.ravel() for p in params]))
    net.flat[:] = 0.0
    assert all(np.all(p == 0.0) for p in params)
    twin = net.copy()
    twin.weights[0][:] = 1.0
    assert twin.flat[0] == 1.0 and net.flat[0] == 0.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("head", ["identity", "actor"])
def test_backward_flat_gradients_equal_per_array_backward(dtype, head):
    rng = np.random.default_rng(31)
    net = Mlp([6, 16, 12, 8], rng, head=head, n_discrete=4 if head == "actor" else None,
              dtype=dtype)
    calls = []
    for batch in (1, 32):
        x = rng.normal(size=(batch, 6))
        out, cache = net.forward(x)
        grad_out = (rng.normal(size=(batch, 8)) if head == "identity"
                    else (rng.normal(size=(batch, 4)), rng.normal(size=(batch, 4))))
        grads = net.backward(cache, grad_out)
        want = _backward_reference(net, cache, grad_out)
        assert [g.shape for g in grads] == [w.shape for w in want]
        for g, w in zip(grads, want, strict=True):
            assert g.dtype == w.dtype == dtype
            assert np.array_equal(_bits(g), _bits(w))
            assert g.base is grads[0].base
        assert grads[0].base.size == net.flat.size
        calls.append(([g.copy() for g in grads], grads))
    # the second call wrote a fresh flat array: the first call's views hold
    first_copy, first_views = calls[0]
    assert first_views[0].base is not calls[1][1][0].base
    for kept, view in zip(first_copy, first_views):
        assert np.array_equal(kept, view)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("optimizer", ["adam", "plain_sgd"])
def test_flat_optimizer_step_equals_per_array_steps(dtype, optimizer):
    # one optimizer_step over the flat array against one per parameter
    # array, each with its own state
    def make_opt():
        if optimizer == "plain_sgd":
            return OptimizerState(0.01, beta1=0.0, beta2=0.0)
        return OptimizerState(0.01)
    dims = [7, 16, 9, 5]
    flat_net = Mlp(dims, np.random.default_rng(3), dtype=dtype)
    ref_net = Mlp(dims, np.random.default_rng(3), dtype=dtype)
    flat_opt = make_opt()
    ref_opts = [make_opt() for _ in ref_net.parameters()]
    rng = np.random.default_rng(4)
    for _ in range(50):
        grad = (rng.normal(size=flat_net.flat.size) * 10.0).astype(dtype)
        optimizer_step(flat_net.flat, grad, flat_opt)
        per_array_steps(ref_net, ref_net.split(grad.copy()), ref_opts)
        assert np.array_equal(_bits(flat_net.flat), _bits(ref_net.flat))
    if optimizer == "adam":
        for flat_moment, ref_moments in ((flat_opt.m, [o.m for o in ref_opts]),
                                         (flat_opt.v, [o.v for o in ref_opts])):
            assert flat_moment.shape == flat_net.flat.shape
            assert flat_moment.dtype == dtype
            assert np.array_equal(
                _bits(flat_moment),
                _bits(np.concatenate([a.ravel() for a in ref_moments])))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("max_norm", [1e-3, 1e6], ids=["fires", "holds"])
def test_flat_clipping_equals_per_array_clipping(dtype, max_norm):
    # the flat step on clipped views against the per-array step on the
    # per-array clipped list, dtype included: both keep the gradients' dtype
    dims = [5, 12, 4]
    flat_net = Mlp(dims, np.random.default_rng(5), dtype=dtype)
    ref_net = Mlp(dims, np.random.default_rng(5), dtype=dtype)
    flat_opt = OptimizerState(0.01)
    ref_opts = [OptimizerState(0.01) for _ in ref_net.parameters()]
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.normal(size=(8, 5))
        out, cache = flat_net.forward(x)
        grads = flat_net.backward(cache, rng.normal(size=out.shape))
        want = _clip_reference([g.copy() for g in grads], max_norm)
        flat = clip_global_norm(grads, max_norm)
        assert flat is grads[0].base and flat.size == flat_net.flat.size
        for g, w in zip(flat_net.split(flat), want, strict=True):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(_bits(g), _bits(w))
        optimizer_step(flat_net.flat, flat, flat_opt)
        per_array_steps(ref_net, want, ref_opts)
        assert np.array_equal(_bits(flat_net.flat), _bits(ref_net.flat))
