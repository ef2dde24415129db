"""Layer kernels checked against finite differences and scalar recomputation.

grad_check (central differences, h=1e-5) is the oracle for every analytic
gradient; check_layer_gradients wires it to a layer's inputs and parameters.
The gather/scatter max pool, the fancy-index conv forward, the strided
per-tap conv backward, the np.where ReLU, the boolean-indexed sigmoid and
the LSTM that multiplies its zero start state are kept here as bitwise
oracles for the kernels that replaced them.  So are the kernels before the lean scoring pass: the
.max(axis=2) pool and the four-gate LSTM step with a zero state.  The
inference oracles run tile by tile on an input with a leading tile axis.
"""

import functools
import itertools

import numpy as np
import pytest

from flowsentry import nncore, pipeline
from flowsentry.errors import ParameterError, ShapeError

TOL = 1e-4


def grad_check(forward, params: np.ndarray, analytic: np.ndarray, h=1e-5):
    """Max relative error between analytic gradients and central differences.

    `forward` maps the flat parameter vector to a scalar loss.  Used by the
    test-suite oracles; lives here so every layer is checked the same way.
    """
    params = params.astype(np.float64)
    numeric = np.empty_like(params)
    for j in range(params.size):
        orig = params[j]
        params[j] = orig + h
        up = forward(params)
        params[j] = orig - h
        down = forward(params)
        params[j] = orig
        numeric[j] = (up - down) / (2.0 * h)
    worst = 0.0
    for a, n in zip(analytic.ravel(), numeric.ravel()):
        scale = max(abs(a), abs(n))
        if scale < 1e-7:
            continue
        worst = max(worst, abs(a - n) / scale)
    return worst


def check_layer_gradients(make_layer, x_shape, seed, train=True):
    """Max relative FD error over the layer's input and every parameter.

    Loss is sum(out * R) with a fixed random weighting R, so every output
    element influences the scalar.
    """
    rng = np.random.default_rng(seed)
    layer = make_layer(np.random.default_rng(seed + 1))
    x0 = rng.normal(size=x_shape)
    R = rng.normal(size=layer.forward(x0.copy(), train=train).shape)

    worst = {}

    def run_input(flat):
        out = layer.forward(flat.reshape(x_shape), train=train)
        return float((out * R).sum())

    layer.forward(x0.copy(), train=train)
    dx = layer.backward(R.copy())
    worst["x"] = grad_check(run_input, x0.ravel().copy(), dx.ravel())

    for name in layer.params:
        shape = layer.params[name].shape

        def run_param(flat, name=name, shape=shape):
            saved = layer.params[name].copy()
            layer.params[name][...] = flat.reshape(shape)
            out = layer.forward(x0.copy(), train=train)
            layer.params[name][...] = saved
            return float((out * R).sum())

        layer.forward(x0.copy(), train=train)
        layer.backward(R.copy())
        worst[name] = grad_check(
            run_param, layer.params[name].ravel().copy(), layer.grads[name].ravel())
    return worst


def pool_forward_gather(self, x, train=False):
    """Max pool by window gather and argmax: the bitwise oracle."""
    b, t, c = x.shape
    t_out = self.out_length(t)
    idx = (np.arange(t_out) * self.width)[:, None] + np.arange(self.width)[None, :]
    windows = x[:, idx, :]
    arg = windows.argmax(axis=2)
    y = np.take_along_axis(windows, arg[:, :, None, :], axis=2)[:, :, 0, :]
    self._cache = (x.shape, arg)
    return y


def per_tile(forward):
    """An oracle forward over [b, t, c], run on each tile of an inference
    input with a leading tile axis and stacked, as the layers' own
    forwards must match."""
    @functools.wraps(forward)
    def each(self, x, train=False):
        if x.ndim == 4:
            return np.stack([forward(self, tile, train) for tile in x])
        return forward(self, x, train)
    return each


@per_tile
def pool_forward_max(self, x, train=False):
    """Max pool by .max(axis=2) over the window view: the bitwise oracle."""
    b, t, c = x.shape
    t_out = self.out_length(t)
    windows = x[:, :t_out * self.width].reshape(b, t_out, self.width, c)
    y = windows.max(axis=2)
    self._cache = (x.shape, windows, y)
    return y


def pool_backward_scatter(self, grad):
    """Scatter-add of each window's gradient onto its first maximum."""
    bshape, arg = self._cache
    b, t, c = bshape
    t_out = grad.shape[1]
    dx = np.zeros(bshape)
    time_pos = (np.arange(t_out) * self.width)[None, :, None] + arg
    b_idx = np.broadcast_to(np.arange(b)[:, None, None], arg.shape)
    c_idx = np.broadcast_to(np.arange(c)[None, None, :], arg.shape)
    np.add.at(dx, (b_idx, time_pos, c_idx), grad)
    return dx


@per_tile
def conv_forward_fancy(self, x, train=False):
    """Conv forward by a fancy-index gather, a 3-D matmul and an out-of-place
    bias: the bitwise oracle."""
    b, t, c = x.shape
    if c != self.in_channels:
        raise ShapeError(f"expected {self.in_channels} channels, got {c}")
    t_out = self.out_length(t)
    k = self.kernel_width
    idx = np.arange(t_out)[:, None] + np.arange(k)[None, :]
    windows = x[:, idx, :]                              # [b, t_out, k, c]
    w_mat = self.params["w"].transpose(2, 1, 0).reshape(k * c, self.out_channels)
    y = windows.reshape(b, t_out, k * c) @ w_mat + self.params["b"]
    self._cache = x if train else None
    return y


def conv_backward_strided(self, grad, input_grad=True):
    """Conv backward gathering its windows from the cached input by fancy
    index and multiplying by the strided tap w[:, :, kk]; it always gives
    the input gradient."""
    x = self._cache
    b, t, c = bshape = x.shape
    k = self.kernel_width
    t_out = grad.shape[1]
    idx = np.arange(t_out)[:, None] + np.arange(k)[None, :]
    flat_win = x[:, idx, :].reshape(b * t_out, k * c)
    flat_grad = grad.reshape(b * t_out, self.out_channels)
    dw_mat = flat_win.T @ flat_grad
    self.grads = {
        "w": dw_mat.reshape(k, c, self.out_channels).transpose(2, 1, 0),
        "b": grad.sum(axis=(0, 1)),
    }
    dx = np.zeros(bshape)
    w = self.params["w"]
    for kk in range(k):
        dx[:, kk : kk + t_out, :] += grad @ w[:, :, kk]
    return dx


def relu_forward_where(self, x, train=False):
    """ReLU by np.where on the mask: the bitwise oracle."""
    self._mask = x > 0
    return np.where(self._mask, x, 0.0)


def relu_backward_where(self, grad):
    return np.where(self._mask, grad, 0.0)


def sigmoid_two_branch(z):
    """Sigmoid by boolean-indexed branches: the bitwise oracle."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# Signed zeros, subnormals, the exp() overflow edge, infinities and NaNs of
# both signs.
SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0,
                           36.0, -36.0, 709.0, -709.0, 745.2, -745.2, 800.0, -800.0,
                           np.inf, -np.inf, np.nan, -np.nan])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Conv outputs (pool inputs) of the default network: 22 features (the floor)
# and 31, whose odd lengths leave a step past the last pool window.
DEFAULT_NET_SEQS = [(20, 32), (8, 64), (2, 64), (29, 32), (12, 64), (4, 64), (9, 64), (3, 64)]


# ---------------------------------------------------------------------------
# conv1d


class TestConv1D:
    def test_known_small_case(self):
        conv = nncore.Conv1D(1, 1, 2, rng=np.random.default_rng(0))
        conv.params["w"][...] = np.array([[[1.0, -1.0]]])   # difference filter
        conv.params["b"][...] = 0.0
        x = np.array([[[1.0], [3.0], [2.0], [5.0]]])
        out = conv.forward(x)
        np.testing.assert_allclose(out[0, :, 0], [-2.0, 1.0, -3.0])

    def test_output_length(self):
        conv = nncore.Conv1D(2, 3, 3, rng=np.random.default_rng(0))
        assert conv.out_length(7) == 5
        out = conv.forward(np.zeros((4, 7, 2)))
        assert out.shape == (4, 5, 3)

    def test_too_short_input_raises(self):
        conv = nncore.Conv1D(1, 1, 3, rng=np.random.default_rng(0))
        with pytest.raises(ShapeError):
            conv.forward(np.zeros((1, 2, 1)))

    @pytest.mark.parametrize("seed", range(6))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        t = int(rng.integers(k, k + 5))
        b = int(rng.integers(1, 4))
        worst = check_layer_gradients(
            lambda r: nncore.Conv1D(c_in, c_out, k, rng=r),
            (b, t, c_in), seed)
        assert max(worst.values()) < TOL, worst

    @pytest.mark.parametrize("batch", [256, 32, 7])
    @pytest.mark.parametrize("c_in,c_out,t", [(1, 32, 22), (32, 64, 10), (64, 64, 4),
                                              (1, 32, 31), (32, 64, 14), (64, 64, 6)])
    def test_backward_bitwise_equals_strided_oracle(self, batch, c_in, c_out, t):
        rng = np.random.default_rng(batch + t)
        layer = nncore.Conv1D(c_in, c_out, 3, rng=rng)
        x = rng.normal(size=(batch, t, c_in))
        grad = rng.normal(size=(batch, t - 2, c_out))
        grad[rng.random(grad.shape) < 0.3] *= 0.0            # dropout's signed zeros
        layer.forward(x, train=True)
        dx = layer.backward(grad)
        grads = dict(layer.grads)
        layer.forward(x, train=True)
        dx_oracle = conv_backward_strided(layer, grad)
        assert same_bits(dx, dx_oracle)
        for name in ("w", "b"):
            assert same_bits(grads[name], layer.grads[name]), name
        layer.forward(x, train=True)            # a first layer's backward
        assert layer.backward(grad, input_grad=False) is None
        for name in ("w", "b"):
            assert same_bits(grads[name], layer.grads[name]), name

    # the default network's conv inputs: each DEFAULT_NET_SEQS entry as a
    # width-3 conv's output, from one channel or from a 32- or 64-channel block
    @pytest.mark.parametrize("batch", [1, 7, 32, 256])
    @pytest.mark.parametrize("t,c_in,c_out", [(t + 2, c_in, c) for t, c in DEFAULT_NET_SEQS
                                              for c_in in ((1,) if c == 32 else (32, 64))])
    def test_forward_bitwise_equals_fancy_oracle_but_nan_signs(self, batch, t, c_in, c_out):
        rng = np.random.default_rng(batch * 100 + t + c_in)
        finite = SPECIAL_VALUES[np.isfinite(SPECIAL_VALUES)]
        x = np.round(rng.normal(size=(batch, t, c_in)), 2)
        special = rng.random(x.shape) < 0.05
        x[special] = rng.choice(SPECIAL_VALUES, special.sum())
        x[::3] = rng.choice(finite, x[::3].shape)           # finite rows, signed zeros
        fast = nncore.Conv1D(c_in, c_out, 3, rng=np.random.default_rng(t))
        w, bias = fast.params["w"], fast.params["b"]
        w[rng.random(w.shape) < 0.1] *= 1e-310                # subnormal weights
        w[0] = rng.choice(SPECIAL_VALUES, w[0].shape)          # one filter of NaN/inf
        w[1] = rng.choice([0.0, -0.0], w[1].shape)             # one of signed zeros
        bias[::5] = -0.0
        bias[2] = np.nan
        oracle = nncore.Conv1D(c_in, c_out, 3, params={"w": w.copy(), "b": bias.copy()})
        grad = rng.normal(size=(batch, t - 2, c_out))
        grad[rng.random(grad.shape) < 0.3] *= 0.0
        relu = nncore.ReLU()
        with np.errstate(invalid="ignore", over="ignore"):
            for train in (False, True):
                y = fast.forward(x, train=train)
                y_oracle = conv_forward_fancy(oracle, x, train=train)
                assert y.flags.c_contiguous
                # every bit but a NaN's sign and payload, which the BLAS
                # kernel takes from whichever NaN operand its row block
                # meets first; the ReLU after every conv maps each NaN to +0.0
                nan = np.isnan(y)
                assert same_bits(nan, np.isnan(y_oracle)), train
                assert same_bits(y[~nan], y_oracle[~nan]), train
                assert same_bits(relu.forward(y), relu.forward(y_oracle)), train
            # the cached input feeds the backward the same windows
            assert same_bits(fast.backward(grad), oracle.backward(grad))
            for name in ("w", "b"):
                assert same_bits(fast.grads[name], oracle.grads[name]), name


# ---------------------------------------------------------------------------
# maxpool1d


class TestMaxPool1D:
    def test_known_small_case(self):
        pool = nncore.MaxPool1D(2)
        x = np.array([[[1.0], [3.0], [2.0], [5.0]]])
        np.testing.assert_array_equal(pool.forward(x)[0, :, 0], [3.0, 5.0])

    def test_routing_sends_gradient_to_first_argmax(self):
        pool = nncore.MaxPool1D(2)
        x = np.array([[[2.0], [2.0], [1.0], [5.0]]])     # tie in first window
        pool.forward(x, train=True)
        dx = pool.backward(np.ones((1, 2, 1)))
        np.testing.assert_array_equal(dx[0, :, 0], [1.0, 0.0, 0.0, 1.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 4))
        t = int(rng.integers(width, width + 6))
        shape = (int(rng.integers(1, 4)), t, int(rng.integers(1, 4)))
        worst = check_layer_gradients(lambda r: nncore.MaxPool1D(width),
                                      shape, seed + 100)
        assert max(worst.values()) < TOL, worst

    @staticmethod
    def _check_against_oracle(x, grad, width):
        fast, oracle = nncore.MaxPool1D(width), nncore.MaxPool1D(width)
        y = fast.forward(x, train=True)
        y_oracle = pool_forward_gather(oracle, x, train=True)
        assert same_bits(y, y_oracle)
        assert same_bits(fast.backward(grad), pool_backward_scatter(oracle, grad))

    @pytest.mark.parametrize("batch", [256, 32, 5])
    @pytest.mark.parametrize("t,c,width", [(t, c, w) for t, c in DEFAULT_NET_SEQS
                                           for w in (2, 1, 3) if t >= w])
    def test_bitwise_equals_gather_oracle_on_tie_heavy_input(self, batch, t, c, width):
        rng = np.random.default_rng(batch * 100 + t * 10 + width)
        x = np.maximum(rng.normal(size=(batch, t, c)), 0.0)  # post-ReLU zeros
        x[:, : (t // width) * width : width] = 0.0           # a zero in every window
        x[: batch // 2, 1::2] = x[: batch // 2, 0:t - 1:2]   # equal neighbours
        x[-1] = 0.0                                          # all-zero windows
        x[0, :, 0] = 1.5                                     # constant channel
        grad = rng.normal(size=(batch, (t - width) // width + 1, c))
        grad[rng.random(grad.shape) < 0.3] *= 0.0            # dropout's signed zeros
        self._check_against_oracle(x, grad, width)

    def test_bitwise_equals_gather_oracle_on_random_input(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(256, 29, 32))
        grad = rng.normal(size=(256, 14, 32))
        self._check_against_oracle(x, grad, 2)


# ---------------------------------------------------------------------------
# relu / dropout


class TestReLU:
    def test_clamps_negatives(self):
        relu = nncore.ReLU()
        np.testing.assert_array_equal(
            relu.forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_identity_on_nonnegative(self):
        relu = nncore.ReLU()
        x = np.abs(np.random.default_rng(0).normal(size=(3, 4)))
        np.testing.assert_array_equal(relu.forward(x), x)

    def test_subgradient_zero_at_zero(self):
        relu = nncore.ReLU()
        relu.forward(np.array([0.0, -1.0, 1.0]), train=True)
        np.testing.assert_array_equal(relu.backward(np.ones(3)), [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_away_from_zero(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 5))
        x[np.abs(x) < 0.05] = 0.1      # keep FD clear of the kink
        relu = nncore.ReLU()
        R = rng.normal(size=x.shape)
        relu.forward(x.copy(), train=True)
        dx = relu.backward(R.copy())
        err = grad_check(
            lambda flat: float((relu.forward(flat.reshape(x.shape)) * R).sum()),
            x.ravel().copy(), dx.ravel())
        assert err < TOL

    @staticmethod
    def _check_against_oracle(x, grad):
        fast, oracle = nncore.ReLU(), nncore.ReLU()
        assert same_bits(fast.forward(x.copy(), train=True),
                         relu_forward_where(oracle, x, train=True))
        assert same_bits(fast.backward(grad.copy()), relu_backward_where(oracle, grad))

    @pytest.mark.parametrize("seq", DEFAULT_NET_SEQS[:3])
    @pytest.mark.parametrize("batch", [256, 32, 5])
    def test_bitwise_equals_where_oracle_on_tie_heavy_input(self, batch, seq):
        # conv outputs rounded so that exact zeros, -0.0 and equal values
        # abound; gradients the way the pool hands them back (+0.0 where
        # nothing was routed) and with dropout's signed zeros
        rng = np.random.default_rng(batch + seq[0])
        x = np.round(rng.normal(size=(batch,) + seq), 1)
        x[x == 0.0] *= -1.0
        x[rng.random(x.shape) < 0.1] = 0.0
        grad = np.round(rng.normal(size=x.shape), 1)
        grad[rng.random(grad.shape) < 0.5] = 0.0
        grad[rng.random(grad.shape) < 0.2] *= 0.0
        self._check_against_oracle(x, grad)

    def test_bitwise_equals_where_oracle_on_negative_zero_gradients(self):
        # -0.0 leads: np.fmax may return either zero for the first elements
        x = np.array([[-0.0, -1.0, 0.0, 5e-324, 2.0, -5e-324]])
        for g in (-0.0, 0.0, -1.0, 1.0):
            self._check_against_oracle(x, np.full(x.shape, g))

    def test_bitwise_equals_where_oracle_on_non_finite_values(self):
        x = np.repeat(SPECIAL_VALUES[:, None], len(SPECIAL_VALUES), axis=1)
        grad = x.T.copy()                   # every input against every gradient
        with np.errstate(invalid="ignore"):
            self._check_against_oracle(x, grad)


class TestDropout:
    def test_rate_zero_is_identity_in_both_modes(self):
        drop = nncore.Dropout(0.0)
        x = np.random.default_rng(0).normal(size=(4, 6))
        np.testing.assert_array_equal(drop.forward(x, train=True), x)
        np.testing.assert_array_equal(drop.forward(x, train=False), x)

    def test_infer_mode_is_identity_at_any_rate(self):
        drop = nncore.Dropout(0.7)
        x = np.random.default_rng(1).normal(size=(4, 6))
        np.testing.assert_array_equal(drop.forward(x, train=False), x)

    def test_survivors_scaled_by_keep_probability(self):
        drop = nncore.Dropout(0.25, rng=np.random.default_rng(3))
        x = np.ones((10, 10))
        out = drop.forward(x, train=True)
        survivors = out[out != 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.75)

    def test_zeroed_fraction_matches_rate_within_3_sigma(self):
        rate = 0.3
        n = 100_000
        drop = nncore.Dropout(rate, rng=np.random.default_rng(11))
        out = drop.forward(np.ones(n), train=True)
        zeroed = (out == 0).sum()
        sigma = (n * rate * (1 - rate)) ** 0.5
        assert abs(zeroed - n * rate) < 3 * sigma

    def test_draws_only_from_its_generator_and_only_when_training(self):
        scoring = nncore.Dropout(0.5)
        x = np.ones(8)
        assert scoring.forward(x, train=False) is x and scoring.rng is None
        drop = nncore.Dropout(0.5, rng=np.random.default_rng(0))
        drop.forward(np.ones(8), train=False)          # scoring draws nothing
        want = (np.random.default_rng(0).random(50) >= 0.5) / 0.5
        np.testing.assert_array_equal(drop.forward(np.ones(50), train=True), want)

    def test_backward_reuses_the_forward_mask(self):
        drop = nncore.Dropout(0.5, rng=np.random.default_rng(5))
        x = np.ones((200,))
        out = drop.forward(x, train=True)
        grad = drop.backward(np.ones(200))
        np.testing.assert_array_equal(grad, out)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ParameterError):
            nncore.Dropout(1.0)
        with pytest.raises(ParameterError):
            nncore.Dropout(-0.1)


# ---------------------------------------------------------------------------
# dense


class TestDense:
    def test_affine_map(self):
        dense = nncore.Dense(2, 2, rng=np.random.default_rng(0))
        dense.params["w"][...] = np.array([[1.0, 2.0], [3.0, 4.0]])
        dense.params["b"][...] = np.array([10.0, 20.0])
        out = dense.forward(np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(out, [[14.0, 26.0]])

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        out_dim = int(rng.integers(1, 6))
        worst = check_layer_gradients(
            lambda r: nncore.Dense(shape[1], out_dim, rng=r), shape, seed + 200)
        assert max(worst.values()) < TOL, worst

    def test_glorot_bounds(self):
        dense = nncore.Dense(30, 50, rng=np.random.default_rng(0))
        limit = (6.0 / (30 + 50)) ** 0.5
        assert np.all(np.abs(dense.params["w"]) <= limit)
        np.testing.assert_array_equal(dense.params["b"], np.zeros(50))


# ---------------------------------------------------------------------------
# lstm


def scalar_lstm_step(x, h_prev, c_prev, wxi, wxf, wxg, wxo, whi, whf, whg, who,
                     bi, bf, bg, bo):
    """Independent H=1 reference: the gate equations written out one by one."""
    import math

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    i = sig(x * wxi + h_prev * whi + bi)
    f = sig(x * wxf + h_prev * whf + bf)
    g = math.tanh(x * wxg + h_prev * whg + bg)
    o = sig(x * wxo + h_prev * who + bo)
    c = f * c_prev + i * g
    h = o * math.tanh(c)
    return h, c


@per_tile
def lstm_forward_products(self, x, train=False):
    """The LSTM forward with h_{-1} @ Wh computed and one sigmoid call per
    gate: the bitwise oracle."""
    bsz, T, F = x.shape
    H = self.hidden_size
    wx, wh, bias = self.params["wx"], self.params["wh"], self.params["b"]
    h = np.zeros((bsz, H))
    c = np.zeros((bsz, H))
    steps = []
    hs = np.empty((bsz, T, H))
    for t in range(T):
        z = x[:, t, :] @ wx + h @ wh + bias
        i = nncore._sigmoid(z[:, :H])
        f = nncore._sigmoid(z[:, H:2 * H])
        g = np.tanh(z[:, 2 * H:3 * H])
        o = nncore._sigmoid(z[:, 3 * H:])
        c_prev = c
        c = f * c_prev + i * g
        tc = np.tanh(c)
        steps.append((h, i, f, g, o, c_prev, tc))
        h = o * tc
        hs[:, t, :] = h
    self._cache = (x, steps, hs)
    return hs if self.return_sequences else hs[:, -1, :]


def lstm_backward_products(self, grad):
    """The LSTM backward with every h_prev product, t = 0 included, and dz
    concatenated: the bitwise oracle."""
    x, steps, hs = self._cache
    bsz, T, F = x.shape
    H = self.hidden_size
    wx, wh = self.params["wx"], self.params["wh"]
    if self.return_sequences:
        dh_seq = grad
    else:
        dh_seq = np.zeros((bsz, T, H))
        dh_seq[:, -1, :] = grad
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * H)
    dx = np.empty_like(x)
    dh_next = np.zeros((bsz, H))
    dc_next = np.zeros((bsz, H))
    for t in range(T - 1, -1, -1):
        h_prev, i, f, g, o, c_prev, tc = steps[t]
        dh = dh_seq[:, t, :] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_next = dc * f
        dz = np.concatenate([di * i * (1.0 - i), df * f * (1.0 - f),
                             dg * (1.0 - g * g), do * o * (1.0 - o)], axis=1)
        dwx += x[:, t, :].T @ dz
        dwh += h_prev.T @ dz
        db += dz.sum(axis=0)
        dx[:, t, :] = dz @ wx.T
        dh_next = dz @ wh.T
    self.grads = {"wx": dwx, "wh": dwh, "b": db}
    return dx


class TestLSTM:
    def test_sigmoid_bitwise_equals_two_branch_oracle(self):
        rng = np.random.default_rng(3)
        z = np.concatenate([SPECIAL_VALUES, rng.normal(scale=10.0, size=20_000),
                            rng.normal(scale=1e-3, size=1_000), -np.zeros(3)])
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(nncore._sigmoid(z), sigmoid_two_branch(z))
        # the LSTM takes each gate as a column slice of [b, 4H]
        gates = rng.normal(scale=4.0, size=(256, 4 * 64))
        for k in range(4):
            zk = gates[:, k * 64:(k + 1) * 64]
            assert same_bits(nncore._sigmoid(zk), sigmoid_two_branch(zk))

    def test_single_step_matches_scalar_reference(self):
        lstm = nncore.LSTM(1, 1, return_sequences=True, rng=np.random.default_rng(0))
        wxi, wxf, wxg, wxo = 0.3, -0.2, 0.5, 0.1
        whi, whf, whg, who = 0.7, 0.4, -0.6, 0.2
        bi, bf, bg, bo = 0.05, 1.0, -0.1, 0.3
        lstm.params["wx"][...] = np.array([[wxi, wxf, wxg, wxo]])
        lstm.params["wh"][...] = np.array([[whi, whf, whg, who]])
        lstm.params["b"][...] = np.array([bi, bf, bg, bo])
        x = 0.8
        out = lstm.forward(np.array([[[x]]]))
        h_ref, _ = scalar_lstm_step(x, 0.0, 0.0, wxi, wxf, wxg, wxo,
                                    whi, whf, whg, who, bi, bf, bg, bo)
        assert out[0, 0, 0] == pytest.approx(h_ref, abs=1e-12)

    def test_two_steps_match_chained_scalar_reference(self):
        lstm = nncore.LSTM(1, 1, return_sequences=True, rng=np.random.default_rng(0))
        w = {k: float(v) for k, v in zip(
            "wxi wxf wxg wxo".split(), lstm.params["wx"][0])}
        w.update({k: float(v) for k, v in zip(
            "whi whf whg who".split(), lstm.params["wh"][0])})
        w.update({k: float(v) for k, v in zip(
            "bi bf bg bo".split(), lstm.params["b"])})
        xs = [0.5, -1.2]
        out = lstm.forward(np.array([[[xs[0]], [xs[1]]]]))
        h, c = 0.0, 0.0
        for t, x in enumerate(xs):
            h, c = scalar_lstm_step(x, h, c, w["wxi"], w["wxf"], w["wxg"], w["wxo"],
                                    w["whi"], w["whf"], w["whg"], w["who"],
                                    w["bi"], w["bf"], w["bg"], w["bo"])
            assert out[0, t, 0] == pytest.approx(h, abs=1e-12)

    def test_forget_bias_initialized_to_one(self):
        lstm = nncore.LSTM(3, 4, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(lstm.params["b"][4:8], np.ones(4))
        assert np.all(lstm.params["b"][:4] == 0)
        assert np.all(lstm.params["b"][8:] == 0)

    def test_last_step_mode_shape(self):
        lstm = nncore.LSTM(2, 5, return_sequences=False, rng=np.random.default_rng(0))
        out = lstm.forward(np.zeros((3, 4, 2)))
        assert out.shape == (3, 5)

    # the default network's LSTM stack at 22, 31 and 40 features: T = 1, 2, 3
    @pytest.mark.parametrize("T", [1, 2, 3])
    @pytest.mark.parametrize("sizes", [(64, 64, True), (64, 32, False), (5, 3, True)])
    def test_bitwise_equals_products_oracle(self, T, sizes):
        f, hidden, seq = sizes
        rng = np.random.default_rng(T * 10 + f)
        fast = nncore.LSTM(f, hidden, return_sequences=seq, rng=np.random.default_rng(1))
        oracle = nncore.LSTM(f, hidden, return_sequences=seq, rng=np.random.default_rng(1))
        for layer in (fast, oracle):                # a -0.0 bias entry, as a
            layer.params["b"][::7] = -0.0           # loaded model may hold
        for batch in (256, 32, 5):
            x = np.round(rng.normal(size=(batch, T, f)), 1)
            x[:, :, ::4] = 0.0                      # ReLU'd and pooled inputs
            x[::3, :, 1::5] = -0.0
            y = fast.forward(x, train=True)
            assert same_bits(y, lstm_forward_products(oracle, x, train=True))
            grad = rng.normal(size=y.shape)
            grad[::2] = 0.0
            grad[1::4] = -0.0
            grad[:, ::3] = -0.0
            assert same_bits(fast.backward(grad.copy()), lstm_backward_products(oracle, grad))
            for name in ("wx", "wh", "b"):
                assert same_bits(fast.grads[name], oracle.grads[name]), name

    def test_all_zero_gradient_gives_positive_zero_wh_gradient(self):
        layer = nncore.LSTM(3, 4, rng=np.random.default_rng(0))
        layer.forward(np.ones((2, 1, 3)), train=True)
        layer.backward(np.full((2, 4), -0.0))
        assert not np.signbit(layer.grads["wh"]).any()

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_sequence_mode(self, seed):
        rng = np.random.default_rng(seed)
        f, h = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 5)), f)
        worst = check_layer_gradients(
            lambda r: nncore.LSTM(f, h, return_sequences=True, rng=r),
            shape, seed + 300)
        assert max(worst.values()) < TOL, worst

    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_last_step_mode(self, seed):
        # small instance: 4 steps, hidden 3
        shape = (2, 4, 2)
        worst = check_layer_gradients(
            lambda r: nncore.LSTM(2, 3, return_sequences=False, rng=r),
            shape, seed + 400)
        assert max(worst.values()) < TOL, worst


# ---------------------------------------------------------------------------
# inference pass: no training state, the same bits


LAYERS = {
    "Conv1D": (lambda: nncore.Conv1D(2, 3, 2, rng=np.random.default_rng(0)), (2, 5, 2)),
    "ReLU": (nncore.ReLU, (2, 5, 3)),
    "MaxPool1D": (lambda: nncore.MaxPool1D(2), (2, 5, 3)),
    "LSTM": (lambda: nncore.LSTM(3, 4, return_sequences=True,
                                 rng=np.random.default_rng(0)), (2, 3, 3)),
    "Dense": (lambda: nncore.Dense(3, 2, rng=np.random.default_rng(0)), (2, 3)),
}


@pytest.mark.parametrize("kind", sorted(LAYERS))
def test_backward_needs_a_training_forward(kind):
    make, shape = LAYERS[kind]
    x = np.random.default_rng(1).normal(size=shape)
    grad = np.ones_like(make().forward(x))
    layer = make()
    with pytest.raises(ParameterError, match=rf"^{kind}\.backward needs a forward\(x, train=True\)"):
        layer.backward(grad)
    layer.forward(x, train=True)
    assert layer.backward(grad).shape == x.shape
    with pytest.raises(ParameterError, match=kind):     # the backward released it
        layer.backward(grad)
    layer.forward(x, train=True)
    layer.forward(x, train=False)           # an inference pass drops the training cache
    with pytest.raises(ParameterError, match=kind):
        layer.backward(grad)


def test_dropout_backward_stays_the_identity_without_a_training_forward():
    drop = nncore.Dropout(0.5, rng=np.random.default_rng(0))
    grad = np.random.default_rng(1).normal(size=(3, 4))
    assert drop.backward(grad) is grad
    drop.forward(grad, train=False)
    assert drop.backward(grad) is grad


def _predict_with_inference_oracles(net, X, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(nncore.Conv1D, "forward", conv_forward_fancy)
        patch.setattr(nncore.MaxPool1D, "forward", pool_forward_max)
        patch.setattr(nncore.LSTM, "forward", lstm_forward_products)
        return net.predict_proba(X)


def _awkward_inputs(n_features, seed):
    """Random rows with all-zero, all-one and repeated rows among them, 45
    of them so that the second tile is padded; an all-zero and an all-one
    input; and a single row."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0.5, 0.6, size=(45, n_features))
    X[0] = 0.0
    X[1] = 1.0
    X[20:26] = X[19]
    X[40:] = X[2]
    X[30, ::3] = -0.0
    return [X, np.zeros((33, n_features)), np.ones((32, n_features)), X[5:6]]


# 22 features leave the default LSTMs 1 step, 40 leave them 3
@pytest.mark.parametrize("n_features", [22, 40])
def test_default_network_infers_bitwise_as_with_oracle_kernels(n_features, monkeypatch):
    net = pipeline.CnnLstmModel(pipeline.ModelConfig(), n_features, 7)
    for X in _awkward_inputs(n_features, n_features):
        assert same_bits(net.predict_proba(X), _predict_with_inference_oracles(net, X, monkeypatch))


def test_fixture_model_infers_bitwise_as_with_oracle_kernels(tiny_model, monkeypatch):
    net = tiny_model["tm"].net                  # 31 features: LSTM length 6
    for X in [tiny_model["test"].matrix] + _awkward_inputs(net.n_features, 5):
        assert same_bits(net.predict_proba(X), _predict_with_inference_oracles(net, X, monkeypatch))


# ---------------------------------------------------------------------------
# passes of several tiles: one inference forward over [tiles, rows, ...]


TILE_LAYERS = {
    "Conv1D": (lambda: nncore.Conv1D(3, 5, 3, rng=np.random.default_rng(4)), (9, 3)),
    "MaxPool1D-1": (lambda: nncore.MaxPool1D(1), (7, 3)),
    "MaxPool1D-2": (lambda: nncore.MaxPool1D(2), (7, 3)),
    "MaxPool1D-3": (lambda: nncore.MaxPool1D(3), (7, 3)),
    "ReLU": (nncore.ReLU, (7, 3)),
    "LSTM-sequences": (lambda: nncore.LSTM(3, 4, return_sequences=True,
                                           rng=np.random.default_rng(5)), (3, 3)),
    "LSTM-last": (lambda: nncore.LSTM(3, 4, return_sequences=False,
                                      rng=np.random.default_rng(6)), (3, 3)),
    "Dense": (lambda: nncore.Dense(3, 7, rng=np.random.default_rng(7)), (3,)),
}


@pytest.mark.parametrize("kind", sorted(TILE_LAYERS))
def test_inference_forward_over_tiles_equals_stacked_tile_forwards(kind):
    make, shape = TILE_LAYERS[kind]
    rng = np.random.default_rng(len(kind))
    x = np.round(rng.normal(size=(3, pipeline.TILE_ROWS) + shape), 1)
    x[..., ::4] = 0.0
    x[1, ::3, ..., 1::2] = -0.0
    x[2, 5] = x[0, 5]                       # the same row in two tiles
    layer = make()
    stacked = np.stack([layer.forward(tile, train=False) for tile in x])
    assert same_bits(layer.forward(x, train=False), stacked)


def _tile_forwards(net, X):
    """predict_proba as one 2-D forward pass and softmax per TILE_ROWS-row
    tile, the last one padded with its final row."""
    n, rows = len(X), pipeline.TILE_ROWS
    out = []
    for s in range(0, n, rows):
        tile = X[s:s + rows]
        tile = np.concatenate([tile, np.repeat(tile[-1:], rows - len(tile), axis=0)])
        out.append(nncore.softmax(net.forward_logits(tile, train=False))[:n - s])
    return np.concatenate(out)


# every pass length up to two tiles and past it: 1 and 31 rows pad a
# one-tile pass, 33 and 63 a two-tile one, 65 and 97 leave a short last pass
PASS_ROWS = [1, 31, 32, 33, 63, 64, 65, 97, 129, 200]


def _pass_nets(tiny_model):
    yield tiny_model["tm"].net
    for n_features in (22, 40):                 # default LSTM lengths 1 and 3
        yield pipeline.CnnLstmModel(pipeline.ModelConfig(), n_features, 7)


def test_predict_proba_passes_equal_one_forward_per_tile(tiny_model):
    assert pipeline.PASS_TILES >= 2
    for net in _pass_nets(tiny_model):
        pool = np.concatenate(_awkward_inputs(net.n_features, 1)
                              + _awkward_inputs(net.n_features, 2))
        for n in PASS_ROWS:
            X = pool[-n:]
            assert same_bits(net.predict_proba(X), _tile_forwards(net, X)), n


@pytest.mark.parametrize("width", [1, 2, 3])
def test_pool_bitwise_equals_max_oracle_on_signed_zeros_and_nan(width):
    # every ordered combination of the special values inside one window,
    # in 3 channels, and one step past the last window
    grid = np.array(list(itertools.product(SPECIAL_VALUES, repeat=width)))
    x = np.repeat(np.append(grid.ravel(), 7.0)[None, :, None], 3, axis=2)
    x[:, :, 1] *= -1.0
    x[:, :, 2] = x[:, ::-1, 0]
    fast, oracle = nncore.MaxPool1D(width), nncore.MaxPool1D(width)
    with np.errstate(invalid="ignore"):
        y = pool_forward_max(oracle, x)
        assert same_bits(fast.forward(x, train=False), y)
        assert same_bits(fast.forward(x, train=True), y)


def _special_lstm_pair(seed):
    fast = nncore.LSTM(2, 3, return_sequences=True, rng=np.random.default_rng(seed))
    oracle = nncore.LSTM(2, 3, return_sequences=True, rng=np.random.default_rng(seed))
    return fast, oracle


def test_lstm_inference_bitwise_equals_products_oracle_on_signed_zeros():
    finite = SPECIAL_VALUES[np.isfinite(SPECIAL_VALUES)]
    pairs = np.array(list(itertools.product(finite, repeat=2)))
    x = np.stack([pairs, pairs[::-1]], axis=1)              # [b, T = 2, 2]
    fast, oracle = _special_lstm_pair(0)
    for layer in (fast, oracle):
        layer.params["b"][::2] = -0.0
        layer.params["wx"][0, ::3] = -0.0
    with np.errstate(over="ignore"):
        assert same_bits(fast.forward(x, train=False), lstm_forward_products(oracle, x))
        assert same_bits(fast.forward(x[:, :1], train=False),
                         lstm_forward_products(oracle, x[:, :1]))


def test_lstm_inference_nan_outside_the_forget_gate_matches_the_oracle():
    x = np.random.default_rng(2).normal(size=(4, 2, 2))
    fast, oracle = _special_lstm_pair(1)
    for layer in (fast, oracle):
        layer.params["b"][0] = np.nan               # input gate
        layer.params["b"][7] = -np.nan              # candidate
        layer.params["b"][10] = np.inf              # output gate
        layer.params["b"][4] = np.inf               # forget gate, finite f
    with np.errstate(invalid="ignore"):
        assert same_bits(fast.forward(x, train=False), lstm_forward_products(oracle, x))


@pytest.mark.parametrize("T", [1, 2, 3])
def test_lstm_training_and_scoring_forwards_are_bitwise_equal(T):
    finite = SPECIAL_VALUES[np.isfinite(SPECIAL_VALUES)]
    pairs = np.array(list(itertools.product(finite, repeat=2)))
    x = np.stack([pairs, pairs[::-1], pairs[::3].repeat(3, axis=0)[:len(pairs)]],
                 axis=1)[:, :T]                                # [b, T, 2]
    fast, _ = _special_lstm_pair(0)
    fast.params["b"][::2] = -0.0
    fast.params["wx"][0, ::3] = -0.0
    with np.errstate(over="ignore"):
        assert same_bits(fast.forward(x, train=True), fast.forward(x, train=False))


def test_lstm_skips_a_nan_forget_gate_at_t0_in_both_modes():
    x = np.random.default_rng(3).normal(size=(4, 1, 2))
    fast, oracle = _special_lstm_pair(2)
    for layer in (fast, oracle):
        layer.params["b"][3] = np.nan               # forget gate of unit 0
    with np.errstate(invalid="ignore"):
        lean = fast.forward(x, train=False)
        trained = fast.forward(x, train=True)
        full = lstm_forward_products(oracle, x)
    assert same_bits(trained, lean)
    assert np.isnan(full[:, 0, 0]).all() and np.isfinite(lean[:, 0, 0]).all()
    assert same_bits(lean[:, 0, 1:], full[:, 0, 1:])
    assert np.isfinite(fast.backward(np.ones_like(trained))).all()


# ---------------------------------------------------------------------------
# softmax / cross-entropy


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_uniform_distribution(self):
        out = nncore.softmax(np.zeros((1, 4)))
        np.testing.assert_allclose(out, np.full((1, 4), 0.25))

    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(6, 5)) * 10
        out = nncore.softmax(logits)
        np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-12)

    def test_shift_invariance(self):
        logits = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_allclose(
            nncore.softmax(logits), nncore.softmax(logits + 1000.0), atol=1e-12)

    def test_perfect_prediction_loss_near_zero(self):
        probs = np.array([[1.0, 0.0, 0.0]])
        targets = np.array([[1.0, 0.0, 0.0]])
        loss, _ = nncore.cross_entropy(probs, targets)
        # the log epsilon leaves a residual of about -1e-12
        assert abs(loss) < 1e-11

    def test_known_loss_value(self):
        probs = np.array([[0.5, 0.5]])
        targets = np.array([[1.0, 0.0]])
        loss, _ = nncore.cross_entropy(probs, targets)
        assert loss == pytest.approx(np.log(2.0), abs=1e-9)

    def test_fused_gradient_matches_fd_through_softmax(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 5))
        targets = np.zeros((4, 5))
        targets[np.arange(4), rng.integers(0, 5, size=4)] = 1.0

        def loss_of(flat):
            p = nncore.softmax(flat.reshape(4, 5))
            return nncore.cross_entropy(p, targets)[0]

        probs = nncore.softmax(logits)
        _, dlogits = nncore.cross_entropy(probs, targets)
        err = grad_check(loss_of, logits.ravel().copy(), dlogits.ravel())
        assert err < TOL

    def test_nan_row_rejected(self):
        from flowsentry.errors import InputError

        probs = np.array([[0.5, 0.5], [np.nan, np.nan]])
        with pytest.raises(InputError, match="probability rows must sum to 1"):
            nncore.cross_entropy(probs, np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_malformed_targets_rejected(self):
        from flowsentry.errors import InputError

        probs = np.full((2, 2), 0.5)
        with pytest.raises(InputError):
            nncore.cross_entropy(probs, np.array([[0.5, 0.5], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# adam


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = {"w": np.array([1.0, -2.0])}
        opt = nncore.Adam(p, lr=0.1)
        opt.step({"w": np.zeros(2)})
        np.testing.assert_array_equal(p["w"], [1.0, -2.0])

    def test_three_steps_shrink_quadratic(self):
        # minimize theta^2; gradient 2*theta
        p = {"t": np.array([1.0])}
        opt = nncore.Adam(p, lr=0.1)
        seen = [1.0]
        for _ in range(3):
            opt.step({"t": 2.0 * p["t"]})
            seen.append(abs(float(p["t"][0])))
        assert seen[1] < seen[0] and seen[2] < seen[1] and seen[3] < seen[2]

    def test_first_step_size_is_learning_rate(self):
        # bias correction makes the first update exactly lr * sign(grad)
        p = {"t": np.array([0.0])}
        opt = nncore.Adam(p, lr=0.05)
        opt.step({"t": np.array([3.0])})
        assert p["t"][0] == pytest.approx(-0.05, rel=1e-6)

    @pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ParameterError, match="learning rate must be a finite number > 0"):
            nncore.Adam({"w": np.zeros(3)}, lr=lr)

    def test_shape_mismatch_rejected(self):
        opt = nncore.Adam({"w": np.zeros(3)})
        with pytest.raises(ShapeError):
            opt.step({"w": np.zeros(4)})

    def test_state_mirrors_parameter_shapes(self):
        p = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
        opt = nncore.Adam(p)
        opt.step({"a": np.ones((2, 3)), "b": np.ones(4)})
        assert opt.m["a"].shape == (2, 3) and opt.v["b"].shape == (4,)


# ---------------------------------------------------------------------------
# initialization


def test_glorot_uniform_bounds_and_determinism():
    limit = (6.0 / (20 + 30)) ** 0.5
    a = nncore.glorot_uniform((20, 30), 20, 30, np.random.default_rng(5))
    b = nncore.glorot_uniform((20, 30), 20, 30, np.random.default_rng(5))
    assert np.all(np.abs(a) <= limit)
    np.testing.assert_array_equal(a, b)


def _train_with_and_without_oracles(tiny_model, monkeypatch, n_features):
    """Named parameters after two epochs of the default architecture on the
    fixture's columns (repeated past its 31), as shipped and with the oracle
    kernels."""
    train = tiny_model["train"]
    matrix = np.hstack([train.matrix, train.matrix])[:, :n_features]
    config = pipeline.ModelConfig(epochs=2)

    def trained_params():
        net = pipeline.CnnLstmModel(config, n_features, len(train.class_names))
        pipeline.train_model(net, matrix, train.labels)
        return net.named_params()

    fast = trained_params()
    with monkeypatch.context() as patch:
        patch.setattr(nncore.MaxPool1D, "forward", pool_forward_gather)
        patch.setattr(nncore.MaxPool1D, "backward", pool_backward_scatter)
        patch.setattr(nncore.Conv1D, "forward", conv_forward_fancy)
        patch.setattr(nncore.Conv1D, "backward", conv_backward_strided)
        patch.setattr(nncore.ReLU, "forward", relu_forward_where)
        patch.setattr(nncore.ReLU, "backward", relu_backward_where)
        patch.setattr(nncore, "_sigmoid", sigmoid_two_branch)
        patch.setattr(nncore.LSTM, "forward", lstm_forward_products)
        patch.setattr(nncore.LSTM, "backward", lstm_backward_products)
        oracle = trained_params()
    return fast, oracle


def test_default_network_trains_bitwise_as_with_oracle_kernels(tiny_model, monkeypatch):
    """Two epochs of the default architecture at the fixture's 31 features
    (LSTM length 2), once as shipped and once with the oracle pool, conv,
    ReLU, sigmoid and LSTM kernels, give bitwise-equal weights."""
    fast, oracle = _train_with_and_without_oracles(tiny_model, monkeypatch, 31)
    assert fast.keys() == oracle.keys()
    for name in fast:
        assert same_bits(fast[name], oracle[name]), name


# 22 features leave the LSTMs 1 step, 40 leave them 3
@pytest.mark.parametrize("n_features", [22, 40])
def test_default_network_trains_bitwise_at_other_lstm_lengths(tiny_model, monkeypatch,
                                                              n_features):
    fast, oracle = _train_with_and_without_oracles(tiny_model, monkeypatch, n_features)
    assert fast.keys() == oracle.keys()
    for name in fast:
        assert same_bits(fast[name], oracle[name]), name
