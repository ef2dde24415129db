"""Minimal deterministic neural-network kernel.

Everything is float64 and batch-first: sequence tensors are [batch, time,
channels], flat tensors [batch, features].  Only a forward with train=True
caches what the layer's exact analytic backward pass needs; there is no
autograd.  A backward consumes that cache: it releases it, so a training
step holds one step's activations and no batch outlives training.  An
inference forward (train=False) caches nothing, and where it takes a
shortcut the layer's docstring says why the bits stay the same.
It also takes tensors with a leading tile axis, [tiles, batch, time,
channels]: every matmul then runs one GEMM per tile at the shape a single
[batch, time, channels] forward gives it, so each tile's outputs keep the
bits of that forward, while each elementwise op runs once for all tiles.
All randomness flows through numpy Generators (PCG64) handed in explicitly,
so identical seeds give bit-identical runs.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, ParameterError, ShapeError

LOG_EPS = 1e-12        # floor inside the cross-entropy log
ADAM_BETA1 = 0.9       # decay of the first-moment estimate
ADAM_BETA2 = 0.999     # decay of the second-moment estimate
ADAM_EPS = 1e-8        # added outside the square root


def glorot_uniform(shape, fan_in, fan_out, rng) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _sigmoid(z):
    # exp() only of -|z|, so it never overflows (the minimum keeps a NaN's
    # sign bit, as -abs would not).  Each entry is the formula the sign of z
    # calls for, 1 / (1 + e) or e / (1 + e): the numerator is picked first,
    # so one division serves both
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class Layer:
    """Common surface: forward(x, train=True) caches what backward reads,
    and backward consumes it, so a second backward raises; forward(x,
    train=False) is a pure inference pass that caches nothing and drops an
    earlier training cache, so a backward after it raises too.

    A layer with parameters takes them ready-made (`params`, arrays shaped
    as `param_shapes()` says, used as they are) or draws its initial ones
    from `rng` in `_init`."""

    params: dict
    grads: dict

    def __init__(self):
        self.params = {}
        self.grads = {}
        self._cache = None

    def param_shapes(self) -> dict:
        return {}

    def _take(self, params, rng) -> dict:
        return params if params is not None else self._init(rng)

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError

    def _saved(self):
        """The cache of the last forward, which must have been a training one,
        handed over and released."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise ParameterError(
                f"{type(self).__name__}.backward needs a forward(x, train=True) first")
        return cache


class Conv1D(Layer):
    """Valid-padding 1-D convolution.

    out[b, t, o] = bias[o] + sum_{k, c} w[o, c, k] * in[b, t + k, c]

    A forward lowers the convolution to one GEMM (Chetlur et al., "cuDNN",
    2014): np.take gathers every window into one contiguous [b, t_out, k, c]
    array, so its [b * t_out, k * c] reshape is a view, and that matrix times
    the [k * c, o] weights is the call's one product (one per tile when an
    inference forward has a leading tile axis); the bias is then added in
    place.  A training forward caches only its input, which the layer before
    returned anyway; the backward gathers the same contiguous windows again
    with the same np.take, so its reshape is a view too.  Every finite or
    infinite output and every signed zero has the bits of the former
    fancy-index gather x[:, idx, :] and its per-sample [t_out, k * c]
    products, as the oracle tests check on the default network's shapes.
    Only a NaN's sign and payload can differ, where NaNs of different bits
    meet in one dot product: the BLAS kernel passes on whichever NaN operand
    its row block meets first.  Every Conv1D in the model feeds a ReLU, which
    maps each NaN to +0.0.
    """

    def __init__(self, in_channels, out_channels, kernel_width, rng=None, params=None):
        super().__init__()
        if kernel_width < 1:
            raise ParameterError("kernel_width must be >= 1")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_width = kernel_width
        self.params = self._take(params, rng)

    def param_shapes(self) -> dict:
        o, c, k = self.out_channels, self.in_channels, self.kernel_width
        return {"w": (o, c, k), "b": (o,)}

    def _init(self, rng) -> dict:
        o, c, k = self.out_channels, self.in_channels, self.kernel_width
        return {"w": glorot_uniform((o, c, k), c * k, o * k, rng), "b": np.zeros(o)}

    def out_length(self, t: int) -> int:
        if t < self.kernel_width:
            raise ShapeError(
                f"input length {t} shorter than kernel width {self.kernel_width}"
            )
        return t - self.kernel_width + 1

    def forward(self, x, train=False):
        *lead, b, t, c = x.shape
        if c != self.in_channels:
            raise ShapeError(f"expected {self.in_channels} channels, got {c}")
        t_out = self.out_length(t)
        k, o = self.kernel_width, self.out_channels
        windows = self._windows(x, t_out)                   # [..., b, t_out, k, c]
        # w_mat is rebuilt on every call: Adam updates params["w"] in place
        w_mat = self.params["w"].transpose(2, 1, 0).reshape(k * c, o)
        # one [b * t_out, k * c] product per tile of a leading tile axis
        y = windows.reshape(*lead, b * t_out, k * c) @ w_mat
        y += self.params["b"]
        self._cache = x if train else None
        return y.reshape(*lead, b, t_out, o)

    def _windows(self, x, t_out):
        idx = np.arange(t_out)[:, None] + np.arange(self.kernel_width)[None, :]
        return np.take(x, idx, axis=-2)

    def backward(self, grad, input_grad=True):
        """The parameter gradients, and the input gradient, or None without
        `input_grad` (a first layer, whose input is the data)."""
        x = self._saved()
        b, t, c = bshape = x.shape
        k = self.kernel_width
        t_out = grad.shape[1]
        flat_win = self._windows(x, t_out).reshape(b * t_out, k * c)
        flat_grad = grad.reshape(b * t_out, self.out_channels)
        dw_mat = flat_win.T @ flat_grad                     # [k*c, o]
        self.grads = {
            "w": dw_mat.reshape(k, c, self.out_channels).transpose(2, 1, 0),
            "b": grad.sum(axis=(0, 1)),
        }
        if not input_grad:
            return None
        dx = np.zeros(bshape)
        w = self.params["w"]
        for kk in range(k):
            # every window touches in[t + kk].  A contiguous tap reaches
            # BLAS; the strided w[:, :, kk] does not.
            dx[:, kk : kk + t_out, :] += grad @ np.ascontiguousarray(w[:, :, kk])
        return dx


class MaxPool1D(Layer):
    """Non-padded max pooling over disjoint windows (stride = width); the
    gradient routes to the first maximum per window.  A training forward
    caches a boolean mask of each window's first maximum, not its input."""

    def __init__(self, width):
        super().__init__()
        if width < 1:
            raise ParameterError("pool width must be >= 1")
        self.width = width

    def out_length(self, t: int) -> int:
        if t < self.width:
            raise ShapeError(f"input length {t} shorter than pool width {self.width}")
        return t // self.width

    def forward(self, x, train=False):
        *lead, t, c = x.shape
        t_out = self.out_length(t)
        w = self.width
        # a reshape view instead of a gather
        windows = x[..., :t_out * w, :].reshape(*lead, t_out, w, c)
        # max(axis=-2) reduces the window's columns in order, each step
        # np.maximum(max so far, next column); the chain does the same steps
        # without the reduction's set-up, ties and NaNs included
        y = windows[..., 0, :].copy()
        for j in range(1, w):
            np.maximum(y, windows[..., j, :], out=y)
        if train:
            first = windows == y[..., None, :]              # [..., t_out, w, c]
            taken = first[..., 0, :].copy()
            for j in range(1, w):                           # first max on ties
                first[..., j, :] &= ~taken
                taken |= first[..., j, :]
            self._cache = (x.shape, first)
        else:
            self._cache = None
        return y

    def backward(self, grad):
        bshape, first = self._saved()
        b, t, c = bshape
        t_out = grad.shape[1]
        w = self.width
        # g * 0 + 0.0 is +0.0 and g * 1 + 0.0 is 0.0 + g: for finite g,
        # exactly what a scatter-add into zeros gives, and a multiply by
        # the mask runs several times faster than np.where on it
        dx = (first * grad[:, :, None, :]).reshape(b, t_out * w, c)
        dx += 0.0
        if t > t_out * w:                   # steps past the last window
            dx = np.concatenate([dx, np.zeros((b, t - t_out * w, c))], axis=1)
        return dx


class ReLU(Layer):
    """max(x, 0), exactly as np.where(x > 0, x, 0.0): +0.0 for every
    inactive unit, -0.0 and NaN included; the gradient passes where x > 0.
    A training forward caches that mask, not its output."""

    def forward(self, x, train=False):
        y = np.fmax(x, 0.0)         # fmax turns NaN into 0.0, and -0.0 into
        y += 0.0                    # either zero, which + 0.0 makes +0.0
        self._cache = y > 0 if train else None
        return y

    def backward(self, grad):
        # grad's bits ANDed with all ones where the unit was active and all
        # zeros elsewhere: np.where(x > 0, grad, 0.0) bit for bit, signed
        # zeros and NaN included, at the cost of a multiply
        keep = self._saved().astype(np.int64)
        np.negative(keep, out=keep)
        keep &= grad.view(np.int64)
        return keep.view(np.float64)


class Dropout(Layer):
    """Inverted dropout: active units are rescaled by 1/(1-rate) at train time
    so inference is the identity."""

    def __init__(self, rate, rng=None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ParameterError(f"dropout rate {rate} outside [0, 1)")
        self.rate = rate
        self.rng = rng          # None: a layer that only scores

    def forward(self, x, train=False):
        if not train or self.rate == 0.0:
            self._cache = None
            return x
        keep = 1.0 - self.rate
        self._cache = (self.rng.random(x.shape) >= self.rate) / keep   # the mask
        return x * self._cache

    def backward(self, grad):
        if self._cache is None:             # identity without a training mask
            return grad
        return grad * self._cache


class Dense(Layer):
    def __init__(self, in_dim, out_dim, rng=None, params=None):
        super().__init__()
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.params = self._take(params, rng)

    def param_shapes(self) -> dict:
        return {"w": (self.in_dim, self.out_dim), "b": (self.out_dim,)}

    def _init(self, rng) -> dict:
        i, o = self.in_dim, self.out_dim
        return {"w": glorot_uniform((i, o), i, o, rng), "b": np.zeros(o)}

    def forward(self, x, train=False):
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"expected {self.in_dim} inputs, got {x.shape[-1]}")
        self._cache = x if train else None
        return x @ self.params["w"] + self.params["b"]

    def backward(self, grad):
        self.grads = {
            "w": self._saved().T @ grad,
            "b": grad.sum(axis=0),
        }
        return grad @ self.params["w"].T


class LSTM(Layer):
    """Single-direction LSTM with standard gating.

    z = x_t Wx + h_{t-1} Wh + b, gate slices ordered (input, forget,
    candidate, output); c_t = f*c + i*g, h_t = o*tanh(c_t).  Initial h and c
    are zero.  Weights init uniform +-1/sqrt(hidden); forget bias starts at 1.

    No zero state is built as an array.  h_{-1} is None and enters no
    product: at t = 0 the forward skips h @ Wh, and the backward skips
    h_{-1}.T @ dz and the dh it would pass back.  With finite Wh and dz those
    products are all +0.0, and the results stay bit for bit what adding them
    gave: dWh starts at +0.0, so none of its entries is ever -0.0 for a +0.0
    to turn into +0.0.  With a NaN or inf in Wh or dz the products gave NaN.

    c_{-1} and the forget gate at t = 0 are the scalar +0.0, so training and
    scoring take the same first step: no forget gate, and c_0 = i*g + 0.0.
    f is a sigmoid, in [0, 1] even where z is infinite, so f * c_{-1} was
    +0.0, and the backward's (dc * 0) * f * (1 - f) had the bits of dc * 0,
    as it has with f = +0.0.  With a NaN in the forget slice of z the
    products gave NaN.  Each c_t is i*g + f*c, in that order, so where both
    terms are NaNs of different payloads c_t keeps the first one's.  The
    backward starts from dh = dc = +0.0 past the last step, and when only
    the last step is returned every earlier step's own dh is +0.0 too.

    Only forward(x, train=True) caches the steps for the backward.
    """

    def __init__(self, input_size, hidden_size, return_sequences=False, rng=None, params=None):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.return_sequences = return_sequences
        self.params = self._take(params, rng)

    def param_shapes(self) -> dict:
        F, H = self.input_size, self.hidden_size
        return {"wx": (F, 4 * H), "wh": (H, 4 * H), "b": (4 * H,)}

    def _init(self, rng) -> dict:
        F, H = self.input_size, self.hidden_size
        limit = 1.0 / np.sqrt(H)
        b = np.zeros(4 * H)
        b[H:2 * H] = 1.0
        return {
            "wx": rng.uniform(-limit, limit, size=(F, 4 * H)),
            "wh": rng.uniform(-limit, limit, size=(H, 4 * H)),
            "b": b,
        }

    def forward(self, x, train=False):
        *lead, T, F = x.shape
        if F != self.input_size:
            raise ShapeError(f"expected {self.input_size} features, got {F}")
        if T < 1:
            raise ShapeError("LSTM needs at least one time step")
        H = self.hidden_size
        wx, wh, bias = self.params["wx"], self.params["wh"], self.params["b"]
        h = None                            # h_{-1} enters no product
        steps = []
        hs = np.empty((*lead, T, H))
        for t in range(T):
            z = x[..., t, :] @ wx
            if t == 0:
                # x + (b + 0.0) is (x + h_{-1} @ Wh) + b bit for bit
                z += bias + 0.0
                # no forget gate; the input and output gates' slices copied
                # side by side take one sigmoid call
                i_o = _sigmoid(np.concatenate([z[..., :H], z[..., 3 * H:]], axis=-1))
                i, o = i_o[..., :H], i_o[..., H:]
                f = c_prev = 0.0            # the t = 0 forget gate and c_{-1}
            else:
                z += h @ wh
                z += bias
                i_f = _sigmoid(z[..., :2 * H])  # input and forget gates side by side
                i, f = i_f[..., :H], i_f[..., H:]
                o = _sigmoid(z[..., 3 * H:])
                c_prev = c
            g = np.tanh(z[..., 2 * H:3 * H])
            c = i * g
            c += f * c_prev
            tc = np.tanh(c)
            if train:
                steps.append((h, i, f, g, o, c_prev, tc))   # h_{t-1}, None at t = 0
            h = o * tc
            hs[..., t, :] = h
        self._cache = (x, steps, hs) if train else None
        return hs if self.return_sequences else hs[..., -1, :]

    def backward(self, grad):
        x, steps, hs = self._saved()
        T = x.shape[1]
        H = self.hidden_size
        wx, wh = self.params["wx"], self.params["wh"]
        dwx = np.zeros_like(wx)
        dwh = np.zeros_like(wh)
        db = np.zeros(4 * H)
        dx = np.empty_like(x)
        # without sequences, the last step's dh is grad + 0.0 and every
        # earlier step's own dh is +0.0
        dh_next = 0.0 if self.return_sequences else grad
        dc_next = 0.0
        dz = np.empty((x.shape[0], 4 * H))
        for t in range(T - 1, -1, -1):
            h_prev, i, f, g, o, c_prev, tc = steps[t]
            dh = (grad[:, t, :] if self.return_sequences else 0.0) + dh_next
            do = dh * tc
            dc = dc_next + dh * o * (1.0 - tc * tc)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            np.multiply(di * i, 1.0 - i, out=dz[:, :H])
            np.multiply(df * f, 1.0 - f, out=dz[:, H:2 * H])
            np.multiply(dg, 1.0 - g * g, out=dz[:, 2 * H:3 * H])
            np.multiply(do * o, 1.0 - o, out=dz[:, 3 * H:])
            dwx += x[:, t, :].T @ dz
            db += dz.sum(axis=0)
            dx[:, t, :] = dz @ wx.T
            if t > 0:
                dwh += h_prev.T @ dz
                dh_next = dz @ wh.T
        self.grads = {"wx": dwx, "wh": dwh, "b": db}
        return dx


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, targets: np.ndarray):
    """Mean categorical cross-entropy and its gradient at the logits.

    Expects softmax output rows (sum 1 within 1e-9, so none holds a NaN)
    and one-hot targets; the fused gradient (p - y) / batch assumes probs
    came from a softmax.
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape or probs.ndim != 2:
        raise ShapeError(f"probs {probs.shape} vs targets {targets.shape}")
    if not np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9:     # a NaN row fails too
        raise InputError("probability rows must sum to 1")
    one_hot = np.all((targets == 0.0) | (targets == 1.0)) and np.all(
        targets.sum(axis=1) == 1.0
    )
    if not one_hot:
        raise InputError("targets must be one-hot rows")
    n = probs.shape[0]
    loss = float(-(targets * np.log(probs + LOG_EPS)).sum() / n)
    dlogits = (probs - targets) / n
    return loss, dlogits


class Adam:
    """Adam over a named parameter dict; updates happen in place.

    theta -= lr * m_hat / (sqrt(v_hat) + ADAM_EPS), the epsilon outside the
    root; the moment decays are ADAM_BETA1 and ADAM_BETA2, and only lr is set.
    """

    def __init__(self, params: dict, lr=0.001):
        if not 0 < lr < np.inf:
            raise ParameterError("learning rate must be a finite number > 0")
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, g in grads.items():
            p = self.params[name]
            if g.shape != p.shape:
                raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
