"""Minimal dense-network engine used by all agents.

Everything is float64 numpy: multilayer perceptrons with tanh hidden layers
and linear heads, exact analytic backpropagation (parameter gradients, the
gradient with respect to the input that chains a critic into an actor, or
both; each caller asks for what it reads), two first-order optimizers, a
tanh-squashed Gaussian policy head, and an exact checkpoint round-trip.  No
autograd framework is involved; gradients are spelled out so they can be
validated against finite differences.  Each trainable object keeps its
parameters in one flat buffer ``flat``: a net's ``weights`` and ``biases``
are views into it, and a policy's buffer is its net's parameters followed by
its ``log_std``, both views, all to be written in place and never rebound.
The optimizers update one buffer per step in place, a long one in blocks of
``BLOCK`` items so that no temporary is as large as the buffer, and each step
is atomic: it checks the gradient before it writes, so a misshapen or
non-finite one raises with parameters and state untouched.  A net may carry a
leading lane axis of equal nets (``Mlp(..., lanes=L)``): each pass runs all
lanes at once, bit for bit as each lane alone, and one step updates them all.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
_SQUASH_EPS = 1e-12
CHECKPOINT_VERSION = 1
# items per block of elementwise buffer updates: 256 KiB of float64, so the
# (at most six) arrays one block of an Adam step touches fit a 2 MiB L2 cache
BLOCK = 32768
# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class NonFiniteGradientError(RuntimeError):
    """A gradient or parameter update stopped being finite."""


def _layout(shapes) -> list:
    """(slice, shape) of each parameter, laid end to end in a flat buffer."""
    stops = itertools.accumulate(math.prod(shape) for shape in shapes)
    return [(slice(stop - math.prod(shape), stop), shape) for stop, shape in zip(stops, shapes)]


def _views(flat: np.ndarray, layout: list, lanes: tuple = ()) -> list:
    """Views of each parameter, stacked over the lanes (lane after lane) if any."""
    rows = flat.reshape(lanes + (-1,))
    return [rows[..., part].reshape(lanes + tuple(shape)) for part, shape in layout]


def blocks(*arrays: np.ndarray):
    """Aligned pieces of equally shaped arrays, BLOCK rows (items of a flat
    buffer) at a time: the arrays themselves when they hold at most BLOCK
    items."""
    if arrays[0].size <= BLOCK:
        yield arrays
        return
    for start in range(0, len(arrays[0]), BLOCK):
        yield tuple(a[start : start + BLOCK] for a in arrays)


def _finite(g: np.ndarray) -> bool:
    """Whether every item of g is finite, checked block by block.  For a
    buffer longer than one block a finite sum of squares proves it first, in
    one BLAS pass; the items are checked only when that sum is not finite (a
    non-finite item, or finite items whose squares overflow)."""
    if g.size > BLOCK:
        flat = g.ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(flat @ flat):
                return True
    return all(np.isfinite(piece).all() for (piece,) in blocks(g))


def _check_step(param: np.ndarray, grad: np.ndarray, name: str) -> None:
    """Reject a step before it writes anything: a gradient shaped unlike its
    buffer, or a non-finite one."""
    if np.shape(grad) != param.shape:
        raise ValueError(f"{name} step got a gradient of shape {np.shape(grad)} "
                         f"for a buffer of shape {param.shape}")
    if not _finite(grad):
        raise NonFiniteGradientError(f"non-finite gradient in {name} step")


class Mlp:
    """Fully connected net: tanh on hidden layers, identity on the head.

    Weights W have shape (fan_out, fan_in) and act as x @ W.T + b; they are
    initialized uniformly in +-1/sqrt(fan_in).  ``flat`` holds parameters().
    With ``lanes`` = L it is L such nets, initialized in place one after the
    other as L nets made in turn: ``flat`` holds lane after lane, ``weights``
    are (L, fan_out, fan_in) views and ``biases`` (L, fan_out), and the same
    passes map (L, B, in) inputs, or one (B, in) batch, to (L, B, out).
    """

    def __init__(self, sizes: tuple, rng: np.random.Generator, lanes: int = 0) -> None:
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = tuple(int(s) for s in sizes)
        self.shapes = tuple(shape for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:])
                            for shape in ((fan_out, fan_in), (fan_out,)))
        self._layout = _layout(self.shapes)
        self._bind(np.empty(max(lanes, 1) * self._layout[-1][0].stop), (lanes,) if lanes else ())
        for net in map(self.lane, range(lanes)) if lanes else [self]:
            for w, b in zip(net.weights, net.biases):
                bound = 1.0 / math.sqrt(w.shape[1])
                w[...] = rng.uniform(-bound, bound, size=w.shape)
                b[...] = rng.uniform(-bound, bound, size=b.shape)

    def _bind(self, flat: np.ndarray, lanes: tuple = ()) -> None:
        self.flat, self.lanes = flat, lanes
        self._params = _views(flat, self._layout, lanes)
        self.weights = self._params[0::2]
        self.biases = self._params[1::2]
        # the biases as added to a batch: a lane's broadcast over its rows
        self._shifts = [b[:, None] for b in self.biases] if lanes else self.biases

    def _with(self, flat: np.ndarray, lanes: tuple = ()) -> "Mlp":
        net = Mlp.__new__(Mlp)
        net.sizes, net.shapes, net._layout = self.sizes, self.shapes, self._layout
        net._bind(flat, lanes)
        return net

    def lane(self, index: int) -> "Mlp":
        """An unstacked net over lane ``index``'s parameters, sharing memory."""
        return self._with(self.flat.reshape(*self.lanes, -1)[index])

    def parameters(self) -> list:
        return list(self._params)

    def copy(self) -> "Mlp":
        return self._with(self.flat.copy(), self.lanes)

    def load_from(self, other: "Mlp") -> None:
        np.copyto(self.flat, other.flat)

    def forward(self, x: np.ndarray) -> np.ndarray:
        a = np.asarray(x, dtype=float)
        for w, b in zip(self.weights[:-1], self._shifts[:-1]):
            a = np.tanh(a @ w.swapaxes(-1, -2) + b)
        return a @ self.weights[-1].swapaxes(-1, -2) + self._shifts[-1]

    def forward_rows(self, x: np.ndarray) -> np.ndarray:
        """Forward of an (S,) input or a (k, S) stack of rows, each its own
        single-row product: a row's rounding never depends on its batch."""
        return self.forward(np.asarray(x, dtype=float)[..., None, :])[..., 0, :]

    def forward_cached(self, x: np.ndarray) -> tuple[np.ndarray, list]:
        """Batched forward that keeps every layer input for backward()."""
        a = np.asarray(x, dtype=float)
        if a.ndim not in (2, 2 + len(self.lanes)):
            raise ValueError("forward_cached expects a 2-D batch, or one per lane")
        cache = [a]
        for w, b in zip(self.weights[:-1], self._shifts[:-1]):
            a = np.tanh(a @ w.swapaxes(-1, -2) + b)
            cache.append(a)
        out = a @ self.weights[-1].swapaxes(-1, -2) + self._shifts[-1]
        return out, cache

    def backward(self, cache: list, grad_out: np.ndarray, params: bool = True,
                 inputs: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Backpropagate an upstream gradient on the head output.

        Returns (parameter gradient in one new flat buffer laid out like
        ``flat``, gradient with respect to the input batch); a part the caller
        turns off with ``params`` or ``inputs`` is not computed and comes back
        as None.
        """
        grad = np.empty(self.flat.size) if params else None
        parts = _views(grad, self._layout, self.lanes) if params else None
        g = np.asarray(grad_out, dtype=float)
        for layer in range(len(self.weights) - 1, -1, -1):
            if params:
                np.matmul(g.swapaxes(-1, -2), cache[layer], out=parts[2 * layer])
                g.sum(axis=-2, out=parts[2 * layer + 1])
            if layer > 0:
                g = (g @ self.weights[layer]) * (1.0 - cache[layer] ** 2)
            elif inputs:
                g = g @ self.weights[0]
        return grad, g if inputs else None


class Sgd:
    """Plain stochastic gradient descent, the default update rule, over one
    flat parameter buffer (a net's or a policy's ``flat``) and its gradient."""

    def __init__(self, lr: float) -> None:
        self.lr = float(lr)

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        _check_step(param, grad, "SGD")
        for p, g in blocks(param, grad):
            p -= self.lr * g

    def state_arrays(self, lane: int = 0) -> dict:
        return {}

    def load_state_arrays(self, arrays: dict, lane: int = 0, lanes: int = 1) -> None:
        pass


class Adam:
    """Adam with bias correction, over one buffer as Sgd; every step must pass
    a buffer of the same size.  Checkpoints name its flat moments per
    parameter (``m<i>``, ``v<i>``) of ``shapes`` (default: the buffer's), over a
    stacked buffer those of one lane ``lane`` of ``lanes`` (see LaneState)."""

    def __init__(self, lr: float, shapes=None) -> None:
        self.lr = float(lr)
        self.shapes = shapes
        self.t = 0
        self._m = self._v = None

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        _check_step(param, grad, "Adam")
        if self._m is None:
            self.shapes = self.shapes or [param.shape]
            self._m, self._v = np.zeros((2, param.size))
        elif param.size != self._m.size:
            raise ValueError(f"Adam step got {param.size} items for moments of {self._m.size}")
        self.t += 1
        correction1 = 1.0 - ADAM_BETA1 ** self.t
        correction2 = 1.0 - ADAM_BETA2 ** self.t
        # two scratch arrays per block keep the elementwise order of
        # lr * (m / c1) / (sqrt(v / c2) + eps), so results stay bit-identical
        for p, g, m, v in blocks(param, grad, self._m, self._v):
            a, b = np.empty_like(p), np.empty_like(p)
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
            v *= ADAM_BETA2
            v += np.multiply(np.multiply(1.0 - ADAM_BETA2, g, out=b), g, out=b)
            a = np.multiply(self.lr, np.divide(m, correction1, out=a), out=a)
            b = np.add(np.sqrt(np.divide(v, correction2, out=b), out=b), ADAM_EPS, out=b)
            p -= np.divide(a, b, out=a)

    def state_arrays(self, lane: int = 0) -> dict:
        arrays = {"t": np.array(self.t)}
        if self._m is not None:
            layout = _layout(self.shapes)
            m, v = (x.reshape(-1, layout[-1][0].stop)[lane] for x in (self._m, self._v))
            for idx, (m_i, v_i) in enumerate(zip(_views(m, layout), _views(v, layout))):
                arrays[f"m{idx}"] = m_i
                arrays[f"v{idx}"] = v_i
        return arrays

    def load_state_arrays(self, arrays: dict, lane: int = 0, lanes: int = 1) -> None:
        self.t = int(arrays["t"])
        count = sum(key.startswith("m") for key in arrays)
        if count:
            self.shapes = [arrays[f"m{i}"].shape for i in range(count)]
            m, v = (np.concatenate([arrays[f"{k}{i}"].ravel() for i in range(count)]) for k in "mv")
            if self._m is None or self._m.size != lanes * m.size:
                self._m, self._v = np.zeros((2, lanes * m.size))
            self._m.reshape(lanes, -1)[lane] = m
            self._v.reshape(lanes, -1)[lane] = v


class LaneState:
    """Lane ``index`` of ``lanes`` of an optimizer over a stacked buffer, as
    checkpoints read and write it: what an optimizer of that lane alone holds."""

    def __init__(self, opt, index: int, lanes: int) -> None:
        self.opt, self.index, self.lanes = opt, index, lanes

    def state_arrays(self) -> dict:
        return self.opt.state_arrays(self.index)

    def load_state_arrays(self, arrays: dict) -> None:
        self.opt.load_state_arrays(arrays, self.index, self.lanes)


def make_optimizer(kind: str, lr: float, shapes=None):
    if kind == "sgd":
        return Sgd(lr)
    if kind == "adam":
        return Adam(lr, shapes=shapes)
    raise ValueError(f"unknown optimizer {kind!r}")


class GaussianPolicy:
    """Tanh-squashed diagonal Gaussian: mean from an MLP, state-independent
    learnable log standard deviations clamped to [LOG_STD_MIN, LOG_STD_MAX].

    Actions are a = tanh(u) with u ~ N(mean(s), diag(sigma^2)); log-densities
    carry the change-of-variables term -sum log(1 - a^2).  ``flat`` holds
    parameters(): the net adopts its head as its own ``flat``, and ``log_std``
    is its tail.
    """

    def __init__(self, net: Mlp, init_log_std: float = -0.5) -> None:
        self.net = net
        self.shapes = net.shapes + ((net.sizes[-1],),)
        self.flat = np.concatenate([net.flat, np.full(net.sizes[-1], float(init_log_std))])
        net._bind(self.flat[: net.flat.size])
        self.log_std = self.flat[net.flat.size :]

    def parameters(self) -> list:
        return self.net.parameters() + [self.log_std]

    def copy(self) -> "GaussianPolicy":
        dup = GaussianPolicy(self.net.copy())
        dup.load_from(self)
        return dup

    def load_from(self, other: "GaussianPolicy") -> None:
        np.copyto(self.flat, other.flat)

    def clamp_log_std(self) -> None:
        np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX, out=self.log_std)

    def sample(self, states: np.ndarray, rng: np.random.Generator):
        """Draw an action for an (S,) state or each row of a (k, S) block, bit
        for bit as k single draws; returns (action, pre_squash, log_prob) with
        leading axis k for a block."""
        mu = self.net.forward_rows(states)
        pre = mu + np.exp(self.log_std) * rng.standard_normal(mu.shape)
        return np.tanh(pre), pre, self._log_prob_given(mu, pre)

    def _log_prob_given(self, mu: np.ndarray, pre: np.ndarray) -> np.ndarray:
        sigma = np.exp(self.log_std)
        z = (pre - mu) / sigma
        gauss = -0.5 * math.log(2.0 * math.pi) - self.log_std - 0.5 * z * z
        squash = np.log(1.0 - np.tanh(pre) ** 2 + _SQUASH_EPS)
        return (gauss - squash).sum(axis=-1)

    def log_prob(self, states: np.ndarray, pres: np.ndarray,
                 forward: tuple | None = None) -> np.ndarray:
        """Log-density of previously drawn pre-squash samples under the
        current parameters (batched); ``forward`` may pass the net's
        ``forward_cached`` on the states."""
        mu = forward[0] if forward else self.net.forward(states)
        return self._log_prob_given(mu, pres)

    def grad_weighted_log_prob(self, states: np.ndarray, pres: np.ndarray,
                               coeff: np.ndarray, forward: tuple | None = None) -> np.ndarray:
        """Analytic gradient of sum_q coeff_q * log pi(a_q | s_q), laid out
        like ``flat``, from ``forward`` as log_prob takes it, when given.
        The squash correction does not depend on the parameters, so only the
        Gaussian part contributes."""
        mu, cache = forward or self.net.forward_cached(states)
        sigma = np.exp(self.log_std)
        z = (pres - mu) / sigma
        coeff = np.asarray(coeff, dtype=float)[:, None]
        net_grad, _ = self.net.backward(cache, coeff * z / sigma, inputs=False)
        return np.concatenate([net_grad, (coeff * (z * z - 1.0)).sum(axis=0)])


def save_checkpoint(path, arrays: dict, meta: dict | None = None) -> None:
    """Write named arrays plus a JSON metadata record; exact round-trip."""
    meta = dict(meta or {})
    meta["checkpoint_version"] = CHECKPOINT_VERSION
    payload = {key: np.asarray(value) for key, value in arrays.items()}
    np.savez(path, __meta__=np.array(json.dumps(meta, sort_keys=True)), **payload)


def load_checkpoint(path) -> tuple[dict, dict]:
    with np.load(path, allow_pickle=False) as bundle:
        meta = json.loads(str(bundle["__meta__"]))
        arrays = {key: bundle[key].copy() for key in bundle.files if key != "__meta__"}
    return arrays, meta
