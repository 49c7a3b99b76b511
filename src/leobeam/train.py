"""Unsupervised training of the beamforming network.

The loss is the negative mean weighted sum rate over a batch of channel
draws, so minimizing it maximizes the rate objective directly; no labels
are involved.  Gradients are computed by a hand-rolled batched reverse
pass through the whole pipeline: feature embedding, the dense stack, the
neighbor max aggregation, the exact power normalization (quotient rule;
a block of raw power 0 stays zero), and the rate expression
differentiated through its real/imaginary parts.  The forward pass is
`gnn._forward_group`, run with caches; this module holds its backward.
The neighbor max gradient goes to the node that supplied each aggregate:
the top node collects the other nodes' gradients, the runner-up the top
node's.

A parameter set trains as one `TrainState`: four flat arrays hold its
parameters, their gradient and Adam's two moments, and the layers view
into the first two, so a step updates them in place.  Passes take their
arrays from `gnn.FRESH`, or in `train` from one reusing `gnn.Workspace`
per parameter set.

`train` runs all of this in float32; the engine itself follows the dtype
of the parameters it is given, so float64 parameters, such as a loaded
checkpoint's, run in float64.

By default one parameter set is shared by all satellites; they run stacked
through one pass, and their gradients accumulate in satellite order into
the same arrays.  Setting tied=False trains one parameter set per
satellite instead.  Training and inference without gradients keep no
backward caches.

Channels can be fed to the network in rescaled units: SystemParams carries
an input_scale s, the network consumes h/s while rates are evaluated with
noise sigma2/s^2, which leaves every SINR and rate identical to the
physical system.  This keeps hidden activations near unity even though
physical channel gains are of order 1e-7.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import beamform, channel
from .beamform import BeamformerSet, pooled, rate_terms, unpooled
from .gnn import (FRESH, ArtifactError, FcLayer, GnnParams, Workspace,
                  atomic_write, csv_file, init_params, layer_plan, read_exact,
                  read_params, scaled_dims, write_files, write_params,
                  _dense, _ensure_finite, _forward_group)

logger = logging.getLogger(__name__)

_CKPT_MAGIC = b"LEOCKPT2"
_OLD_CKPT_MAGIC = b"LEOCKPT1"   # with Adam moments and an RNG trailer


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the last good parameters."""

    def __init__(self, message, params=None):
        super().__init__(message)
        self.params = params


@dataclass(frozen=True)
class SystemParams:
    """Static system description shared by loss, gradients and inference."""

    k_sats: int
    m_users: int
    n_antennas: int
    power: float = 1.0
    sigma2: float = 1e-12
    bandwidth: float = 50e6
    weights: tuple | None = None
    input_scale: float = 1.0

    def __post_init__(self):
        if min(self.k_sats, self.m_users, self.n_antennas) < 1:
            raise ValueError("k_sats, m_users, n_antennas must be >= 1")
        if self.power <= 0 or self.sigma2 <= 0 or self.bandwidth <= 0:
            raise ValueError("power, sigma2, bandwidth must be positive")
        if self.input_scale <= 0:
            raise ValueError("input_scale must be positive")
        if self.weights is not None:
            if len(self.weights) != self.m_users:
                raise ValueError("weights length must equal m_users")
            if any(w < 0 for w in self.weights):
                raise ValueError("weights must be nonnegative")

    def weight_vector(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(self.m_users)
        return np.asarray(self.weights, dtype=float)


@dataclass(frozen=True)
class TrainConfig:
    system: SystemParams
    chan: channel.ChannelParams
    scale_factor: int = 8
    epochs: int = 200
    batch_size: int = 200
    samples_per_epoch: int = 10000
    test_size: int = 2000
    lr0: float = 1e-3
    lr_decay: float = 0.995
    lr_decay_every: int = 100
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    early_stop: bool = True
    patience: int = 10
    min_rel_improve: float = 1e-3
    tied: bool = True
    auto_scale: bool = True
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.test_size, self.batch_size,
               self.samples_per_epoch, self.lr_decay_every) < 1:
            raise ValueError("epochs, test_size, batch_size, "
                             "samples_per_epoch and lr_decay_every must be "
                             ">= 1")
        if self.samples_per_epoch % self.batch_size != 0:
            raise ValueError("batch_size must divide samples_per_epoch")
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")


def suggested_input_scale(chan: channel.ChannelParams, m_users: int) -> float:
    """Mean deterministic channel amplitude, the natural feature scale."""
    amps = channel.deterministic_amplitudes(chan, m_users)
    s = float(np.mean(amps))
    return s if s > 0 else 1.0


def lr_at(step: int, lr0: float = 1e-3, decay: float = 0.995,
          every: int = 100) -> float:
    if step < 0:
        raise ValueError("step must be >= 0")
    return lr0 * decay ** (step // every)


# --- batched forward/backward engine ------------------------------------------
#
# The satellites that share one parameter set are stacked into the row axis:
# activations are 2-D (rows, features) with rows ordered (satellite, sample,
# node), so every dense layer is one matmul over all of them.  Weight and
# bias gradients are still formed per satellite row block and summed in
# satellite order.  The results equal those of running the satellites one
# at a time bit for bit wherever the BLAS computes each output row
# independently of the row count.  In float64 OpenBLAS does so at the desk
# shapes (4, 800 and 8000 rows per satellite); at one row, where numpy calls
# gemv, and at 5 to 18 rows its small-matrix kernels differ in the last
# bits.  In float32, the precision `train` runs in, its sgemm of the narrow
# 64 -> 8 out_fc layer depends on the row count at the desk shapes too, so
# there a stacked pass agrees with per-satellite passes only to rounding.
# Every pass is deterministic for a fixed row count.


def _relu_mask(post, ws=FRESH):
    """post > 0, the ReLU mask of the layer that produced post."""
    return np.greater(post, 0, out=ws.take("relu", post.shape, bool))


def _dense_backward(layer, x, gy, mask, blocks, acc, ws=FRESH,
                    want_gx: bool = True, x_relu: bool = True):
    """Backward of y = x @ w + b, or of relu of it where `mask` marks
    y > 0.  Overwrites gy.  Adds dW, db of each row block of `blocks`, in
    order, into the gradient layer `acc`.  If wanted, returns the input
    gradient, written over x, which nothing reads once this layer is done,
    and for a ReLU output x (`x_relu`) the mask x > 0 of the layer before,
    taken before x is overwritten."""
    if mask is not None:
        gy *= mask
    dw, db = acc.w, acc.b
    for rows in blocks:
        g = gy[rows]
        dw += x[rows].T @ g
        db += g.sum(axis=0)
    if not want_gx:
        return None
    x_mask = _relu_mask(x, ws) if x_relu else None
    return np.matmul(gy, layer.w.T, out=x), x_mask


def _neighbor_max_backward(g_agg, route, out, ws=FRESH):
    """Gradient wrt h of gnn._neighbor_max, given g_agg of shape (G, M, F),
    written to `out`, a contiguous array of g_agg's size.

    The top node receives the sum of the other nodes' gradients, in node
    order; the runner-up receives the top node's.  The masks select terms
    by multiplication, which here is several times cheaper than np.where;
    kept boolean, they take an eighth of the memory of float masks.  The
    scratch comes from the forward's "nm" roles of the allocator `ws`.
    """
    gh = out.reshape(g_agg.shape)
    if route is None:
        gh.fill(0.0)
        return gh
    top, second = route
    g, m, f = g_agg.shape
    scratch = ws.take("nm", (3 * m - 3, g, f), g_agg.dtype)
    gn = scratch[:m]
    gn[...] = g_agg.transpose(1, 0, 2)
    # holds the masked terms first, and the result at the end
    picked = np.multiply(gn, top, out=out.reshape(gn.shape))
    gn -= picked
    rest = np.add(gn[0], gn[1], out=ws.take("nm.runner", (g, f), gn.dtype))
    # the forward's first prefix row is free by now
    at_top = np.add(picked[0], picked[1], out=scratch[m])
    for i in range(2, m):
        rest += gn[i]
        at_top += picked[i]
    np.multiply(top, rest, out=gn)
    np.multiply(second, at_top, out=picked)
    gn += picked
    # masked-out products can be -0.0; a sum that starts from +0.0, as a
    # scatter into zeros does, never is
    np.add(gn, 0.0, out=gh.transpose(1, 0, 2))
    return gh


def _conv_backward(cache, layers, g, mask, m: int, blocks, acc, ws):
    """Given the gradient g wrt the conv's output and that output's ReLU
    mask, the same pair for the conv's input; both overwrite the cache."""
    g, mask = _dense_backward(layers[3], cache.g1, g, mask, blocks, acc[3],
                              ws)
    g, _ = _dense_backward(layers[2], cache.comb, g, mask, blocks, acc[2],
                           ws, x_relu=False)
    width_in = cache.x.shape[1]
    g_skip, g_agg = g[:, :width_in], g[:, width_in:]
    mask = _relu_mask(cache.h2, ws)
    g = _neighbor_max_backward(g_agg.reshape(-1, m, g_agg.shape[1]),
                               cache.route, cache.h2, ws).reshape(
                                   cache.h2.shape)
    g, mask = _dense_backward(layers[1], cache.h1, g, mask, blocks, acc[1],
                              ws)
    g, mask = _dense_backward(layers[0], cache.x, g, mask, blocks, acc[0],
                              ws)
    g += g_skip
    return g, mask


def _powernorm_backward(y, gw, power: float):
    # w = alpha(y) * y with alpha = sqrt(P / sum |y|^2); quotient rule gives
    # gy = alpha*g - (alpha/p) * Re(sum conj(g) y) * y; alpha is 0 on a block
    # of raw power p = 0, so its rows stay zero
    praw, alpha = beamform._power_scale(y, power)
    s = np.sum(gw.real * y.real + gw.imag * y.imag, axis=(2, 3))
    coef = alpha / np.where(praw == 0, 1.0, praw)
    return alpha * gw - coef * s[..., None, None] * y


def _backward_group(params: GnnParams, cache, gw, power: float, blocks,
                    grads: GnnParams, ws=FRESH) -> None:
    """Adds the gradients of the row blocks `blocks` into grads.

    cache is `gnn._forward_group`'s; gw has shape (S, B, M, N), the loss
    gradient wrt the group's beams.  The pass runs in place: each layer's
    input gradient overwrites its input in the cache, once that input's
    ReLU mask is taken, so the cache is used up.  The masks come from the
    allocator `ws`.
    """
    gy = _powernorm_backward(cache.y, gw, power)
    n = params.dims.n_antennas
    m = gy.shape[2]
    gout = np.zeros(gy.shape[:3] + (params.dims.out_width,),
                    dtype=gy.real.dtype)
    gout[..., :n] = gy.real
    gout[..., n:2 * n] = gy.imag
    lay, acc = params.layers, grads.layers
    g, mask = _dense_backward(lay[10], cache.z2,
                              gout.reshape(len(cache.z2), -1), None, blocks,
                              acc[10], ws)
    g, mask = _conv_backward(cache.convs[1], lay[6:10], g, mask, m, blocks,
                             acc[6:10], ws)
    g, mask = _conv_backward(cache.convs[0], lay[2:6], g, mask, m, blocks,
                             acc[2:6], ws)
    g, mask = _dense_backward(lay[1], cache.a1, g, mask, blocks, acc[1], ws)
    _dense_backward(lay[0], cache.feats, g, mask, blocks, acc[0],
                    want_gx=False)


def _wsr_backward(h, c, sinr, intf, weights, bandwidth: float, batch: int):
    m = sinr.shape[1]
    # gs = d loss / d sinr for loss = -(1/batch) sum_b sum_m w_m R_m, in the
    # precision of sinr: float64 weights or a numpy float64 scalar would
    # promote the whole backward pass of float32 parameters to float64
    weights = weights.astype(sinr.dtype)
    gs = -(weights[None, :] / batch) * bandwidth / (math.log(2.0)
                                                     * (1.0 + sinr))
    q = np.repeat((-gs * sinr / intf)[:, :, None], m, axis=2)
    idx = np.arange(m)
    q[:, idx, idx] = gs / intf
    gc = 2.0 * q * c
    # gw[b, k, i] = sum_m gc[b, m, i] h[b, k, m]: one matmul per sample over
    # the pooled (M, K*N) channel
    _, k, _, n = h.shape
    return unpooled(np.swapaxes(gc, 1, 2)[:, None] @ pooled(h), k, n)


# --- public loss / gradient API ------------------------------------------------

def _params_list(params) -> list:
    return list(params) if isinstance(params, (list, tuple)) else [params]


def _complex_dtype(params) -> np.dtype:
    """The complex dtype of the parameters' precision."""
    return np.result_type(_params_list(params)[0].layers[0].w, np.complex64)


def _forward_beams(params, batch, sys: SystemParams, keep: bool,
                   dense=None, workspaces=None, out=None):
    """Scaled channels h/s, beams, and per parameter set in use (the set,
    its satellites' index, its forward cache if keep).  The one place that
    assigns satellites to sets: set i of P serves satellites i, i + P, ...,
    which run stacked through one pass in the allocator `workspaces[i]`
    (gnn.FRESH for every set if not given), with `dense` as the layer if
    given, else the allocator's.  The channels and beams are written into
    the pair of arrays `out` if given, else into new ones, in the
    parameters' complex dtype."""
    params_list = _params_list(params)
    h = np.asarray(batch)
    if h.ndim != 4:
        raise ValueError("channel batch must have shape (B, K, M, N)")
    _, k, m, n = h.shape
    if (k, m, n) != (sys.k_sats, sys.m_users, sys.n_antennas):
        raise ValueError(f"channel shape {(k, m, n)} does not match system "
                         f"{(sys.k_sats, sys.m_users, sys.n_antennas)}")
    if out is None:
        dtype = _complex_dtype(params_list)
        out = np.empty(h.shape, dtype), np.empty(h.shape, dtype)
    hs, w = out
    hs[...] = h / sys.input_scale
    n_sets = len(params_list)
    groups = []
    for i, (p, ws) in enumerate(zip(params_list[:k],
                                    workspaces or [FRESH] * n_sets)):
        sats = np.s_[:, i::n_sets]
        cache, wg = _forward_group(p, hs[sats].transpose(1, 0, 2, 3),
                                   sys.power, keep, dense or ws.dense, ws)
        groups.append((p, sats, cache))
        w[sats] = wg.transpose(1, 0, 2, 3)
    return hs, w, groups


def _rate_objective(hs, w, sys: SystemParams):
    """Mean WSR of beams w on scaled channels hs, and the rate terms."""
    sigma2 = sys.sigma2 / sys.input_scale ** 2
    c, sinr, intf, rates = rate_terms(hs, w, sigma2, sys.bandwidth)
    return float((rates @ sys.weight_vector()).mean()), (c, sinr, intf)


def _engine(states, batch, sys: SystemParams, workspaces=None) -> float:
    """Mean WSR (the loss is its negative) of the parameters of the list
    of TrainState `states`, whose gradient arrays it overwrites with the
    loss gradient.  `workspaces` as in `_forward_beams`; with Workspaces
    the pass allocates only small arrays."""
    workspaces = workspaces or [FRESH] * len(states)
    hs, w, groups = _forward_beams([s.params for s in states], batch, sys,
                                   True, workspaces=workspaces)
    b, _, m, _ = hs.shape
    mean_wsr, (c, sinr, intf) = _rate_objective(hs, w, sys)
    gw = _wsr_backward(hs, c, sinr, intf, sys.weight_vector(), sys.bandwidth,
                       b)
    for state in states:
        state.g.fill(0.0)
    rows = b * m
    for (p, sats, cache), state, ws in zip(groups, states, workspaces):
        gs = gw[sats].transpose(1, 0, 2, 3)
        blocks = [slice(j * rows, (j + 1) * rows) for j in range(len(gs))]
        _backward_group(p, cache, gs, sys.power, blocks, state.grads, ws)
    return mean_wsr


def _mean_wsr(params, batch, sys: SystemParams, chunk=None,
              workspaces=None) -> float:
    """Mean WSR of the network's beams over the batch.

    The forward runs in pieces of `chunk` samples if given, the remainder
    joining the last piece, each writing its scaled channels and beams into
    one pair of batch-sized arrays from the first allocator, and the rate
    objective runs once on them.  The mean is deterministic for a fixed
    chunk size.  It equals the whole-batch one bit for bit only where the
    BLAS computes rows independently of the row count (see above): in
    float64 at the desk shapes, but not in float32.
    """
    h = np.asarray(batch)
    size = chunk or len(h) or 1
    edges = [i * size for i in range(max(1, len(h) // size))] + [len(h)]
    ws = (workspaces or [FRESH])[0]
    dtype = _complex_dtype(params)
    hs, w = (ws.take(role, h.shape, dtype) for role in ("eval.h", "eval.w"))
    for lo, hi in zip(edges, edges[1:]):
        _forward_beams(params, h[lo:hi], sys, False, workspaces=workspaces,
                       out=(hs[lo:hi], w[lo:hi]))
    return _rate_objective(hs, w, sys)[0]


def batch_loss(params, batch, sys: SystemParams) -> float:
    """Negative mean weighted sum rate over the batch."""
    return -_mean_wsr(params, batch, sys)


def gradients(params, batch, sys: SystemParams):
    """Exact reverse-mode gradient of batch_loss as GnnParams of (dW, db)
    layers: one set, into which all satellite passes of tied (single)
    params accumulate, or a list of them if params is a list."""
    states = [TrainState(p) for p in _params_list(params)]
    _engine(states, batch, sys)
    grads = [s.grads for s in states]
    return grads if isinstance(params, (list, tuple)) else grads[0]


def infer_beamformers(params, realization, sys: SystemParams) -> BeamformerSet:
    """Run the trained network on one channel realization."""
    h = np.asarray(realization)
    if h.ndim != 3:
        raise ValueError("expected a single (K, M, N) channel realization")
    _, w, _ = _forward_beams(params, h[None], sys, keep=False)
    return BeamformerSet(w=np.asarray(w[0], dtype=complex),
                         power_budget=sys.power, scope="per_satellite")


def infer_batch(params, h, sys: SystemParams, dense=_dense) -> np.ndarray:
    """Finite beamformers for a channel batch, shape (B, K, M, N), else
    GnnNumericError; the layer `dense` is float or `accel.quantized_dense`."""
    w = _forward_beams(params, h, sys, keep=False, dense=dense)[1]
    _ensure_finite(w, "power normalization")
    return w


# --- training state and optimizer ---------------------------------------------

def _layer_views(dims, flat: np.ndarray) -> GnnParams:
    """GnnParams whose weights and biases are views into the flat array
    `flat`, in layer_plan order, each weight followed by its bias."""
    plan = layer_plan(dims)
    parts = np.split(flat, np.cumsum([n for spec in plan for n in (
        spec.fan_in * spec.fan_out, spec.fan_out)])[:-1])
    return GnnParams(dims=dims, layers=[
        FcLayer(w=w.reshape(spec.fan_in, spec.fan_out), b=b)
        for spec, w, b in zip(plan, parts[::2], parts[1::2])])


class TrainState:
    """One parameter set in training: a copy of its parameters x, their
    gradient g and Adam's moments m and v, four flat arrays in the
    parameters' dtype, and Adam's step count t.  The layers of `params`
    and `grads` are views into x and g."""

    def __init__(self, params: GnnParams):
        self.x = np.concatenate([a.ravel() for layer in params.layers
                                 for a in (layer.w, layer.b)])
        self.g, self.m, self.v, *self.scratch = (np.zeros_like(self.x)
                                                 for _ in range(5))
        self.t = 0
        self.params = _layer_views(params.dims, self.x)
        self.grads = _layer_views(params.dims, self.g)


def adam_step(state: TrainState, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update of `state`, in place: m = beta1 m +
    (1 - beta1) g, v = beta2 v + (1 - beta2) g^2, x -= lr (m / c1) /
    (sqrt(v / c2) + eps) with c1 = 1 - beta1^t, c2 = 1 - beta2^t, in that
    order of operations.  The scalars are Python floats, so they take the
    state's precision."""
    lr, beta1, beta2, eps = (float(a) for a in (lr, beta1, beta2, eps))
    state.t += 1
    c1, c2 = 1.0 - beta1 ** state.t, 1.0 - beta2 ** state.t
    g, m, v, (step, den) = state.g, state.m, state.v, state.scratch
    m *= beta1
    m += np.multiply(g, 1 - beta1, out=step)
    v *= beta2
    np.square(g, out=step)
    step *= 1 - beta2
    v += step
    np.divide(m, c1, out=step)
    step *= lr
    np.divide(v, c2, out=den)
    np.sqrt(den, out=den)
    den += eps
    step /= den
    state.x -= step


# --- training loop -------------------------------------------------------------

class EpochStats(NamedTuple):
    epoch: int
    lr: float
    train_wsr: float
    test_wsr: float


@dataclass
class TrainResult:
    params: object
    history: list
    best_epoch: int
    best_test_wsr: float
    stopped_early: bool
    input_scale: float


def train(cfg: TrainConfig) -> TrainResult:
    """Full training run; returns the best-on-test parameters.

    Draw discipline: the seed is split into three independent streams for
    initialization, training batches, and the held-out test set, so the
    test data does not depend on the number of epochs run.

    With auto_scale (the default) the feature normalization is derived from
    the channel's deterministic amplitudes, overriding system.input_scale.
    Physical gains sit around 1e-7, which would starve every ReLU without
    this rescale; the rate objective is exactly invariant under it.

    Training runs in float32: the parameters, the forward and backward
    passes, the rate objective, Adam and the test evaluation.  The returned
    parameters are float32; a checkpoint stores them as float64, an exact
    upcast, so inference reads the trained values unchanged.

    Memory is bounded by the batch size, not by the test set: the held-out
    set is evaluated in batch_size pieces (`_mean_wsr`), and every step and
    piece reuses the arrays of one gnn.Workspace per parameter set, which
    is dropped when training returns.  Each set trains as one TrainState,
    updated in place; the best-on-test snapshot is a copy of its flat
    parameter array.
    """
    sys = cfg.system
    if cfg.auto_scale:
        sys = dataclasses.replace(
            sys, input_scale=suggested_input_scale(cfg.chan, sys.m_users))
    ss = np.random.SeedSequence(cfg.seed)
    s_init, s_train, s_test = ss.spawn(3)
    rng_init = np.random.Generator(np.random.Philox(s_init))
    dims = scaled_dims(sys.n_antennas, cfg.scale_factor)
    n_models = 1 if cfg.tied else sys.k_sats
    states = [TrainState(init_params(dims, rng_init, dtype=np.float32))
              for _ in range(n_models)]

    rng_test = np.random.Generator(np.random.Philox(s_test))
    h_test = channel.sample_channel_batch(
        cfg.chan, cfg.test_size, sys.k_sats, sys.m_users, sys.n_antennas,
        rng_test)
    rng_train = np.random.Generator(np.random.Philox(s_train))

    workspaces = [Workspace() for _ in states]
    steps_per_epoch = cfg.samples_per_epoch // cfg.batch_size
    history: list[EpochStats] = []
    best_test = -np.inf
    best_epoch = 0
    stale = 0
    stopped_early = False
    step = 0
    best = [s.x.copy() for s in states]

    def best_params():
        sets = [_layer_views(dims, x) for x in best]
        return sets[0] if cfg.tied else sets

    for epoch in range(1, cfg.epochs + 1):
        wsr_sum = 0.0
        lr = cfg.lr0
        for _ in range(steps_per_epoch):
            h = channel.sample_channel_batch(
                cfg.chan, cfg.batch_size, sys.k_sats, sys.m_users,
                sys.n_antennas, rng_train)
            lr = lr_at(step, cfg.lr0, cfg.lr_decay, cfg.lr_decay_every)
            mean_wsr = _engine(states, h, sys, workspaces)
            if not np.isfinite(mean_wsr):
                raise TrainingDivergedError(
                    f"loss became non-finite at step {step}",
                    params=best_params())
            for state in states:
                adam_step(state, lr, cfg.beta1, cfg.beta2, cfg.eps)
            wsr_sum += mean_wsr
            step += 1
        train_wsr = wsr_sum / steps_per_epoch
        test_wsr = _mean_wsr([s.params for s in states], h_test, sys,
                             cfg.batch_size, workspaces)
        if not np.isfinite(test_wsr):
            raise TrainingDivergedError(
                f"test evaluation non-finite after epoch {epoch}",
                params=best_params())
        history.append(EpochStats(epoch, lr, train_wsr, test_wsr))
        logger.info("epoch %d lr %.3g train %.6g test %.6g",
                    epoch, lr, train_wsr, test_wsr)

        improved = (test_wsr > best_test + cfg.min_rel_improve * abs(best_test)
                    if np.isfinite(best_test) else True)
        if test_wsr > best_test:
            best_test = test_wsr
            for x, state in zip(best, states):
                np.copyto(x, state.x)
            best_epoch = epoch
        stale = 0 if improved else stale + 1
        if cfg.early_stop and stale >= cfg.patience:
            stopped_early = True
            break

    return TrainResult(
        params=best_params(), history=history, best_epoch=best_epoch,
        best_test_wsr=best_test, stopped_early=stopped_early,
        input_scale=sys.input_scale)


# --- persistence ----------------------------------------------------------------
#
# Checkpoint layout, little endian: magic | u32 model count | one parameter
# container per model | f8 input_scale.  It holds what inference reads;
# nothing resumes training from it.


def save_checkpoint(path, params, input_scale: float) -> None:
    params_list = _params_list(params)
    with atomic_write(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(params_list)))
        for p in params_list:
            write_params(fh, p)
        fh.write(struct.pack("<d", input_scale))


@dataclass
class Checkpoint:
    """Trained parameter sets (one, or one per satellite if untied) and
    the input scale they were trained with."""

    params_list: list
    input_scale: float

    @property
    def params(self):
        return (self.params_list[0] if len(self.params_list) == 1
                else self.params_list)

    @property
    def n_antennas(self) -> int:
        return self.params_list[0].dims.n_antennas


def load_checkpoint(path) -> Checkpoint:
    """Reads a checkpoint; ArtifactError if it is truncated or malformed."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic == _OLD_CKPT_MAGIC:
            raise ArtifactError(f"{path}: older checkpoint format, retrain")
        if magic != _CKPT_MAGIC:
            raise ArtifactError(f"{path}: not a training checkpoint")
        (count,) = struct.unpack("<I", read_exact(fh, 4))
        if count < 1:
            raise ArtifactError(f"{path}: checkpoint holds no model")
        params_list = [read_params(fh) for _ in range(count)]
        (input_scale,) = struct.unpack("<d", read_exact(fh, 8))
    if not 0.0 < input_scale < np.inf:
        raise ArtifactError(f"{path}: input scale {input_scale!r} is not "
                            "finite and positive")
    return Checkpoint(params_list=params_list, input_scale=input_scale)


def write_history_csv(path, history, config_hash: str) -> None:
    """history.csv of the EpochStats rows, written by `gnn.csv_file`."""
    write_files([csv_file(path, f"# leobeam history v1 config_hash="
                          f"{config_hash} units: lr dimensionless, wsr "
                          "bits/s", EpochStats._fields, history)])
