"""Unsupervised training of the beamforming network.

The loss is the negative mean weighted sum rate over a batch of channel
draws, so minimizing it maximizes the rate objective directly; no labels
are involved.  Gradients are computed by a hand-rolled batched reverse
pass through the whole pipeline: feature embedding, the dense stack, the
neighbor max aggregation, the exact power normalization (quotient rule,
zero-power guard treated as constant), and the rate expression
differentiated through its real/imaginary parts.  The forward pass is
`gnn._forward_group`, run with caches; this module holds its backward.
The neighbor max gradient goes to the node that supplied each aggregate:
the top node collects the other nodes' gradients, the runner-up the top
node's.

By default one parameter set is shared by all satellites; they run stacked
through one pass, and their gradients accumulate in satellite order into
the same buffers.  Setting tied=False trains one parameter set per
satellite instead.  Training and inference without gradients keep no
backward caches.

Channels can be fed to the network in rescaled units: SystemParams carries
an input_scale s, the network consumes h/s while rates are evaluated with
noise sigma2/s^2, which leaves every SINR and rate identical to the
physical system.  This keeps hidden activations near unity even though
physical channel gains are of order 1e-7.
"""

from __future__ import annotations

import copy
import dataclasses
import logging
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import channel
from .beamform import ZERO_POWER, BeamformerSet, pooled, rate_terms, unpooled
from .gnn import (ArtifactError, FcLayer, GnnParams, atomic_write, csv_file,
                  init_params, read_exact, read_params, scaled_dims,
                  write_files, write_params, _dense, _ensure_finite,
                  _forward_group, _power_scale)

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
    use_float32: bool = False
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
# independently of the row count.  OpenBLAS does so at the desk shapes
# (4, 800 and 8000 rows per satellite); at one row, where numpy calls gemv,
# and at 5 to 18 rows its small-matrix kernels differ in the last bits.


def _dense_backward(layer, x, post, gy, blocks, acc, want_gx: bool = True):
    """Backward of post = relu(x @ w + b), or of the linear layer if post
    is None.  Overwrites gy.  Adds dW, db of each row block of `blocks`, in
    order, into the buffers `acc`; returns the input gradient if wanted."""
    if post is not None:
        gy *= post > 0
    dw, db = acc
    for rows in blocks:
        g = gy[rows]
        dw += x[rows].T @ g
        db += g.sum(axis=0)
    return gy @ layer.w.T if want_gx else None


def _neighbor_max_backward(g_agg, route):
    """Gradient wrt h of gnn._neighbor_max, given g_agg of shape (G, M, F).

    The top node receives the sum of the other nodes' gradients, in node
    order; the runner-up receives the top node's.  The masks select terms
    by multiplication, which here is several times cheaper than np.where;
    kept boolean, they take an eighth of the memory of float masks.
    """
    if route is None:
        return np.zeros_like(g_agg)
    top, second = route
    gn = np.ascontiguousarray(g_agg.transpose(1, 0, 2))
    # holds the masked terms first, and the result at the end
    buf = np.empty(gn.size, dtype=gn.dtype)
    picked = np.multiply(gn, top, out=buf.reshape(gn.shape))
    gn -= picked
    rest = gn[0] + gn[1]
    at_top = picked[0] + picked[1]
    for i in range(2, len(gn)):
        rest += gn[i]
        at_top += picked[i]
    np.multiply(top, rest, out=gn)
    np.multiply(second, at_top, out=picked)
    gn += picked
    # masked-out products can be -0.0; a sum that starts from +0.0, as a
    # scatter into zeros does, never is
    gh = buf.reshape(g_agg.shape)
    np.add(gn, 0.0, out=gh.transpose(1, 0, 2))
    return gh


def _conv_backward(cache, layers, g, m: int, blocks, acc):
    # one name for the running gradient, so each is freed once consumed
    g = _dense_backward(layers[3], cache.g1, cache.out, g, blocks, acc[3])
    g = _dense_backward(layers[2], cache.comb, cache.g1, g, blocks, acc[2])
    width_in = cache.x.shape[1]
    g_skip, g_agg = g[:, :width_in], g[:, width_in:]
    g = _neighbor_max_backward(g_agg.reshape(-1, m, g_agg.shape[1]),
                               cache.route).reshape(g_agg.shape)
    g = _dense_backward(layers[1], cache.h1, cache.h2, g, blocks, acc[1])
    g = _dense_backward(layers[0], cache.x, cache.h1, g, blocks, acc[0])
    g += g_skip
    return g


def _powernorm_backward(y, gw, power: float):
    # w = alpha(y) * y with alpha = sqrt(P / sum |y|^2); quotient rule gives
    # gy = alpha*g - (alpha/p) * Re(sum conj(g) y) * y, zero rows stay zero
    praw, alpha = _power_scale(y, power)
    s = np.sum(gw.real * y.real + gw.imag * y.imag, axis=(2, 3))
    coef = np.where(praw < ZERO_POWER, 0.0,
                    alpha / np.maximum(praw, ZERO_POWER))
    return alpha[..., None, None] * gw - (coef * s)[..., None, None] * y


def _backward_group(params: GnnParams, cache, gw, power: float, blocks,
                    grads: GradientSet) -> None:
    """Adds the gradients of the row blocks `blocks` into grads.

    cache is `gnn._forward_group`'s; gw has shape (S, B, M, N), the loss
    gradient wrt the group's beams.
    """
    gy = _powernorm_backward(cache.y, gw, power)
    n = params.dims.n_antennas
    m = gy.shape[2]
    gout = np.zeros(gy.shape[:3] + (params.dims.out_width,),
                    dtype=gy.real.dtype)
    gout[..., :n] = gy.real
    gout[..., n:2 * n] = gy.imag
    lay, acc = params.layers, grads.layers
    g = _dense_backward(lay[10], cache.z2, None,
                        gout.reshape(len(cache.z2), -1), blocks, acc[10])
    g = _conv_backward(cache.convs[1], lay[6:10], g, m, blocks, acc[6:10])
    g = _conv_backward(cache.convs[0], lay[2:6], g, m, blocks, acc[2:6])
    g = _dense_backward(lay[1], cache.a1, cache.a2, g, blocks, acc[1])
    _dense_backward(lay[0], cache.feats, cache.a1, g, blocks, acc[0],
                    want_gx=False)


def _wsr_backward(h, c, sinr, intf, weights, bandwidth: float, batch: int):
    m = sinr.shape[1]
    # gs = d loss / d sinr for loss = -(1/batch) sum_b sum_m w_m R_m
    gs = -(weights[None, :] / batch) * bandwidth / (np.log(2.0) * (1.0 + sinr))
    q = np.repeat((-gs * sinr / intf)[:, :, None], m, axis=2)
    idx = np.arange(m)
    q[:, idx, idx] = gs / intf
    gc = 2.0 * q * c
    # gw[b, k, i] = sum_m gc[b, m, i] h[b, k, m]: one matmul per sample over
    # the pooled (M, K*N) channel
    _, k, _, n = h.shape
    return unpooled(np.swapaxes(gc, 1, 2)[:, None] @ pooled(h), k, n)


# --- public loss / gradient API ------------------------------------------------

@dataclass
class GradientSet:
    """Per-layer (d weight, d bias) pairs in layer_plan order."""

    layers: list


def _zero_grads(params: GnnParams) -> GradientSet:
    return GradientSet([(np.zeros_like(l.w), np.zeros_like(l.b))
                        for l in params.layers])


def _params_list(params) -> list:
    return list(params) if isinstance(params, (list, tuple)) else [params]


def _forward_beams(params, batch, sys: SystemParams, keep: bool,
                   dense=_dense):
    """Scaled channels h/s, beams, and per parameter set in use (the set,
    its satellites' index, its forward cache if keep).  The one place that
    assigns satellites to sets: set i of P serves satellites i, i + P, ...,
    which run stacked through one pass with `dense` as the layer."""
    params_list = _params_list(params)
    h = np.asarray(batch)
    if h.ndim != 4:
        raise ValueError("channel batch must have shape (B, K, M, N)")
    _, k, m, n = h.shape
    if (k, m, n) != (sys.k_sats, sys.m_users, sys.n_antennas):
        raise ValueError(f"channel shape {(k, m, n)} does not match system "
                         f"{(sys.k_sats, sys.m_users, sys.n_antennas)}")
    f64 = params_list[0].layers[0].w.dtype == np.float64
    hs = h / sys.input_scale
    hs = hs.astype(np.complex128 if f64 else np.complex64)
    n_sets = len(params_list)
    groups = []
    w = np.empty_like(hs)
    for i, p in enumerate(params_list[:k]):
        sats = np.s_[:, i::n_sets]
        cache, wg = _forward_group(p, hs[sats].transpose(1, 0, 2, 3),
                                   sys.power, keep, dense)
        groups.append((p, sats, cache))
        w[sats] = wg.transpose(1, 0, 2, 3)
    return hs, w, groups


def _engine(params, batch, sys: SystemParams, want_grads: bool = True):
    """Mean WSR (the loss is its negative) and, if wanted, gradients."""
    hs, w, groups = _forward_beams(params, batch, sys, want_grads)
    b, _, m, _ = hs.shape
    sigma2 = sys.sigma2 / sys.input_scale ** 2
    weights = sys.weight_vector()
    c, sinr, intf, rates = rate_terms(hs, w, sigma2, sys.bandwidth)
    mean_wsr = float((rates @ weights).mean())
    if not want_grads:
        return mean_wsr, None

    gw = _wsr_backward(hs, c, sinr, intf, weights, sys.bandwidth, b)
    grads = [_zero_grads(p) for p in _params_list(params)]
    rows = b * m
    for (p, sats, cache), g in zip(groups, grads):
        gs = gw[sats].transpose(1, 0, 2, 3)
        blocks = [slice(j * rows, (j + 1) * rows) for j in range(len(gs))]
        _backward_group(p, cache, gs, sys.power, blocks, g)
    if not isinstance(params, (list, tuple)):
        grads = grads[0]
    return mean_wsr, grads


def batch_loss(params, batch, sys: SystemParams) -> float:
    """Negative mean weighted sum rate over the batch."""
    return -_engine(params, batch, sys, want_grads=False)[0]


def gradients(params, batch, sys: SystemParams):
    """Exact reverse-mode gradient of batch_loss.

    With tied (single) params the gradients of all satellite passes
    accumulate into one GradientSet.
    """
    return _engine(params, batch, sys)[1]


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


# --- optimizer -----------------------------------------------------------------

@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0


def init_adam_state(params: GnnParams) -> AdamState:
    return AdamState(m=[(np.zeros_like(l.w), np.zeros_like(l.b))
                        for l in params.layers],
                     v=[(np.zeros_like(l.w), np.zeros_like(l.b))
                        for l in params.layers],
                     t=0)


def adam_step(params: GnnParams, grads: GradientSet, state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8):
    """One bias-corrected Adam update; returns new params and state."""
    t = state.t + 1
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    new_layers, new_m, new_v = [], [], []
    for layer, (dw, db), (mw, mb), (vw, vb) in zip(
            params.layers, grads.layers, state.m, state.v):
        mw = beta1 * mw + (1 - beta1) * dw
        mb = beta1 * mb + (1 - beta1) * db
        vw = beta2 * vw + (1 - beta2) * dw ** 2
        vb = beta2 * vb + (1 - beta2) * db ** 2
        w = layer.w - lr * (mw / c1) / (np.sqrt(vw / c2) + eps)
        b = layer.b - lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
        new_layers.append(FcLayer(w=w, b=b))
        new_m.append((mw, mb))
        new_v.append((vw, vb))
    return (GnnParams(dims=params.dims, layers=new_layers),
            AdamState(m=new_m, v=new_v, t=t))


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
    dtype = np.float32 if cfg.use_float32 else np.float64
    params_list = [init_params(dims, rng_init, dtype=dtype)
                   for _ in range(n_models)]

    rng_test = np.random.Generator(np.random.Philox(s_test))
    h_test = channel.sample_channel_batch(
        cfg.chan, cfg.test_size, sys.k_sats, sys.m_users, sys.n_antennas,
        rng_test)
    rng_train = np.random.Generator(np.random.Philox(s_train))

    states = [init_adam_state(p) for p in params_list]
    steps_per_epoch = cfg.samples_per_epoch // cfg.batch_size
    history: list[EpochStats] = []
    best_test = -np.inf
    best_params = [copy.deepcopy(p) for p in params_list]
    best_epoch = 0
    stale = 0
    stopped_early = False
    step = 0

    for epoch in range(1, cfg.epochs + 1):
        wsr_sum = 0.0
        lr = cfg.lr0
        for _ in range(steps_per_epoch):
            h = channel.sample_channel_batch(
                cfg.chan, cfg.batch_size, sys.k_sats, sys.m_users,
                sys.n_antennas, rng_train)
            lr = lr_at(step, cfg.lr0, cfg.lr_decay, cfg.lr_decay_every)
            mean_wsr, grads = _engine(params_list, h, sys)
            if not np.isfinite(mean_wsr):
                raise TrainingDivergedError(
                    f"loss became non-finite at step {step}",
                    params=best_params[0] if cfg.tied else best_params)
            for i in range(n_models):
                params_list[i], states[i] = adam_step(
                    params_list[i], grads[i], states[i], lr,
                    cfg.beta1, cfg.beta2, cfg.eps)
            wsr_sum += mean_wsr
            step += 1
        train_wsr = wsr_sum / steps_per_epoch
        test_wsr, _ = _engine(params_list, h_test, sys, want_grads=False)
        if not np.isfinite(test_wsr):
            raise TrainingDivergedError(
                f"test evaluation non-finite after epoch {epoch}",
                params=best_params[0] if cfg.tied else best_params)
        history.append(EpochStats(epoch, lr, train_wsr, test_wsr))
        logger.info("epoch %d lr %.3g train %.6g test %.6g",
                    epoch, lr, train_wsr, test_wsr)

        improved = (test_wsr > best_test + cfg.min_rel_improve * abs(best_test)
                    if np.isfinite(best_test) else True)
        if test_wsr > best_test:
            best_test = test_wsr
            best_params = [copy.deepcopy(p) for p in params_list]
            best_epoch = epoch
        stale = 0 if improved else stale + 1
        if cfg.early_stop and stale >= cfg.patience:
            stopped_early = True
            break

    return TrainResult(
        params=best_params[0] if cfg.tied else best_params,
        history=history, best_epoch=best_epoch, best_test_wsr=best_test,
        stopped_early=stopped_early, input_scale=sys.input_scale)


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
