"""Weighted-sum-rate evaluation and classical beamforming baselines.

Channel tensors have shape (..., K, M, N): any leading sample axes, then K
satellites, M single-antenna user terminals and N antennas per satellite.
Beamformer tensors share that shape; w[..., k, m, :] is satellite k's beam
for user m's stream.  The received signal of stream i at user m aggregates
coherently over satellites, c[m, i] = sum_k h[k, m]^H w[k, i].  Every
function here works on one realization (K, M, N) or on a whole stack of
them at once, and a stack gives each realization the bits it gets alone.

A global scheme is its local scheme on one transmitter: `pooled(h)` views
the K satellites as a single one with K*N antennas, (..., 1, M, K*N), the
local code runs there with the total budget, and `unpooled` maps the
beams back to (..., K, M, N).

Budget axis: the five schemes take either a scalar budget or a 1-D vector
of P budgets.  A vector adds a new leading axis, so a stack (..., K, M, N)
gives beams (P, ..., K, M, N), and the work that does not depend on the
budget runs once for all of them: the zero-forcing rank check and
pseudo-inverse, the Gram matrices of the regularized inversion, and the
MRT and trace norms.  Only the normalization, and for MMSE the
regularized solve (one stacked LAPACK call), runs per budget.  Each budget
gets the bits a scalar call with it gets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COND_LIMIT = 1e12       # condition number above which ZF refuses to invert
ZERO_POWER = 1e-30      # blocks below this raw power are left at zero


class SingularChannelError(RuntimeError):
    """Raised when a per-satellite channel matrix is too ill conditioned."""


@dataclass
class BeamformerSet:
    """w: (..., K, M, N) complex; power_budget in watts under the given
    scope, for each realization.  A 1-D vector of P budgets indexes the
    leading axis of w, (P, ..., K, M, N)."""

    w: np.ndarray
    power_budget: float | np.ndarray
    scope: str = "per_satellite"  # or "total"

    def __post_init__(self):
        if self.w.ndim < 3:
            raise ValueError("beamformer tensor must have shape (..., K, M, N)")
        if self.scope not in ("per_satellite", "total"):
            raise ValueError("scope must be 'per_satellite' or 'total'")
        if _is_vector(self.power_budget) and (
                self.w.ndim < 4 or np.shape(self.power_budget)
                != self.w.shape[:1]):
            raise ValueError("a budget vector must have shape (P,) for "
                             "beams of shape (P, ..., K, M, N)")


@dataclass
class RateReport:
    per_user_rates: np.ndarray   # (..., M) bits/s
    weighted_sum: np.ndarray     # (...) bits/s; a scalar for one realization


def _tensor(x, what: str) -> np.ndarray:
    arr = x.w if isinstance(x, BeamformerSet) else np.asarray(x)
    if arr.ndim < 3:
        raise ValueError(f"{what} tensor must have shape (..., K, M, N)")
    return arr


def _is_vector(power) -> bool:
    # isinstance first: a float budget must not pay for numpy's dispatch
    return isinstance(power, (np.ndarray, list, tuple)) and np.ndim(power) > 0


def _budget(power, ndim: int):
    """A scalar budget as given, or a 1-D vector of P budgets shaped
    (P, 1, ..., 1) to lead an array of ndim more axes."""
    if not _is_vector(power):
        return power
    p = np.asarray(power, dtype=float)
    if p.ndim != 1 or not p.size:
        raise ValueError("power budget must be a scalar or a non-empty "
                         "1-D vector")
    return p.reshape(-1, *(1,) * ndim)


def _lowest(p):
    """The smallest budget of a `_budget` result."""
    return p.min() if isinstance(p, np.ndarray) else p


def stream_gains(h, w) -> np.ndarray:
    """c[..., m, i] = sum_k h[..., k, m]^H w[..., k, i], shape (..., M, M)."""
    hh = _tensor(h, "channel")
    ww = _tensor(w, "beamformer")
    if hh.shape != ww.shape:
        raise ValueError(f"shape mismatch: channel {hh.shape} vs "
                         f"beamformer {ww.shape}")
    return np.einsum("...kmn,...kin->...mi", hh.conj(), ww)


def rate_terms(h, w, sigma2: float, bandwidth: float):
    """Stream gains c, SINR, interference-plus-noise and rate of every user.

    The one rate computation, shared by `wsr` and the training loss:
    SINR_m = |c[m,m]|^2 / (sum_{i != m} |c[m,i]|^2 + sigma2), with
    |c|^2 taken as re^2 + im^2, and R_m = bandwidth * log2(1 + SINR_m),
    formed as log1p(SINR_m) / log(2) so a low SINR keeps its digits.
    Returns c (..., M, M), then sinr, interference-plus-noise and the
    rates (..., M).
    """
    c = stream_gains(h, w)
    p = c.real ** 2 + c.imag ** 2
    sig = np.einsum("...mm->...m", p)
    intf = p.sum(axis=-1) - sig + sigma2
    sinr = sig / intf
    return c, sinr, intf, bandwidth * np.log1p(sinr) / np.log(2.0)


def wsr(h, w, sigma2: float, bandwidth: float = 1.0,
        weights=None) -> RateReport:
    """Per-user rates and their weighted sum, for each realization; the
    rates are those of `rate_terms`."""
    if sigma2 <= 0.0:
        raise ValueError("noise variance sigma2 must be > 0")
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be > 0")
    rates = rate_terms(h, w, sigma2, bandwidth)[3]
    m = rates.shape[-1]
    omega = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    if omega.shape != (m,):
        raise ValueError(f"weights must have shape ({m},)")
    return RateReport(per_user_rates=rates, weighted_sum=rates @ omega)


def _rescale(ww: np.ndarray, p) -> np.ndarray:
    """ww scaled to budget p per satellite; dead blocks become zero.  p is
    a scalar, or (P, 1, ..., 1) budgets for beams ww that lead with the
    matching P axis."""
    out = ww.astype(complex)  # a copy in the layout of ww
    praw = np.sum(np.abs(out) ** 2, axis=(-2, -1), keepdims=True)
    dead = praw < ZERO_POWER
    out *= np.where(dead, 0.0, np.sqrt(p / np.where(dead, 1.0, praw)))
    return out


def _check_rank(mats: np.ndarray, local: bool) -> None:
    """SingularChannelError naming the first ill-conditioned matrix of a
    per-satellite stack (..., K, n_ant, M): its satellite if local, else
    the stacked system, a `pooled` transmitter."""
    bad = np.argwhere(np.linalg.cond(mats) > COND_LIMIT)
    if not len(bad):
        return
    *sample, sat = (int(i) for i in bad[0])
    where = [f"satellite {sat}" if local else "stacked system"]
    if sample:
        where.insert(0, "sample " + ",".join(map(str, sample)))
    raise SingularChannelError(
        f"rank-deficient channel matrix at {', '.join(where)}: "
        "zero-forcing requires linearly independent user channels")


def _inverse_directions(mats: np.ndarray, reg=None) -> np.ndarray:
    """H (H^H H + reg I)^{-1} for each (n_ant, M) matrix H of a stack.

    reg None gives the zero-forcing right pseudo-inverse; reg > 0 the
    regularized inversion (H H^H + reg I)^{-1} H.  Budget-shaped reg
    (P, 1, ..., 1) forms the Gram matrices once and solves all P systems
    in one stacked call, giving (P, ..., n_ant, M).
    """
    mh = mats.conj().swapaxes(-1, -2)
    gram = mh @ mats
    if reg is not None:
        gram = gram + reg * np.eye(mats.shape[-1])
    if gram.ndim > mh.ndim:
        # spelled out: numpy < 2 reads a right side of one axis less as
        # vectors; a scalar budget skips the cost of the view
        mh = np.broadcast_to(mh, gram.shape[:-1] + mh.shape[-1:])
    return np.linalg.solve(gram, mh).conj().swapaxes(-1, -2)


def _zf_normalize(wt: np.ndarray, power, normalization: str):
    """Scale each (n_ant, M) direction matrix of a stack to power watts.

    per_stream: every column gets power / M; trace: the matrix as a whole.
    A vector of P budgets takes the norms once and gives (P, ...) beams.
    """
    p = _budget(power, wt.ndim)
    if normalization == "per_stream":
        norms = np.linalg.norm(wt, axis=-2)
        return np.sqrt(p / wt.shape[-1]) * wt / norms[..., None, :]
    if normalization == "trace":
        praw = np.sum(np.abs(wt) ** 2, axis=(-2, -1), keepdims=True)
        return wt * np.sqrt(p / praw)
    raise ValueError("normalization must be 'per_stream' or 'trace'")


def _blocks(hh: np.ndarray) -> np.ndarray:
    """Per-satellite matrices whose columns are user channels, (..., K, N, M)."""
    return hh.swapaxes(-1, -2)


def _beams(wt: np.ndarray) -> np.ndarray:
    """Inverse of `_blocks`: (..., K, N, M) columns back to (..., K, M, N)."""
    return np.ascontiguousarray(wt.swapaxes(-1, -2))


def pooled(h) -> np.ndarray:
    """The K satellites as one transmitter of K*N antennas: (..., K, M, N)
    becomes (..., 1, M, K*N), user m's row h[k, m] concatenated over k."""
    hh = np.asarray(h)
    *lead, k_sats, m_users, n_ant = hh.shape
    return hh.swapaxes(-3, -2).reshape(*lead, 1, m_users, k_sats * n_ant)


def unpooled(w, k_sats: int, n_ant: int) -> np.ndarray:
    """Inverse of `pooled`: (..., 1, M, K*N) back to (..., K, M, N)."""
    *lead, _, m_users, _ = w.shape
    return w.reshape(*lead, m_users, k_sats, n_ant).swapaxes(-3, -2)


def _zf(hh: np.ndarray, power, normalization: str, local: bool):
    """Zero-forcing beams of each satellite of hh; `local` as in
    `_check_rank`."""
    mats = _blocks(hh)
    _check_rank(mats, local)
    return _beams(_zf_normalize(_inverse_directions(mats), power,
                                normalization))


def _mmse(hh: np.ndarray, power, sigma2: float, scheme: str):
    """Regularized-inversion beams of each satellite of hh, regularizer
    M sigma2 / P; ValueError naming `scheme` on a budget or noise <= 0."""
    p = _budget(power, hh.ndim)
    if _lowest(p) <= 0.0 or sigma2 <= 0.0:
        raise ValueError(f"{scheme} requires power > 0 and sigma2 > 0")
    wt = _inverse_directions(_blocks(hh), hh.shape[-2] * sigma2 / p)
    return _rescale(_beams(wt), p)


# --- local schemes (each satellite uses only its own channels) --------------

def mrt_local(h, power) -> BeamformerSet:
    """Match each beam to its own channel: w[k,m] = sqrt(P/M) h[k,m]/|h[k,m]|."""
    hh = _tensor(h, "channel")
    p = _budget(power, hh.ndim)
    m_users = hh.shape[-2]
    norms = np.linalg.norm(hh, axis=-1)
    dead = norms**2 < ZERO_POWER
    ww = np.sqrt(p / m_users) * hh / np.where(dead, 1.0, norms)[..., None]
    ww[..., dead, :] = 0.0
    return BeamformerSet(w=ww, power_budget=power, scope="per_satellite")


def zf_local(h, power, normalization: str = "per_stream") -> BeamformerSet:
    """Per-satellite zero forcing.

    Each satellite nulls its own inter-user interference.  Columns are
    renormalized to equal per-stream power sqrt(P/M); the 'trace' variant
    keeps the pseudo-inverse column shape and scales the block as a whole.

    Each satellite's own nulled gain is real and positive: under per_stream,
    h[k,m]^H w[k,m] = a_km sqrt(P/M) with a_km = 1/||column m of pinv(H_k)||.
    The satellites' contributions to c[m,m] therefore add coherently, while
    every cross gain c[m,i], i != m, stays exactly zero.
    """
    return BeamformerSet(
        w=_zf(_tensor(h, "channel"), power, normalization, local=True),
        power_budget=power, scope="per_satellite")


def mmse_local(h, power, sigma2: float) -> BeamformerSet:
    """Per-satellite regularized inversion, regularizer M sigma2 / P."""
    return BeamformerSet(
        w=_mmse(_tensor(h, "channel"), power, sigma2, "mmse_local"),
        power_budget=power, scope="per_satellite")


# --- global schemes: the local code on the `pooled` transmitter --------------

def zf_global(h, total_power) -> BeamformerSet:
    """Zero forcing on the stacked NK-antenna system, total power budget."""
    hh = _tensor(h, "channel")
    w = _zf(pooled(hh), total_power, "per_stream", local=False)
    return BeamformerSet(w=unpooled(w, hh.shape[-3], hh.shape[-1]),
                         power_budget=total_power, scope="total")


def mmse_global(h, total_power, sigma2: float) -> BeamformerSet:
    """Regularized inversion on the stacked system, total power budget."""
    hh = _tensor(h, "channel")
    w = _mmse(pooled(hh), total_power, sigma2, "mmse_global")
    return BeamformerSet(w=unpooled(w, hh.shape[-3], hh.shape[-1]),
                         power_budget=total_power, scope="total")
