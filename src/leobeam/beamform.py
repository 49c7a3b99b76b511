"""Weighted-sum-rate evaluation and classical beamforming baselines.

Channel tensors have shape (K, M, N): K satellites, M single-antenna user
terminals, N antennas per satellite.  Beamformer tensors share that shape;
w[k, m] is satellite k's beam for user m's stream.  The received signal of
stream i at user m aggregates coherently over satellites,
c[m, i] = sum_k h[k, m]^H w[k, i].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization

COND_LIMIT = 1e12       # condition number above which ZF refuses to invert
ZERO_POWER = 1e-30      # blocks below this raw power are left at zero


class SingularChannelError(RuntimeError):
    """Raised when a per-satellite channel matrix is too ill conditioned."""


@dataclass
class BeamformerSet:
    """w: (K, M, N) complex; power_budget in watts under the given scope."""

    w: np.ndarray
    power_budget: float
    scope: str = "per_satellite"  # or "total"

    def __post_init__(self):
        if self.w.ndim != 3:
            raise ValueError("beamformer tensor must have shape (K, M, N)")
        if self.scope not in ("per_satellite", "total"):
            raise ValueError("scope must be 'per_satellite' or 'total'")


@dataclass
class RateReport:
    per_user_rates: np.ndarray   # (M,) bits/s
    weighted_sum: float          # bits/s
    weights: np.ndarray
    bandwidth: float
    noise_var: float


def _channel_tensor(h) -> np.ndarray:
    if isinstance(h, ChannelRealization):
        return h.h
    arr = np.asarray(h)
    if arr.ndim != 3:
        raise ValueError("channel tensor must have shape (K, M, N)")
    return arr


def _beamformer_tensor(w) -> np.ndarray:
    if isinstance(w, BeamformerSet):
        return w.w
    arr = np.asarray(w)
    if arr.ndim != 3:
        raise ValueError("beamformer tensor must have shape (K, M, N)")
    return arr


def stream_gains(h, w) -> np.ndarray:
    """c[m, i] = sum_k h[k, m]^H w[k, i], shape (M, M)."""
    hh = _channel_tensor(h)
    ww = _beamformer_tensor(w)
    if hh.shape != ww.shape:
        raise ValueError(f"shape mismatch: channel {hh.shape} vs "
                         f"beamformer {ww.shape}")
    return np.einsum("kmn,kin->mi", hh.conj(), ww)


def wsr(h, w, sigma2: float, bandwidth: float = 1.0,
        weights=None) -> RateReport:
    """Per-user rates and their weighted sum.

    R_m = bandwidth * log2(1 + |c[m,m]|^2 / (sum_{i != m} |c[m,i]|^2 + sigma2))
    """
    if sigma2 <= 0.0:
        raise ValueError("noise variance sigma2 must be > 0")
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be > 0")
    c = stream_gains(h, w)
    m = c.shape[0]
    omega = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    if omega.shape != (m,):
        raise ValueError(f"weights must have shape ({m},)")
    p = np.abs(c) ** 2
    sig = p[np.arange(m), np.arange(m)]
    interf = p.sum(axis=1) - sig
    sinr = sig / (interf + sigma2)
    rates = bandwidth * np.log2(1.0 + sinr)
    return RateReport(per_user_rates=rates,
                      weighted_sum=float(omega @ rates),
                      weights=omega, bandwidth=bandwidth, noise_var=sigma2)


def enforce_power(w, power: float, scope: str = "per_satellite") -> BeamformerSet:
    """Rescale so the trace power meets the budget exactly.

    per_satellite: each satellite block is scaled to power watts.
    total:         the whole tensor is scaled to power watts.
    Blocks with raw power below ZERO_POWER stay identically zero.
    """
    ww = _beamformer_tensor(w).astype(complex, copy=True)
    if power < 0.0:
        raise ValueError("power budget must be >= 0")
    if scope == "per_satellite":
        praw = np.sum(np.abs(ww) ** 2, axis=(1, 2))
        scale = np.where(praw < ZERO_POWER, 0.0,
                         np.sqrt(power / np.where(praw < ZERO_POWER, 1.0, praw)))
        ww *= scale[:, None, None]
    elif scope == "total":
        praw = float(np.sum(np.abs(ww) ** 2))
        ww = ww * (0.0 if praw < ZERO_POWER else np.sqrt(power / praw))
    else:
        raise ValueError("scope must be 'per_satellite' or 'total'")
    return BeamformerSet(w=ww, power_budget=power, scope=scope)


# --- local schemes (each satellite uses only its own channels) --------------

def mrt_local(h, power: float) -> BeamformerSet:
    """Match each beam to its own channel: w[k,m] = sqrt(P/M) h[k,m]/|h[k,m]|."""
    hh = _channel_tensor(h)
    k_sats, m_users, _ = hh.shape
    norms = np.linalg.norm(hh, axis=2)
    safe = np.where(norms**2 < ZERO_POWER, 1.0, norms)
    ww = np.sqrt(power / m_users) * hh / safe[:, :, None]
    ww[norms**2 < ZERO_POWER] = 0.0
    return BeamformerSet(w=ww, power_budget=power, scope="per_satellite")


def _zf_directions(mat: np.ndarray, label: str) -> np.ndarray:
    """Right pseudo-inverse H (H^H H)^{-1} of an (n_ant, M) channel matrix."""
    if np.linalg.cond(mat) > COND_LIMIT:
        raise SingularChannelError(
            f"rank-deficient channel matrix at {label}: zero-forcing "
            "requires linearly independent user channels")
    gram = mat.conj().T @ mat
    return np.linalg.solve(gram, mat.conj().T).conj().T


def _mmse_directions(mat: np.ndarray, reg: float) -> np.ndarray:
    """(H H^H + reg I)^{-1} H, evaluated via H (H^H H + reg I)^{-1}."""
    m = mat.shape[1]
    gram = mat.conj().T @ mat + reg * np.eye(m)
    return np.linalg.solve(gram, mat.conj().T).conj().T


def _normalize_columns(wt: np.ndarray, per_stream_power: float) -> np.ndarray:
    norms = np.linalg.norm(wt, axis=0)
    return np.sqrt(per_stream_power) * wt / norms[None, :]


def zf_local(h, power: float, normalization: str = "per_stream") -> BeamformerSet:
    """Per-satellite zero forcing.

    Each satellite nulls its own inter-user interference.  Columns are
    renormalized to equal per-stream power sqrt(P/M); the 'trace' variant
    keeps the pseudo-inverse column shape and scales the block as a whole.

    Each satellite's own nulled gain is real and positive: under per_stream,
    h[k,m]^H w[k,m] = a_km sqrt(P/M) with a_km = 1/||column m of pinv(H_k)||.
    The satellites' contributions to c[m,m] therefore add coherently, while
    every cross gain c[m,i], i != m, stays exactly zero.
    """
    hh = _channel_tensor(h)
    k_sats, m_users, n_ant = hh.shape
    ww = np.empty_like(hh)
    for k in range(k_sats):
        mat = hh[k].T  # (N, M), columns are user channels
        wt = _zf_directions(mat, f"satellite {k}")
        if normalization == "per_stream":
            wt = _normalize_columns(wt, power / m_users)
        elif normalization == "trace":
            wt = wt * np.sqrt(power / np.sum(np.abs(wt) ** 2))
        else:
            raise ValueError("normalization must be 'per_stream' or 'trace'")
        ww[k] = wt.T
    return BeamformerSet(w=ww, power_budget=power, scope="per_satellite")


def mmse_local(h, power: float, sigma2: float) -> BeamformerSet:
    """Per-satellite regularized inversion, regularizer M sigma2 / P."""
    hh = _channel_tensor(h)
    k_sats, m_users, _ = hh.shape
    if power <= 0.0 or sigma2 <= 0.0:
        raise ValueError("mmse_local requires power > 0 and sigma2 > 0")
    reg = m_users * sigma2 / power
    ww = np.empty_like(hh)
    for k in range(k_sats):
        ww[k] = _mmse_directions(hh[k].T, reg).T
    return enforce_power(ww, power, scope="per_satellite")


# --- global schemes (stacked NK-antenna transmitter) -------------------------

def _stacked(hh: np.ndarray) -> np.ndarray:
    """Stack satellite antennas: column m is concat_k h[k, m], shape (KN, M)."""
    k_sats, m_users, n_ant = hh.shape
    return hh.transpose(1, 0, 2).reshape(m_users, k_sats * n_ant).T


def _split(w_stack: np.ndarray, k_sats: int, n_ant: int) -> np.ndarray:
    m_users = w_stack.shape[1]
    return w_stack.T.reshape(m_users, k_sats, n_ant).transpose(1, 0, 2)


def zf_global(h, total_power: float,
              normalization: str = "per_stream") -> BeamformerSet:
    """Zero forcing on the stacked NK-antenna system, total power budget."""
    hh = _channel_tensor(h)
    k_sats, m_users, n_ant = hh.shape
    wt = _zf_directions(_stacked(hh), "stacked system")
    if normalization == "per_stream":
        wt = _normalize_columns(wt, total_power / m_users)
    elif normalization == "trace":
        wt = wt * np.sqrt(total_power / np.sum(np.abs(wt) ** 2))
    else:
        raise ValueError("normalization must be 'per_stream' or 'trace'")
    return BeamformerSet(w=_split(wt, k_sats, n_ant),
                         power_budget=total_power, scope="total")


def mmse_global(h, total_power: float, sigma2: float) -> BeamformerSet:
    """Regularized inversion on the stacked system, total power budget."""
    hh = _channel_tensor(h)
    k_sats, m_users, n_ant = hh.shape
    if total_power <= 0.0 or sigma2 <= 0.0:
        raise ValueError("mmse_global requires power > 0 and sigma2 > 0")
    reg = m_users * sigma2 / total_power
    wt = _mmse_directions(_stacked(hh), reg)
    out = enforce_power(_split(wt, k_sats, n_ant), total_power, scope="total")
    return out
