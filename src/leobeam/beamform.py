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
MRT and zero-forcing norms.  Only the normalization, and for MMSE the
regularized solve (one stacked LAPACK call), runs per budget.  Each budget
gets the bits a scalar call with it gets.  Two rules meet budgets: power/M
per row (`_per_stream`: MRT, ZF) and per matrix (`normalize_power`: MMSE
and the network).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COND_LIMIT = 1e12       # condition number above which ZF refuses to invert
CERTIFY_LIMIT = 1e8     # condition bound below which ZF skips the exact SVD


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


def _per_stream(w: np.ndarray, power):
    """Each row (user) of w scaled to power / M watts; a vector of P budgets
    takes the norms once and gives (P, ...) beams.  Rows are prescaled or
    ZF directions, so no nonzero norm is subnormal: only a zero row stays 0."""
    p = _budget(power, w.ndim)
    # np.linalg.norm's kernel without its Python wrapper (1 us a call)
    norms = np.sqrt(np.add.reduce((w.conj() * w).real, -1, keepdims=True))
    tiny = np.finfo(norms.dtype).tiny
    return np.sqrt(p / w.shape[-2]) * w / np.maximum(norms, tiny)


def _power_scale(w: np.ndarray, power):
    """(raw power, scale factor), (..., 1, 1), of each (M, N) matrix of w; a
    vector of P budgets leads w, (P, ..., M, N).  The factor brings a matrix
    to its budget; it is 0 where the raw power is exactly 0, NaN where that
    overflowed (so the beams fail a finite check instead of becoming zero)."""
    # add.reduce is np.sum's kernel without its Python wrapper (1 us a call)
    praw = np.add.reduce(w.real ** 2 + w.imag ** 2, (-2, -1), keepdims=True)
    p = _budget(power, praw.ndim - 1)
    alpha = np.sqrt(p / np.where(praw == 0, np.inf, praw))
    alpha[praw == np.inf] = np.nan
    return praw, alpha


def normalize_power(w: np.ndarray, power) -> np.ndarray:
    """Each trailing (M, N) beam matrix of w scaled to exact trace power."""
    return w * _power_scale(w, power)[1]


def _prescaled(hh: np.ndarray, axis) -> np.ndarray:
    """hh with each row (axis -1) or matrix (axes (-2, -1)) scaled by the
    power of two 2^-e that brings its largest |re| or |im| into [0.5, 1),
    e from `np.frexp`.  The scaling is exact, so norms and Gram products
    can be taken without their squares underflowing or overflowing; an
    all-zero or non-finite block keeps its scale."""
    x = np.ascontiguousarray(hh, dtype=np.result_type(hh, 1.0))
    parts = x.view(x.real.dtype)   # re and im interleaved along the row
    _, e = np.frexp(np.abs(parts).max(axis=axis, keepdims=True))
    return np.ldexp(parts, -e).view(x.dtype)


def _certified(mats: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """True for each matrix H of a stack (..., n_ant, M) that the
    zero-forcing directions wt = H (H^H H)^{-1} solved for it certify as
    well conditioned (see `_check_rank`)."""
    x = wt.conj().swapaxes(-1, -2)
    with np.errstate(all="ignore"):  # a non-finite matrix is not certified
        r = np.sqrt(_squared_norms(x @ mats - np.eye(mats.shape[-1])))
        bound = np.sqrt(_squared_norms(mats) * _squared_norms(x)) / (1.0 - r)
    return (r <= 0.5) & (bound <= CERTIFY_LIMIT)


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack (..., a, b)."""
    return (x * x.conj()).real.sum(axis=(-2, -1))


def _check_rank(mats: np.ndarray, local: bool, wt=None) -> None:
    """SingularChannelError naming the first ill-conditioned matrix of a
    per-satellite stack (..., K, n_ant, M): its satellite if local, else
    the stacked system, a `pooled` transmitter.  With fewer antennas than
    users every matrix is rank-deficient, whatever its condition number.

    Without wt every matrix gets the exact condition number, one SVD each.
    With the zero-forcing directions wt already solved for, a matrix H is
    certified without one.  For X = wt^H and R = X H - I, ||R||_F < 1
    makes (X H)^{-1} X a left inverse of H of 2-norm at most
    ||X||_F / (1 - ||R||_F), and no left inverse has a smaller 2-norm than
    the minimum-norm one, 1 / sigma_min(H).  With sigma_max(H) <= ||H||_F,

        cond_2(H) <= ||H||_F ||X||_F / (1 - ||R||_F)

    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 14).  A matrix is certified when ||R||_F <= 1/2 and this bound is
    at most CERTIFY_LIMIT, a factor 1e4 below COND_LIMIT that absorbs the
    rounding in R and in the norms; so the exact check passes every
    certified matrix.  Every other one, a non-finite one included, gets
    the exact condition number, so the decision and its message are those
    of the exact check.
    """
    n_ant, m_users = mats.shape[-2:]
    if n_ant < m_users:
        cond = np.full(mats.shape[:-2], np.inf)
    else:
        certified = (np.zeros(mats.shape[:-2], bool) if wt is None
                     else _certified(mats, wt))
        if certified.all():
            return
        cond = np.zeros(mats.shape[:-2])
        cond[~certified] = np.linalg.cond(mats[~certified])
    bad = np.argwhere(cond > COND_LIMIT)
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


def _zf(hh: np.ndarray, power, local: bool):
    """Zero-forcing beams of each satellite of hh; `local` as in
    `_check_rank`.  Each matrix is prescaled (`_prescaled`), which the
    normalized beams do not depend on, so no Gram product underflows or
    overflows; its rank is checked on the solve's own result."""
    mats = _blocks(_prescaled(hh, (-2, -1)))
    wt = None
    if mats.shape[-2] >= mats.shape[-1]:  # else no matrix has full rank
        try:
            wt = _inverse_directions(mats)
        except np.linalg.LinAlgError:
            _check_rank(mats, local)   # names a rank-deficient matrix
            raise
    _check_rank(mats, local, wt)
    return _per_stream(_beams(wt), power)


def _mmse(hh: np.ndarray, power, sigma2: float, scheme: str):
    """Regularized-inversion beams of each satellite of hh, regularizer
    M sigma2 / P; ValueError naming `scheme` on a budget or noise <= 0.
    Where noise dominates the directions shrink as H / reg, so each beam
    matrix is prescaled (`_prescaled`) before its power is taken."""
    p = _budget(power, hh.ndim)
    if _lowest(p) <= 0.0 or sigma2 <= 0.0:
        raise ValueError(f"{scheme} requires power > 0 and sigma2 > 0")
    wt = _inverse_directions(_blocks(hh), hh.shape[-2] * sigma2 / p)
    return normalize_power(_prescaled(_beams(wt), (-2, -1)), power)


# --- local schemes (each satellite uses only its own channels) --------------

def mrt_local(h, power) -> BeamformerSet:
    """Match each beam to its own channel: w[k,m] = sqrt(P/M) h[k,m]/|h[k,m]|.

    The row is prescaled (`_prescaled`), so a weak channel gets a full
    beam at any scale; only an all-zero row gives a zero beam."""
    ww = _per_stream(_prescaled(_tensor(h, "channel"), -1), power)
    return BeamformerSet(w=ww, power_budget=power, scope="per_satellite")


def zf_local(h, power) -> BeamformerSet:
    """Per-satellite zero forcing.

    Each satellite nulls its own inter-user interference.  Columns are
    renormalized to equal per-stream power sqrt(P/M).

    Each satellite's own nulled gain is real and positive:
    h[k,m]^H w[k,m] = a_km sqrt(P/M) with a_km = 1/||column m of pinv(H_k)||.
    The satellites' contributions to c[m,m] therefore add coherently, while
    every cross gain c[m,i], i != m, stays exactly zero.
    """
    return BeamformerSet(
        w=_zf(_tensor(h, "channel"), power, local=True),
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
    w = _zf(pooled(hh), total_power, local=False)
    return BeamformerSet(w=unpooled(w, hh.shape[-3], hh.shape[-1]),
                         power_budget=total_power, scope="total")


def mmse_global(h, total_power, sigma2: float) -> BeamformerSet:
    """Regularized inversion on the stacked system, total power budget."""
    hh = _tensor(h, "channel")
    w = _mmse(pooled(hh), total_power, sigma2, "mmse_global")
    return BeamformerSet(w=unpooled(w, hh.shape[-3], hh.shape[-1]),
                         power_budget=total_power, scope="total")
