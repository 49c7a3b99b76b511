"""Shadowed-Rician channel synthesis for multi-satellite downlinks.

Each scalar link from a satellite antenna to a single-antenna user terminal
is modelled as ``C_L * sqrt(b(phi)) * h_tilde`` where ``C_L`` is a free-space
path-loss coefficient, ``b(phi)`` a two-Bessel beam-pattern gain and
``h_tilde`` a Shadowed-Rician fading draw: Rayleigh scatter plus a
Nakagami-m line-of-sight component with deterministic phase.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Pattern argument at which the two-Bessel beam gain crosses one half, so the
# -3 dB point of the pattern lands exactly at phi_3db.
HALF_POWER_U = 2.07123


@dataclass(frozen=True)
class FadingParams:
    """Shadowed-Rician triple.

    b      : half the average scattered power, E[A^2] = 2b
    m      : Nakagami shape of the line-of-sight amplitude, m >= 0.5
    omega  : average line-of-sight power, E[Z^2] = omega
    """

    b: float
    m: float
    omega: float

    def __post_init__(self):
        if self.b < 0.0:
            raise ValueError("fading parameter b must be >= 0")
        if self.m < 0.5:
            raise ValueError("Nakagami shape m must be >= 0.5")
        if self.omega < 0.0:
            raise ValueError("LOS power omega must be >= 0")


@dataclass(frozen=True)
class ChannelParams:
    """Deterministic link geometry plus the fading law.

    d0           : satellite altitude above the coverage centre (m)
    carrier_freq : carrier frequency (Hz)
    b_max        : boresight antenna gain, linear
    phi          : beam angles, rad, one per UT
    phi_3db      : 3 dB beamwidth angle, rad
    dh           : horizontal offset between beam centre and UT cluster (m)
    los_phase    : deterministic phase of the LOS component, rad
    full_scatter_phase : draw the scatter phase on [0, 2pi) instead of [0, pi]
    """

    d0: float
    carrier_freq: float
    b_max: float
    phi: tuple
    phi_3db: float
    fading: FadingParams
    dh: float = 0.0
    los_phase: float = 0.0
    full_scatter_phase: bool = False

    def __post_init__(self):
        if self.d0 <= 0.0:
            raise ValueError("altitude d0 must be > 0")
        if self.dh < 0.0:
            raise ValueError("offset dh must be >= 0")
        if self.carrier_freq <= 0.0:
            raise ValueError("carrier_freq must be > 0")
        if self.b_max <= 0.0:
            raise ValueError("b_max must be > 0")
        if not 0.0 < self.phi_3db < np.pi / 2:
            raise ValueError("phi_3db must lie in (0, pi/2)")
        for p in self.phi:
            if not 0.0 <= p < np.pi / 2:
                raise ValueError("beam angle phi must lie in [0, pi/2)")


# --- first-kind Bessel functions J1, J3 ---------------------------------------
#
# Three pieces, each accurate to about 1e-16 absolute where it is used:
# the ascending series for u <= SERIES_MAX, Miller's downward recurrence up
# to HANKEL_MIN, and Hankel's asymptotic expansion beyond.

SERIES_MAX = 4.0
HANKEL_MIN = 30.0
_SERIES_TERMS = 18      # the last term at u = 4 is below 1e-19
_MILLER_START = 80      # even; J_80(30) is below 1e-23
_HANKEL_TERMS = 20      # the last term at u = 30 is below 1e-17


def _series_coeffs(weights):
    """Coefficients in t = -u^2/4 of sum_n weight_n J_n(u) / (u/2)^n."""
    return [sum(wt / (math.factorial(k) * math.factorial(k + n))
                for n, wt in weights) for k in range(_SERIES_TERMS)]


_J1_SERIES = _series_coeffs([(1, 1.0)])
_J3_SERIES = _series_coeffs([(3, 1.0)])
# J1(u)/(2u) + 36 J3(u)/u^3 = (1/4) J1/(u/2) + (9/2) J3/(u/2)^3
_BRACKET_SERIES = _series_coeffs([(1, 0.25), (3, 4.5)])


def _hankel_coeffs(order: int) -> list:
    """a_k = prod_{j<=k} (4 order^2 - (2j-1)^2) / (k! 8^k)."""
    mu = 4.0 * order * order
    coeffs = [1.0]
    for k in range(1, _HANKEL_TERMS):
        coeffs.append(coeffs[-1] * (mu - (2 * k - 1) ** 2) / (8.0 * k))
    return coeffs


_HANKEL = {1: _hankel_coeffs(1), 3: _hankel_coeffs(3)}


def _series(coeffs, u: np.ndarray) -> np.ndarray:
    """Horner's rule in t = -u^2/4."""
    t = -0.25 * u * u
    total = np.full_like(u, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        total = total * t + c
    return total


def _miller(u: np.ndarray):
    """(J1, J3) by downward recurrence J_{k-1} = (2k/u) J_k - J_{k+1} from
    J_80 = 1, J_81 = 0, normalized by J0 + 2 sum J_2k = 1."""
    two_over_u = 2.0 / u
    above, cur = np.zeros_like(u), np.ones_like(u)
    norm = np.zeros_like(u)
    j1 = j3 = None
    for k in range(_MILLER_START, 0, -1):
        above, cur = cur, k * two_over_u * cur - above
        if k == 4:
            j3 = cur
        elif k == 2:
            j1 = cur
        if k % 2:
            norm += 2.0 * cur if k > 1 else cur
    return j1 / norm, j3 / norm


def _hankel(order: int, u: np.ndarray) -> np.ndarray:
    """sqrt(2/(pi u)) (P cos chi - Q sin chi), chi = u - (2 order + 1) pi/4.

    cos chi and sin chi come from cos u and sin u, whose argument
    reduction is exact, so huge u keeps its accuracy; u = inf gives 0.
    """
    a = _HANKEL[order]
    z = 1.0 / u
    z2 = z * z
    p, q = np.zeros_like(u), np.zeros_like(u)
    for k in reversed(range(_HANKEL_TERMS // 2)):
        sign = -1.0 if k % 2 else 1.0
        p = p * z2 + sign * a[2 * k]
        q = q * z2 + sign * a[2 * k + 1]
    q *= z
    finite = np.minimum(u, np.finfo(float).max)
    cu, su = np.cos(finite), np.sin(finite)
    phase = (2 * order + 1) * math.pi / 4.0
    cp, sp = math.cos(phase), math.sin(phase)
    cos_chi = cu * cp + su * sp
    sin_chi = su * cp - cu * sp
    return np.sqrt((2.0 / math.pi) / u) * (p * cos_chi - q * sin_chi)


def _j1_j3(u: np.ndarray):
    """J1(u) and J3(u) of a 1-D array u >= 0."""
    j1, j3 = np.empty_like(u), np.empty_like(u)
    low = u <= SERIES_MAX
    high = u > HANKEL_MIN
    mid = ~(low | high)
    if np.any(low):
        half = 0.5 * u[low]
        j1[low] = half * _series(_J1_SERIES, u[low])
        j3[low] = half ** 3 * _series(_J3_SERIES, u[low])
    if np.any(mid):
        j1[mid], j3[mid] = _miller(u[mid])
    if np.any(high):
        j1[high] = _hankel(1, u[high])
        j3[high] = _hankel(3, u[high])
    return j1, j3


def bessel_j(order: int, x) -> float | np.ndarray:
    """First-kind Bessel function, orders 1 and 3 only, x >= 0."""
    if order not in (1, 3):
        raise ValueError("bessel_j supports orders 1 and 3 only")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("bessel_j argument must be >= 0")
    out = _j1_j3(np.atleast_1d(x).ravel())[0 if order == 1 else 1]
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def beam_gain(phi, phi_3db: float, b_max: float):
    """Beam-pattern gain b(phi) = b_max * (J1(u)/(2u) + 36*J3(u)/u^3)^2.

    u = HALF_POWER_U * sin(phi) / sin(phi_3db).  The u -> 0 limit of the
    bracket is 1/4 + 3/4 = 1, so the boresight gain is b_max.  Up to
    SERIES_MAX the bracket is one ascending series, with no 0/0 at u = 0
    and full relative accuracy; an infinite u gives gain 0.
    """
    phi_arr = np.asarray(phi, dtype=float)
    if np.any(phi_arr < 0.0) or np.any(phi_arr >= np.pi / 2):
        raise ValueError("beam angle phi must lie in [0, pi/2)")
    if not 0.0 < phi_3db < np.pi / 2:
        raise ValueError("phi_3db must lie in (0, pi/2)")
    if b_max <= 0.0:
        raise ValueError("b_max must be > 0")

    with np.errstate(over="ignore"):  # a subnormal sin(phi_3db): u = inf
        u = HALF_POWER_U * np.sin(phi_arr) / np.sin(phi_3db)
    gain = b_max * _bracket(np.atleast_1d(u)) ** 2
    if np.asarray(phi).ndim == 0:
        return float(gain[0])
    return gain


def _bracket(u: np.ndarray) -> np.ndarray:
    """J1(u)/(2u) + 36 J3(u)/u^3 of a 1-D array u >= 0."""
    out = np.empty_like(u)
    low = u <= SERIES_MAX
    if np.any(low):
        out[low] = _series(_BRACKET_SERIES, u[low])
    if not np.all(low):
        ub = u[~low]
        j1, j3 = _j1_j3(ub)
        # divided step by step, so no huge u overflows
        out[~low] = 0.5 * j1 / ub + 36.0 * j3 / ub / ub / ub
    return out


def path_loss_coeff(d0: float, dh: float, carrier_freq: float) -> float:
    """Free-space amplitude coefficient lambda / (4 pi sqrt(d0^2 + dh^2))."""
    if d0 <= 0.0 or dh < 0.0 or carrier_freq <= 0.0:
        raise ValueError("require d0 > 0, dh >= 0, carrier_freq > 0")
    lam = SPEED_OF_LIGHT / carrier_freq
    return lam / (4.0 * np.pi * np.hypot(d0, dh))


# --- fading draws -----------------------------------------------------------

def sample_rayleigh_amplitude(b: float, rng: np.random.Generator, size):
    """Rayleigh amplitude with E[A^2] = 2b, via sqrt of an Exponential(2b)."""
    # + 0.0 turns b = -0.0, whose scale numpy rejects, into 0
    return np.sqrt(rng.exponential(2.0 * b + 0.0, size=size))


def sample_nakagami_amplitude(m: float, omega: float, rng: np.random.Generator,
                              size):
    """Nakagami-m amplitude with E[Z^2] = omega, via sqrt of a Gamma draw."""
    return np.sqrt(rng.gamma(m, omega / m + 0.0, size=size))  # as above


def sample_shadowed_rician(fading: FadingParams, los_phase: float,
                           rng: np.random.Generator, size,
                           full_scatter_phase: bool = False):
    """Draw h_tilde = A exp(j psi) + Z exp(j los_phase).

    A is Rayleigh with E[A^2] = 2b, Z is Nakagami-m with E[Z^2] = omega and
    psi is uniform on [0, pi] (or [0, 2 pi) with full_scatter_phase).  Draw
    order is fixed: scatter amplitude, scatter phase, LOS amplitude, each as
    a single array of the requested shape, so entry (k, m, n) of a batch is
    a fixed function of the generator state regardless of iteration order.
    """
    amp = sample_rayleigh_amplitude(fading.b, rng, size)
    hi = 2.0 * np.pi if full_scatter_phase else np.pi
    psi = rng.uniform(0.0, hi, size=size)
    los = sample_nakagami_amplitude(fading.m, fading.omega, rng, size)
    # exp(j psi) is (cos psi, sin psi) bit for bit; built in one buffer
    h = np.empty(psi.shape, dtype=complex)
    np.cos(psi, out=h.real)
    np.sin(psi, out=h.imag)
    h *= amp
    h += los * np.exp(1j * los_phase)
    return h


@functools.lru_cache(maxsize=64)
def deterministic_amplitudes(params: ChannelParams, m_users: int) -> np.ndarray:
    """Per-UT deterministic amplitude C_L * sqrt(b(phi_m)), shape (M,).

    Computed once per (params, m_users) and returned read-only."""
    c_l = path_loss_coeff(params.d0, params.dh, params.carrier_freq)
    if len(params.phi) != m_users:
        raise ValueError(f"per-UT phi list has {len(params.phi)} entries, "
                         f"expected {m_users}")
    amps = c_l * np.sqrt(beam_gain(np.array(params.phi), params.phi_3db,
                                   params.b_max))
    amps.flags.writeable = False
    return amps


def sample_channel_batch(params: ChannelParams, count: int, k_sats: int,
                         m_users: int, n_antennas: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Draw `count` i.i.d. channel tensors, shape (count, K, M, N) complex."""
    shape = (count, k_sats, m_users, n_antennas)
    h_tilde = sample_shadowed_rician(
        params.fading, params.los_phase, rng, size=shape,
        full_scatter_phase=params.full_scatter_phase)
    h_tilde *= deterministic_amplitudes(params, m_users)[:, None]
    return h_tilde
