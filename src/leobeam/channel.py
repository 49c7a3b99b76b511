"""Shadowed-Rician channel synthesis for multi-satellite downlinks.

Each scalar link from a satellite antenna to a single-antenna user terminal
is modelled as ``C_L * sqrt(b(phi)) * h_tilde`` where ``C_L`` is a free-space
path-loss coefficient, ``b(phi)`` a two-Bessel beam-pattern gain and
``h_tilde`` a Shadowed-Rician fading draw: Rayleigh scatter plus a
Nakagami-m line-of-sight component with deterministic phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import jv

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
    phi          : beam angle(s), rad; scalar applied to all UTs or one per UT
    phi_3db      : 3 dB beamwidth angle, rad
    dh           : horizontal offset between beam centre and UT cluster (m)
    los_phase    : deterministic phase of the LOS component, rad
    full_scatter_phase : draw the scatter phase on [0, 2pi) instead of [0, pi]
    """

    d0: float
    carrier_freq: float
    b_max: float
    phi: float | tuple
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
        phi = self.phi
        if isinstance(phi, (list, np.ndarray)):
            object.__setattr__(self, "phi", tuple(float(p) for p in phi))
            phi = self.phi
        vals = phi if isinstance(phi, tuple) else (phi,)
        for p in vals:
            if not 0.0 <= p < np.pi / 2:
                raise ValueError("beam angle phi must lie in [0, pi/2)")


def bessel_j(order: int, x) -> float | np.ndarray:
    """First-kind Bessel function, orders 1 and 3 only."""
    if order not in (1, 3):
        raise ValueError("bessel_j supports orders 1 and 3 only")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("bessel_j argument must be >= 0")
    out = jv(order, x)
    return float(out) if out.ndim == 0 else out


def beam_gain(phi, phi_3db: float, b_max: float):
    """Beam-pattern gain b(phi) = b_max * (J1(u)/(2u) + 36*J3(u)/u^3)^2.

    u = HALF_POWER_U * sin(phi) / sin(phi_3db).  The u -> 0 limit of the
    bracket is 1/4 + 3/4 = 1, so the boresight gain is b_max.  Small u is
    evaluated through the ascending series of both terms to avoid 0/0.
    """
    phi_arr = np.asarray(phi, dtype=float)
    if np.any(phi_arr < 0.0) or np.any(phi_arr >= np.pi / 2):
        raise ValueError("beam angle phi must lie in [0, pi/2)")
    if not 0.0 < phi_3db < np.pi / 2:
        raise ValueError("phi_3db must lie in (0, pi/2)")
    if b_max <= 0.0:
        raise ValueError("b_max must be > 0")

    u = HALF_POWER_U * np.sin(phi_arr) / np.sin(phi_3db)
    u = np.atleast_1d(u)
    pattern = np.empty_like(u)

    small = u < 1e-3
    if np.any(small):
        t = (u[small] / 2.0) ** 2
        j1_term = 0.25 * (1.0 - t / 2.0 + t**2 / 12.0 - t**3 / 144.0)
        j3_term = 0.75 * (1.0 - t / 4.0 + t**2 / 40.0 - t**3 / 720.0)
        pattern[small] = j1_term + j3_term
    big = ~small
    if np.any(big):
        ub = u[big]
        pattern[big] = jv(1, ub) / (2.0 * ub) + 36.0 * jv(3, ub) / ub**3

    gain = b_max * pattern**2
    if np.asarray(phi).ndim == 0:
        return float(gain[0])
    return gain


def path_loss_coeff(d0: float, dh: float, carrier_freq: float) -> float:
    """Free-space amplitude coefficient lambda / (4 pi sqrt(d0^2 + dh^2))."""
    if d0 <= 0.0 or dh < 0.0 or carrier_freq <= 0.0:
        raise ValueError("require d0 > 0, dh >= 0, carrier_freq > 0")
    lam = SPEED_OF_LIGHT / carrier_freq
    return lam / (4.0 * np.pi * np.hypot(d0, dh))


# --- fading draws -----------------------------------------------------------

def sample_rayleigh_amplitude(b: float, rng: np.random.Generator, size=None):
    """Rayleigh amplitude with E[A^2] = 2b, via sqrt of an Exponential(2b)."""
    return np.sqrt(rng.exponential(2.0 * b, size=size))


def sample_nakagami_amplitude(m: float, omega: float, rng: np.random.Generator,
                              size=None):
    """Nakagami-m amplitude with E[Z^2] = omega, via sqrt of a Gamma draw."""
    return np.sqrt(rng.gamma(m, omega / m, size=size))


def sample_shadowed_rician(fading: FadingParams, los_phase: float,
                           rng: np.random.Generator, size=None,
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
    h = amp * np.exp(1j * psi) + los * np.exp(1j * los_phase)
    if size is None:
        return complex(h)
    return h


def deterministic_amplitudes(params: ChannelParams, m_users: int) -> np.ndarray:
    """Per-UT deterministic amplitude C_L * sqrt(b(phi_m)), shape (M,)."""
    c_l = path_loss_coeff(params.d0, params.dh, params.carrier_freq)
    phi = params.phi
    if isinstance(phi, tuple):
        if len(phi) != m_users:
            raise ValueError(
                f"per-UT phi list has {len(phi)} entries, expected {m_users}")
        gains = beam_gain(np.array(phi), params.phi_3db, params.b_max)
    else:
        gains = np.full(m_users, beam_gain(phi, params.phi_3db, params.b_max))
    return c_l * np.sqrt(gains)


def sample_channel_batch(params: ChannelParams, count: int, k_sats: int,
                         m_users: int, n_antennas: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Draw `count` i.i.d. channel tensors, shape (count, K, M, N) complex."""
    shape = (count, k_sats, m_users, n_antennas)
    h_tilde = sample_shadowed_rician(
        params.fading, params.los_phase, rng, size=shape,
        full_scatter_phase=params.full_scatter_phase)
    amp = deterministic_amplitudes(params, m_users)
    return h_tilde * amp[None, None, :, None]
