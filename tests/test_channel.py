"""Channel synthesis tests: Bessel oracle, beam pattern, fading moments."""

import math

import numpy as np
import pytest

from leobeam import channel
from leobeam.experiments import ExperimentConfig

# Frozen reference values, computed with 30-digit arbitrary-precision
# arithmetic (independent of the implementation under test).
J1_AT_1 = 0.44005058574493352
J3_AT_2 = 0.12894324947440205
GAIN_RATIO_001_04 = 0.9995811279424689   # b(0.01 deg)/b_max at 0.4 deg width
PATH_COEFF_600KM_20GHZ = 1.9880604830153926e-9

FADING = channel.FadingParams(b=0.063, m=2.0, omega=8.97e-4)


def bessel_series(order: int, x: float) -> float:
    """Ascending-series J_n(x), 30 terms. Independent oracle route."""
    total = 0.0
    for t in range(30):
        term = (-1.0) ** t / (math.factorial(t) * math.factorial(t + order))
        total += term * (x / 2.0) ** (2 * t + order)
    return total


class TestBessel:
    def test_frozen_values(self):
        assert channel.bessel_j(1, 1.0) == pytest.approx(J1_AT_1, rel=1e-14)
        assert channel.bessel_j(3, 2.0) == pytest.approx(J3_AT_2, rel=1e-14)

    def test_series_oracle_grid(self):
        # 100-point grid over [0, 5], both orders used by the beam pattern
        xs = np.linspace(0.0, 5.0, 100)
        for order in (1, 3):
            got = channel.bessel_j(order, xs)
            want = np.array([bessel_series(order, float(x)) for x in xs])
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            channel.bessel_j(2, 1.0)


class TestBeamGain:
    def test_boresight_is_bmax(self):
        # u -> 0 limit of the pattern is exactly 1
        assert channel.beam_gain(0.0, math.radians(0.4), 7.0) == \
            pytest.approx(7.0, rel=1e-12)

    def test_half_power_at_3db_angle(self):
        phi3 = math.radians(0.4)
        g = channel.beam_gain(phi3, phi3, 1.0)
        # 2.07123 is a rounded root, so exact 0.5 is not expected
        assert g == pytest.approx(0.5, abs=1e-4)

    def test_near_boresight_frozen_value(self):
        g = channel.beam_gain(math.radians(0.01), math.radians(0.4), 1.0)
        assert g == pytest.approx(GAIN_RATIO_001_04, rel=1e-12)

    def test_series_branch_joins_bessel_branch(self):
        # the neighbouring floats on either side of each piece boundary:
        # series | recurrence at u = 4, recurrence | asymptotic at u = 30
        for edge in (channel.SERIES_MAX, channel.HANKEL_MIN):
            u = np.array([np.nextafter(edge, 0.0), np.nextafter(edge, 9.0e9)])
            lo, hi = channel._bracket(u)
            assert lo == pytest.approx(hi, rel=1e-13, abs=1e-16)
            for order in (1, 3):
                lo, hi = channel.bessel_j(order, u)
                assert abs(lo - hi) <= 1e-15

    def test_monotone_decay_in_main_lobe(self):
        phi3 = math.radians(0.4)
        angles = np.radians(np.linspace(0.0, 0.4, 20))
        gains = [channel.beam_gain(a, phi3, 1.0) for a in angles]
        assert all(a > b for a, b in zip(gains, gains[1:]))


class TestPathLoss:
    def test_frozen_value(self):
        got = channel.path_loss_coeff(600e3, 0.0, 20e9)
        assert got == pytest.approx(PATH_COEFF_600KM_20GHZ, rel=1e-12)

    def test_altitude_offset_shortens_nothing(self):
        flat = channel.path_loss_coeff(600e3, 0.0, 20e9)
        tilted = channel.path_loss_coeff(600e3, 100e3, 20e9)
        assert tilted < flat


class TestFadingMoments:
    def test_second_moment_matches_parameters(self):
        # E|h|^2 = 2b + Omega, frozen 0.126897 for the default fading triple
        rng = np.random.Generator(np.random.Philox(123))
        h = channel.sample_shadowed_rician(FADING, 0.0, rng, size=1_000_000)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(0.126897, rel=0.02)

    def test_scatter_power(self):
        rng = np.random.Generator(np.random.Philox(7))
        a = channel.sample_rayleigh_amplitude(FADING.b, rng, 500_000)
        assert np.mean(a ** 2) == pytest.approx(2 * FADING.b, rel=0.02)

    def test_los_power(self):
        rng = np.random.Generator(np.random.Philox(8))
        z = channel.sample_nakagami_amplitude(FADING.m, FADING.omega, rng,
                                              500_000)
        assert np.mean(z ** 2) == pytest.approx(FADING.omega, rel=0.02)

    def test_heavy_shadowing_concentrates_los(self):
        # large m: Nakagami amplitude concentrates at sqrt(omega)
        rng = np.random.Generator(np.random.Philox(9))
        z = channel.sample_nakagami_amplitude(500.0, 1.0, rng, 200_000)
        assert float(np.std(z)) < 0.05

    def test_zero_parameters_give_zero(self):
        rng = np.random.Generator(np.random.Philox(10))
        h = channel.sample_shadowed_rician(
            channel.FadingParams(b=0.0, m=2.0, omega=0.0), 0.0, rng,
            size=100)
        assert np.all(h == 0)

    def test_half_range_scatter_phase_biases_imag_up(self):
        rng = np.random.Generator(np.random.Philox(11))
        h = channel.sample_shadowed_rician(FADING, 0.0, rng, size=200_000)
        # scatter phase on [0, pi): mean imaginary part is E[A]*2/pi > 0
        assert np.mean(h.imag) > 0.01

    def test_full_range_scatter_phase_is_unbiased(self):
        rng = np.random.Generator(np.random.Philox(12))
        h = channel.sample_shadowed_rician(FADING, 0.0, rng, size=200_000,
                                           full_scatter_phase=True)
        assert abs(np.mean(h.imag)) < 0.005

    def test_los_phase_rotates_los_term(self):
        rng1 = np.random.Generator(np.random.Philox(13))
        rng2 = np.random.Generator(np.random.Philox(13))
        h0 = channel.sample_shadowed_rician(FADING, 0.0, rng1, size=50_000)
        h1 = channel.sample_shadowed_rician(FADING, math.pi / 2, rng2,
                                            size=50_000)
        # identical draws, so the difference is Z*(e^{j pi/2} - 1)
        diff = h1 - h0
        assert np.all(diff.real <= 1e-15)
        assert np.all(diff.imag >= -1e-15)
        z = np.abs(diff) / math.sqrt(2.0)
        np.testing.assert_allclose(np.mean(z ** 2), FADING.omega, rtol=0.05)


def _params(phi=(0.01, 0.01, 0.01, 0.01)):
    return channel.ChannelParams(
        d0=600e3, carrier_freq=20e9, b_max=10 ** 5.2,
        phi=tuple(math.radians(p) for p in phi),
        phi_3db=math.radians(0.4), fading=FADING)


def _draw(seed, count=1, k=2, m=4, n=4):
    rng = np.random.Generator(np.random.Philox(seed))
    return channel.sample_channel_batch(_params(), count, k, m, n, rng)


class TestChannelTensor:
    def test_shapes_and_dtype(self):
        h = _draw(3, count=5, n=3)
        assert h.shape == (5, 2, 4, 3)
        assert h.dtype == np.complex128

    def test_seed_determinism(self):
        a = _draw(42, count=3)
        np.testing.assert_array_equal(a, _draw(42, count=3))
        assert not np.array_equal(a, _draw(43, count=3))

    def test_entry_mean_power(self):
        # |h|^2 mean per entry is C_L^2 b(phi) (2b + Omega)
        p = _params()
        rng = np.random.Generator(np.random.Philox(77))
        h = channel.sample_channel_batch(p, 2000, 2, 4, 4, rng)
        cl = channel.path_loss_coeff(p.d0, p.dh, p.carrier_freq)
        want = cl ** 2 * channel.beam_gain(
            math.radians(0.01), p.phi_3db, p.b_max) * 0.126897
        got = float(np.mean(np.abs(h) ** 2))
        assert got == pytest.approx(want, rel=0.05)

    def test_deterministic_amplitudes(self):
        p = _params(phi=(0.0, 0.01, 0.02, 0.05))
        amps = channel.deterministic_amplitudes(p, 4)
        assert amps.shape == (4,)
        # boresight user has the largest deterministic gain
        assert np.argmax(amps) == 0
        cl = channel.path_loss_coeff(p.d0, p.dh, p.carrier_freq)
        assert amps[0] == pytest.approx(cl * math.sqrt(p.b_max), rel=1e-12)

    def test_scalar_phi_broadcasts(self):
        # one configured angle serves every user
        p = ExperimentConfig(m_users=3, phi_deg=(0.01,)).channel_params()
        assert p.phi == (math.radians(0.01),) * 3
        amps = channel.deterministic_amplitudes(p, 3)
        assert np.allclose(amps, amps[0])
