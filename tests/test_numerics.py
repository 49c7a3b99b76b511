"""Numerics revision 2 (`leobeam.NUMERICS`): numpy Bessel functions, log1p
rates and the matmul rate gradient, with the guards that keep them honest.

The Bessel reference table was generated once with `scipy.special.jv`:

    python tools/bessel_table.py > tests/data/bessel_reference.csv

so these tests need no scipy.  The differential tests at the end hold the
new formulas against the revision-1 ones (scipy's `jv`, `log2(1 + sinr)`,
the einsum rate gradient) and are skipped where scipy is not installed.
"""

import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from leobeam import beamform, channel, experiments, gnn, train

_HERE = os.path.dirname(__file__)
_SRC = os.path.join(_HERE, os.pardir, "src")


def reference_table():
    with open(os.path.join(_HERE, "data", "bessel_reference.csv")) as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows])
            for key in ("u", "j1", "j3", "bracket")}


class TestBesselReference:
    def test_bracket_relative_below_4(self):
        ref = reference_table()
        low = ref["u"] < 4.0
        assert low.sum() > 100
        got = channel._bracket(ref["u"][low])
        np.testing.assert_allclose(got, ref["bracket"][low], rtol=1e-14,
                                   atol=0.0)

    def test_j1_j3_absolute_from_4(self):
        ref = reference_table()
        high = ref["u"] >= 4.0
        assert high.sum() > 60 and ref["u"].max() >= 1e15
        for order, key in ((1, "j1"), (3, "j3")):
            got = channel.bessel_j(order, ref["u"][high])
            np.testing.assert_allclose(got, ref[key][high], rtol=0.0,
                                       atol=1e-15)

    def test_scalar_and_shape(self):
        assert isinstance(channel.bessel_j(1, 2.5), float)
        grid = np.linspace(0.0, 40.0, 12).reshape(3, 4)
        got = channel.bessel_j(3, grid)
        assert got.shape == (3, 4)
        assert got[0, 0] == 0.0

    @pytest.mark.parametrize("u", [1e16, 1e20, 1e100, 1e300,
                                   np.finfo(float).max, np.inf])
    def test_huge_u_is_finite_and_bounded(self, u):
        # |J_n(u)| <= sqrt(2/(pi u)) (1 + O(1/u)) for u >> n
        bound = math.sqrt(2.0 / math.pi / u) * (1.0 + 1e-12)
        for order in (1, 3):
            val = channel.bessel_j(order, u)
            assert math.isfinite(val) and abs(val) <= bound
        assert channel.bessel_j(1, np.inf) == 0.0

    def test_tiny_beamwidth_gives_zero_gain(self):
        # sin(phi)/sin(phi_3db) overflows to an infinite u: the pattern's
        # limit there is 0, not NaN
        gains = channel.beam_gain(np.array([0.0, 1e-9, 0.5]), 1e-320, 2.0)
        assert gains[0] == 2.0
        assert np.all(np.isfinite(gains)) and np.all(gains[1:] <= 1e-40)


class TestLowSinrRates:
    def test_rates_are_log1p(self):
        # K = M = N = 1: SINR = |h w|^2 / sigma2 = 0.03 exactly
        h = np.ones((1, 1, 1), dtype=complex)
        w = np.full((1, 1, 1), math.sqrt(0.03), dtype=complex)
        rates = beamform.rate_terms(h, w, 1.0, 5.0)[3]
        sinr = abs(complex(w[0, 0, 0])) ** 2
        assert rates[0] == 5.0 * math.log1p(sinr) / math.log(2.0)

    def test_wsr_gradient_matches_finite_differences(self):
        # the loss gradient through rate_terms and _wsr_backward, at SINRs
        # of 1e-3 to 0.2 around 0.03, against central differences of the
        # loss in Re w and Im w
        rng = np.random.default_rng(5)
        shape = (3, 2, 3, 2)
        b = shape[0]
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        weights = np.array([1.0, 0.5, 2.0])
        sig = np.abs(beamform.stream_gains(h, w)) ** 2
        sigma2 = float(np.mean(np.einsum("...mm->...m", sig))) / 0.03

        def loss(wv):
            rates = beamform.rate_terms(h, wv, sigma2, 2.0)[3]
            return -float(np.sum(rates @ weights)) / b

        c, sinr, intf, _ = beamform.rate_terms(h, w, sigma2, 2.0)
        assert 1e-3 < sinr.min() and sinr.max() < 0.2
        assert 0.01 < np.median(sinr) < 0.05
        gw = train._wsr_backward(h, c, sinr, intf, weights, 2.0, b)
        step = 1e-6
        worst = 0.0
        for idx in np.ndindex(w.shape):
            for unit in (1.0, 1j):
                wp, wm = w.copy(), w.copy()
                wp[idx] += step * unit
                wm[idx] -= step * unit
                fd = (loss(wp) - loss(wm)) / (2 * step)
                an = gw[idx].real if unit == 1.0 else gw[idx].imag
                worst = max(worst, abs(fd - an) / max(abs(fd), 1e-12))
        assert worst < 1e-6


class TestOverflowedBeamPower:
    def test_power_scale(self):
        y = np.array([[[1e200, 1.0]], [[3.0, 4.0j]], [[0.0, 0.0]]])
        with np.errstate(over="ignore"):
            praw, alpha = beamform._power_scale(y, 2.0)
        assert praw[0] == np.inf and np.isnan(alpha[0])
        assert alpha[1] == np.sqrt(2.0 / 25.0)
        assert alpha[2] == 0.0

    def test_training_loss_is_non_finite(self):
        # what makes train.train raise TrainingDivergedError
        params = gnn.init_params(gnn.scaled_dims(2, 32),
                                 np.random.Generator(np.random.Philox(3)))
        for layer in params.layers:
            layer.w *= 1e20
        sysp = train.SystemParams(k_sats=2, m_users=2, n_antennas=2,
                                  power=1.0, sigma2=1.0, bandwidth=1.0)
        batch = np.ones((2, 2, 2, 2), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            loss = train.batch_loss(params, batch, sysp)
            with pytest.raises(gnn.GnnNumericError):
                train.infer_batch(params, batch, sysp)
        assert not math.isfinite(loss)


def test_cli_imports_no_scipy():
    code = ("import sys, leobeam.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(_SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# --- differential: revision 2 against the revision-1 formulas ----------------


def old_beam_gain(phi, phi_3db, b_max):
    """Revision 1's pattern: scipy's jv, and a 4-term series below 1e-3."""
    special = pytest.importorskip("scipy.special")
    u = np.atleast_1d(channel.HALF_POWER_U * np.sin(phi) / np.sin(phi_3db))
    small = u < 1e-3
    t = (u / 2.0) ** 2
    series = (0.25 * (1.0 - t / 2.0 + t**2 / 12.0 - t**3 / 144.0)
              + 0.75 * (1.0 - t / 4.0 + t**2 / 40.0 - t**3 / 720.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = (special.jv(1, u) / (2.0 * u)
                 + 36.0 * special.jv(3, u) / u**3)
    return b_max * np.where(small, series, exact) ** 2


def old_wsr_backward(h, c, sinr, intf, weights, bandwidth, batch):
    m = sinr.shape[1]
    gs = -(weights[None, :] / batch) * bandwidth / (np.log(2.0) * (1.0 + sinr))
    q = np.repeat((-gs * sinr / intf)[:, :, None], m, axis=2)
    idx = np.arange(m)
    q[:, idx, idx] = gs / intf
    return np.einsum("bmi,bkmn->bkin", 2.0 * q * c, h)


class TestAgainstRevision1:
    def test_beam_gain(self):
        # relative 1e-13 in the main lobe, 1e-14 of b_max everywhere
        phi_3db = math.radians(0.4)
        phi = np.concatenate([np.linspace(0.0, math.radians(0.9), 400),
                              np.linspace(0.0, 1.5, 400)])
        want = old_beam_gain(phi, phi_3db, 3.0)
        got = channel.beam_gain(phi, phi_3db, 3.0)
        lobe = phi < math.radians(0.7)
        np.testing.assert_allclose(got[lobe], want[lobe], rtol=1e-13)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=3e-14)

    def test_desk_amplitudes_and_beams(self):
        # the desk's channel amplitudes within 1e-14 relative; the beams of
        # every classical scheme and of a desk-width network on the
        # channels they give, within 1e-12 of the largest entry
        cfg = experiments.load_config(os.path.join(
            _HERE, os.pardir, "configs", "desk.ini"))
        params = cfg.channel_params()
        amp = channel.deterministic_amplitudes(params, cfg.m_users)
        c_l = channel.path_loss_coeff(params.d0, params.dh,
                                      params.carrier_freq)
        old = c_l * np.sqrt(old_beam_gain(params.phi, params.phi_3db,
                                          params.b_max))
        np.testing.assert_allclose(amp, old, rtol=1e-14)
        rng = np.random.default_rng(9)
        shape = (200, cfg.k_sats, cfg.m_users, cfg.n_antennas)
        fading = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        h_new = fading * amp[:, None]
        h_old = fading * old[:, None]
        p, s2 = cfg.power, cfg.sigma2
        for scheme in ("mrt_local", "zf_local", "mmse_local", "zf_global",
                       "mmse_global"):
            w_new = experiments.compute_beams(scheme, h_new, p,
                                              cfg.k_sats * p, s2).w
            w_old = experiments.compute_beams(scheme, h_old, p,
                                              cfg.k_sats * p, s2).w
            scale = np.max(np.abs(w_old))
            assert np.max(np.abs(w_new - w_old)) <= 1e-12 * scale, scheme
        net = gnn.init_params(gnn.scaled_dims(cfg.n_antennas, 8),
                              np.random.Generator(np.random.Philox(4)))
        sysp = train.SystemParams(
            cfg.k_sats, cfg.m_users, cfg.n_antennas, power=p, sigma2=s2,
            input_scale=train.suggested_input_scale(params, cfg.m_users))
        w_new = train.infer_batch(net, h_new, sysp)
        w_old = train.infer_batch(net, h_old, sysp)
        assert np.max(np.abs(w_new - w_old)) <= 1e-12 * np.max(np.abs(w_old))

    def test_rates(self):
        # log1p against log2(1 + sinr), over SINRs from 1e-4 to 1e3: apart
        # by at most the rounding of 1 + sinr, 1.6e-16 bit per hertz, plus
        # 1e-15 relative
        rng = np.random.default_rng(11)
        h = rng.normal(size=(500, 2, 4, 4)) + 1j * rng.normal(
            size=(500, 2, 4, 4))
        w = rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape)
        for sigma2 in (1e-2, 1.0, 1e2, 1e4):
            _, sinr, _, rates = beamform.rate_terms(h, w, sigma2, 3.0)
            old = 3.0 * np.log2(1.0 + sinr)
            np.testing.assert_allclose(rates, old, rtol=1e-15,
                                       atol=3.0 * 2e-16)

    def test_wsr_gradient(self):
        rng = np.random.default_rng(13)
        h = rng.normal(size=(200, 2, 4, 4)) + 1j * rng.normal(
            size=(200, 2, 4, 4))
        w = rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape)
        weights = np.array([1.0, 2.0, 0.5, 1.5])
        c, sinr, intf, _ = beamform.rate_terms(h, w, 10.0, 1.0)
        args = (h, c, sinr, intf, weights, 1.0, 200)
        got, want = train._wsr_backward(*args), old_wsr_backward(*args)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-14 * np.max(np.abs(want)))
