"""Rate evaluation and classical precoder tests."""

import math

import numpy as np
import pytest

from leobeam import beamform


def rand_channel(rng, k=2, m=4, n=4, scale=1.0):
    return scale * (rng.normal(size=(k, m, n))
                    + 1j * rng.normal(size=(k, m, n))) / math.sqrt(2)


def wsr_loops(h, w, sigma2, bandwidth, weights):
    """Independent rate computation with explicit loops, no einsum."""
    k_sats, m_users, _ = h.shape
    total = 0.0
    rates = []
    for m in range(m_users):
        sig = 0.0 + 0.0j
        for k in range(k_sats):
            sig += np.vdot(h[k, m], w[k, m])   # vdot conjugates first arg
        interf = 0.0
        for i in range(m_users):
            if i == m:
                continue
            c = 0.0 + 0.0j
            for k in range(k_sats):
                c += np.vdot(h[k, m], w[k, i])
            interf += abs(c) ** 2
        sinr = abs(sig) ** 2 / (interf + sigma2)
        rates.append(bandwidth * math.log2(1.0 + sinr))
        total += weights[m] * rates[-1]
    return total, rates


class TestWsr:
    def test_single_link_closed_form(self):
        # one satellite, one user, one antenna: R = B log2(1 + P/sigma2)
        h = np.ones((1, 1, 1), dtype=complex)
        w = np.full((1, 1, 1), math.sqrt(4.0), dtype=complex)
        rep = beamform.wsr(h, w, sigma2=2.0, bandwidth=3.0)
        assert rep.weighted_sum == pytest.approx(3.0 * math.log2(1 + 2.0),
                                                 rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(31)
        weights = np.array([0.5, 1.0, 2.0, 0.25])
        hs = rand_channel(rng, k=20 * 2).reshape(20, 2, 4, 4)
        ws = rand_channel(rng, k=20 * 2).reshape(20, 2, 4, 4)
        stacked = beamform.wsr(hs, ws, sigma2=0.7, bandwidth=1.3,
                               weights=weights)
        assert stacked.weighted_sum.shape == (20,)
        for b, (h, w) in enumerate(zip(hs, ws)):
            want_total, want_rates = wsr_loops(h, w, 0.7, 1.3, weights)
            rep = beamform.wsr(h, w, sigma2=0.7, bandwidth=1.3,
                               weights=weights)
            for got in (rep, beamform.RateReport(
                    stacked.per_user_rates[b], stacked.weighted_sum[b])):
                assert got.weighted_sum == pytest.approx(want_total,
                                                         rel=1e-12)
                np.testing.assert_allclose(got.per_user_rates, want_rates,
                                           rtol=1e-12)

    def test_phase_rotation_invariance(self):
        # rotating one user's stacked channel leaves every rate unchanged
        rng = np.random.default_rng(32)
        h = rand_channel(rng)
        w = rand_channel(rng)
        base = beamform.wsr(h, w, 1e-2)
        h2 = h.copy()
        h2[:, 1, :] *= np.exp(1j * 0.83)
        got = beamform.wsr(h2, w, 1e-2)
        np.testing.assert_allclose(got.per_user_rates, base.per_user_rates,
                                   rtol=1e-12)

    def test_user_permutation_permutes_rates(self):
        rng = np.random.default_rng(33)
        h = rand_channel(rng)
        w = rand_channel(rng)
        perm = np.array([2, 0, 3, 1])
        rep = beamform.wsr(h, w, 1e-2)
        rep_p = beamform.wsr(h[:, perm], w[:, perm], 1e-2)
        np.testing.assert_allclose(rep_p.per_user_rates,
                                   np.asarray(rep.per_user_rates)[perm],
                                   rtol=1e-12)

    def test_stream_gains_layout(self):
        rng = np.random.default_rng(34)
        h = rand_channel(rng, k=1, m=2, n=3)
        w = rand_channel(rng, k=1, m=2, n=3)
        c = beamform.stream_gains(h, w)
        assert c.shape == (2, 2)
        assert c[0, 1] == pytest.approx(np.vdot(h[0, 0], w[0, 1]), rel=1e-12)


class TestEnforcePower:
    """Exact budgets from `beamform._rescale`, the rescale MMSE ends with."""

    def test_per_satellite_budget(self):
        rng = np.random.default_rng(40)
        w = rand_channel(rng, k=3, m=2, n=4)
        out = beamform._rescale(w, 2.5)
        for k in range(3):
            assert np.sum(np.abs(out[k]) ** 2) == pytest.approx(2.5,
                                                                rel=1e-12)

    def test_total_budget(self):
        rng = np.random.default_rng(41)
        w = rand_channel(rng, k=3, m=2, n=4)
        # a total budget is the per-satellite one of the pooled transmitter
        out = beamform._rescale(beamform.pooled(w), 2.5)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(2.5, rel=1e-12)

    def test_zero_input_stays_zero(self):
        out = beamform._rescale(np.zeros((2, 2, 2), dtype=complex), 1.0)
        assert np.all(out == 0)


class TestMrt:
    def test_directions_follow_channel(self):
        rng = np.random.default_rng(50)
        h = rand_channel(rng)
        w = beamform.mrt_local(h, 2.0).w
        for k in range(2):
            for m in range(4):
                cos = abs(np.vdot(h[k, m], w[k, m])) / (
                    np.linalg.norm(h[k, m]) * np.linalg.norm(w[k, m]))
                assert cos == pytest.approx(1.0, rel=1e-12)

    def test_single_user_rate_closed_form(self):
        # K=M=1: the matched filter is capacity-achieving
        rng = np.random.default_rng(51)
        h = rand_channel(rng, k=1, m=1, n=4)
        power, sigma2 = 2.0, 0.3
        w = beamform.mrt_local(h, power).w
        rep = beamform.wsr(h, w, sigma2, bandwidth=1.0)
        want = math.log2(1 + power * np.linalg.norm(h[0, 0]) ** 2 / sigma2)
        assert rep.weighted_sum == pytest.approx(want, rel=1e-10)


class TestZf:
    def test_local_nulling(self):
        rng = np.random.default_rng(60)
        h = rand_channel(rng)
        w = beamform.zf_local(h, 1.0).w
        for k in range(2):
            c = h[k].conj() @ w[k].T
            off = c - np.diag(np.diag(c))
            assert np.max(np.abs(off)) < 1e-10

    def test_global_interference_to_signal(self):
        rng = np.random.default_rng(61)
        worst = 0.0
        for _ in range(100):
            h = rand_channel(rng)
            w = beamform.zf_global(h, 2.0).w
            c = beamform.stream_gains(h, w)
            off = np.sum(np.abs(c - np.diag(np.diag(c))) ** 2)
            sig = np.sum(np.abs(np.diag(c)) ** 2)
            worst = max(worst, off / sig)
        assert worst < 1e-8

    def test_single_user_equals_mrt(self):
        rng = np.random.default_rng(62)
        h = rand_channel(rng, k=2, m=1, n=4)
        wz = beamform.zf_local(h, 1.5).w
        wm = beamform.mrt_local(h, 1.5).w
        # same direction and same power, up to phase
        for k in range(2):
            cos = abs(np.vdot(wz[k, 0], wm[k, 0])) / (
                np.linalg.norm(wz[k, 0]) * np.linalg.norm(wm[k, 0]))
            assert cos == pytest.approx(1.0, rel=1e-10)

    def test_duplicate_users_raise(self):
        rng = np.random.default_rng(63)
        h = rand_channel(rng, k=1, m=2, n=4)
        h[0, 1] = h[0, 0]
        with pytest.raises(beamform.SingularChannelError):
            beamform.zf_local(h, 1.0)

    def test_singular_sample_in_stack_is_named(self):
        rng = np.random.default_rng(65)
        h = rand_channel(rng, k=3 * 2, m=2, n=2).reshape(3, 2, 2, 2)
        h[1, 0, 1] = 2.0 * h[1, 0, 0]  # one satellite of sample 1
        # a scalar budget, and a budget vector (its own leading axis)
        budgets = (1.0, np.array([0.5, 1.0, 2.0]))
        for p in budgets:
            with pytest.raises(beamform.SingularChannelError,
                               match="at sample 1, satellite 0:"):
                beamform.zf_local(h, p)
            beamform.zf_global(h, p)  # the stacked system keeps full rank
        h[2, :, 1] = -1j * h[2, :, 0]  # both satellites of sample 2
        for p in budgets:
            with pytest.raises(beamform.SingularChannelError,
                               match="at sample 2, stacked system:"):
                beamform.zf_global(h, p)
            with pytest.raises(beamform.SingularChannelError,
                               match="at satellite 0:"):
                beamform.zf_local(h[2], p)

    def test_trace_normalization_budget(self):
        rng = np.random.default_rng(64)
        h = rand_channel(rng)
        w = beamform.zf_local(h, 3.0, normalization="trace").w
        for k in range(2):
            assert np.sum(np.abs(w[k]) ** 2) == pytest.approx(3.0, rel=1e-9)


class TestMmse:
    def test_high_noise_limit_is_mrt(self):
        rng = np.random.default_rng(70)
        h = rand_channel(rng)
        wm = beamform.mrt_local(h, 1.0).w
        wr = beamform.mmse_local(h, 1.0, sigma2=1e9).w
        for k in range(2):
            for m in range(4):
                cos = abs(np.vdot(wr[k, m], wm[k, m])) / (
                    np.linalg.norm(wr[k, m]) * np.linalg.norm(wm[k, m]))
                assert math.acos(min(1.0, cos)) <= 1e-3

    def test_low_noise_limit_is_zf(self):
        rng = np.random.default_rng(71)
        h = rand_channel(rng)
        wz = beamform.zf_local(h, 1.0, normalization="trace").w
        wr = beamform.mmse_local(h, 1.0, sigma2=1e-12).w
        for k in range(2):
            for m in range(4):
                cos = abs(np.vdot(wr[k, m], wz[k, m])) / (
                    np.linalg.norm(wr[k, m]) * np.linalg.norm(wz[k, m]))
                assert math.acos(min(1.0, cos)) <= 1e-3

    def test_power_budgets(self):
        rng = np.random.default_rng(72)
        h = rand_channel(rng)
        wl = beamform.mmse_local(h, 2.0, 0.1)
        for k in range(2):
            assert np.sum(np.abs(wl.w[k]) ** 2) == pytest.approx(2.0,
                                                                 rel=1e-9)
        wg = beamform.mmse_global(h, 5.0, 0.1)
        assert np.sum(np.abs(wg.w) ** 2) == pytest.approx(5.0, rel=1e-9)
        assert wg.scope == "total"

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            beamform.mmse_local(np.ones((1, 1, 1), dtype=complex), 1.0, 0.0)


class TestPooled:
    def test_round_trip_and_layout(self):
        rng = np.random.default_rng(90)
        # a stack (B, K, M, N) with a budget axis in front, and one
        # realization
        for shape in ((2, 3, 3, 4, 2), (3, 4, 2)):
            h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            k_sats, m_users, n_ant = shape[-3:]
            p = beamform.pooled(h)
            assert p.shape == shape[:-3] + (1, m_users, k_sats * n_ant)
            for k in range(k_sats):
                assert np.array_equal(
                    p[..., 0, :, k * n_ant:(k + 1) * n_ant], h[..., k, :, :])
            assert np.array_equal(beamform.unpooled(p, k_sats, n_ant), h)

    def test_global_schemes_are_local_ones_pooled(self):
        rng = np.random.default_rng(91)
        h = rand_channel(rng, k=3 * 2, m=3, n=2).reshape(3, 2, 3, 2)
        pooled = beamform.pooled(h)
        for glob, local in (
                (beamform.zf_global(h, 2.0), beamform.zf_local(pooled, 2.0)),
                (beamform.mmse_global(h, 2.0, 0.1),
                 beamform.mmse_local(pooled, 2.0, 0.1))):
            assert np.array_equal(beamform.pooled(glob.w), local.w)
            assert glob.scope == "total"


class TestGlobalLocalConsistency:
    def test_k1_global_matches_local(self):
        rng = np.random.default_rng(80)
        h = rand_channel(rng, k=1, m=3, n=4)
        wz_l = beamform.zf_local(h, 2.0).w
        wz_g = beamform.zf_global(h, 2.0).w
        np.testing.assert_allclose(wz_g, wz_l, rtol=1e-10)
        wm_l = beamform.mmse_local(h, 2.0, 0.3).w
        wm_g = beamform.mmse_global(h, 2.0, 0.3).w
        # same matrix identity, same budget; directions and scale agree
        np.testing.assert_allclose(
            np.abs(beamform.stream_gains(h, wm_g)),
            np.abs(beamform.stream_gains(h, wm_l)), rtol=1e-6)

    def test_beamformer_set_validates_rank(self):
        with pytest.raises(ValueError):
            beamform.BeamformerSet(w=np.ones((2, 2), dtype=complex),
                                   power_budget=1.0)
