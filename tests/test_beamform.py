"""Rate evaluation and classical precoder tests."""

import inspect
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leobeam import beamform, channel, experiments


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
    """Exact budgets from `beamform.normalize_power`, the rescale MMSE and
    the network end with."""

    def test_per_satellite_budget(self):
        rng = np.random.default_rng(40)
        w = rand_channel(rng, k=3, m=2, n=4)
        out = beamform.normalize_power(w, 2.5)
        for k in range(3):
            assert np.sum(np.abs(out[k]) ** 2) == pytest.approx(2.5,
                                                                rel=1e-12)

    def test_total_budget(self):
        rng = np.random.default_rng(41)
        w = rand_channel(rng, k=3, m=2, n=4)
        # a total budget is the per-satellite one of the pooled transmitter
        out = beamform.normalize_power(beamform.pooled(w), 2.5)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(2.5, rel=1e-12)

    def test_zero_input_stays_zero(self):
        out = beamform.normalize_power(np.zeros((2, 2, 2), dtype=complex),
                                       1.0)
        assert np.all(out == 0)

    def test_input_untouched(self):
        # MMSE hands `normalize_power` a new array, so it scales into
        # another one and leaves its input as it was
        w = rand_channel(np.random.default_rng(42), k=3, m=2, n=4)
        before = w.copy()
        out = beamform.normalize_power(w, 2.5)
        assert w.tobytes() == before.tobytes()
        assert not np.shares_memory(out, w)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(e=st.integers(-400, 400), seed=st.integers(0, 2 ** 32 - 1))
    def test_no_absolute_dead_threshold(self, e, seed):
        # a matrix is dead only at raw power exactly 0: y 2^e scales the
        # raw power by 2^2e and the factor by 2^-e, both exact for
        # |e| <= 400, so the beams keep every bit at any scale
        y = rand_channel(np.random.Generator(np.random.Philox(seed)), 3, 2, 4)
        y = np.stack([y, y[::-1]])   # a leading axis for two budgets
        scaled = np.ldexp(y.real, e) + 1j * np.ldexp(y.imag, e)
        for power in (2.0, np.array([0.5, 3.0])):
            want = beamform.normalize_power(y, power)
            got = beamform.normalize_power(scaled, power)
            assert got.tobytes() == want.tobytes()


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

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(k=st.integers(1, 3), m=st.integers(1, 4), n=st.integers(1, 4),
           e=st.integers(-900, 900), seed=st.integers(0, 2 ** 32 - 1))
    def test_power_of_two_scaling_keeps_every_bit(self, k, m, n, e, seed):
        # the norm is taken on a prescaled row, so neither a tiny nor a
        # huge channel loses its beam to underflow or overflow
        h = rand_channel(np.random.Generator(np.random.Philox(seed)), k, m,
                         n)
        scaled = np.ldexp(h.real, e) + 1j * np.ldexp(h.imag, e)
        for power in (2.0, np.array([0.5, 3.0])):
            want = beamform.mrt_local(h, power).w
            assert beamform.mrt_local(scaled, power).w.tobytes() == \
                want.tobytes()


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

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(k=st.integers(1, 3), m=st.integers(1, 4), extra=st.integers(0, 2),
           e=st.integers(-900, 900), seed=st.integers(0, 2 ** 32 - 1))
    def test_power_of_two_scaling_keeps_every_bit(self, k, m, extra, e,
                                                  seed):
        # each matrix is prescaled before its Gram product, so neither a
        # tiny nor a huge channel underflows or overflows there
        h = rand_channel(np.random.Generator(np.random.Philox(seed)), k, m,
                         m + extra)
        scaled = np.ldexp(h.real, e) + 1j * np.ldexp(h.imag, e)
        for power in (2.0, np.array([0.5, 3.0])):
            for scheme in (beamform.zf_local, beamform.zf_global):
                want = scheme(h, power).w
                assert scheme(scaled, power).w.tobytes() == want.tobytes()


def zf_check_first(h, power, local: bool):
    """Zero forcing with the exact rank check run before the solve: one
    SVD per matrix, then the same solve and normalization."""
    hh = np.asarray(h)
    k_sats, n_ant = hh.shape[-3], hh.shape[-1]
    mats = beamform._prescaled(hh if local else beamform.pooled(hh),
                               (-2, -1)).swapaxes(-1, -2)
    rows, cols = mats.shape[-2:]
    cond = (np.full(mats.shape[:-2], np.inf) if rows < cols
            else np.linalg.cond(mats))
    bad = np.argwhere(cond > beamform.COND_LIMIT)
    if len(bad):
        *sample, sat = (int(i) for i in bad[0])
        where = [f"satellite {sat}" if local else "stacked system"]
        if sample:
            where.insert(0, "sample " + ",".join(map(str, sample)))
        raise beamform.SingularChannelError(
            f"rank-deficient channel matrix at {', '.join(where)}: "
            "zero-forcing requires linearly independent user channels")
    wt = beamform._inverse_directions(mats)
    w = beamform._per_stream(beamform._beams(wt), power)
    return w if local else beamform.unpooled(w, k_sats, n_ant)


def outcome(call):
    """Beams as bytes (None for a check that passes), or the exception's
    type and message."""
    try:
        w = call()
    except Exception as exc:  # noqa: BLE001 - the oracle's, compared below
        return type(exc), str(exc)
    return None if w is None else (w.shape, w.tobytes())


class TestZfRankCertificate:
    """`_zf` checks rank on its solve's result; the exact SVD runs only
    where that certificate is inconclusive."""

    def cases(self):
        rng = np.random.default_rng(66)

        def stack(m=3, n=4):
            return rand_channel(rng, k=5 * 2, m=m, n=n).reshape(5, 2, m, n)

        h = stack()
        yield "random", h
        yield "one realization", h[0]
        dup = stack()
        dup[2, 1, 2] = dup[2, 1, 0]
        yield "duplicated user", dup
        scaled = stack()
        scaled[3, 0, 1] = (2.0 - 1.0j) * scaled[3, 0, 0]
        scaled[1, :, 2] = 1e-3j * scaled[1, :, 0]
        yield "scaled users", scaled
        for gap in (1e-6, 1e-9, 1e-13):
            near = stack()
            near[4, 1, 1] = near[4, 1, 0] + gap * near[4, 1, 2]
            yield f"nearly dependent users, gap {gap}", near
        zero = stack()
        zero[0, 1, 2] = 0.0
        yield "zero row", zero
        zero_all = stack()
        zero_all[1, :, 0] = 0.0
        yield "zero user on every satellite", zero_all
        tiny = stack()
        tiny[2] *= 1e-200
        tiny[3, 0] *= 1e250
        yield "tiny and huge samples", tiny
        for bad in (np.nan, np.inf, -np.inf + 1j * np.nan):
            odd = stack()
            odd[3, 0, 1, 2] = bad
            yield f"entry {bad}", odd
        yield "fewer antennas than users", stack(m=3, n=2)
        yield "fewer pooled antennas than users", stack(m=5, n=2)
        yield "empty stack", stack()[:0]

    def test_matches_check_first_oracle(self):
        seen = set()
        for name, h in self.cases():
            for power in (1.5, np.array([0.5, 1.0, 4.0])):
                calls = [
                    (lambda: beamform.zf_local(h, power).w,
                     lambda: zf_check_first(h, power, local=True)),
                    (lambda: beamform.zf_global(h, power).w,
                     lambda: zf_check_first(h, power, local=False))]
                for got, want in calls:
                    with np.errstate(all="ignore"):
                        expected = outcome(want)
                        assert outcome(got) == expected, name
                    seen.add(expected[0] if isinstance(expected[0], type)
                             else "beams")
        # every outcome occurs: beams, a named matrix and numpy's errors
        assert seen == {"beams", beamform.SingularChannelError,
                        np.linalg.LinAlgError}

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_decision_at_the_limit_is_the_exact_one(self, factor):
        rng = np.random.default_rng(67)
        limit = factor * beamform.COND_LIMIT
        h = rand_channel(rng, k=3, m=3, n=4)
        for k in range(3):
            # H = U diag(1, 1/2, 1/limit) V^H with orthonormal U and V
            u, _ = np.linalg.qr(rand_channel(rng, k=1, m=4, n=3)[0])
            v, _ = np.linalg.qr(rand_channel(rng, k=1, m=3, n=3)[0])
            mat = u @ np.diag([1.0, 0.5, 1.0 / limit]) @ v.conj().T
            h[k] = mat.T
        cond = np.linalg.cond(h.swapaxes(-1, -2))
        assert np.allclose(cond, limit, rtol=1e-2)
        want = outcome(lambda: zf_check_first(h, 1.0, local=True))
        assert outcome(lambda: beamform.zf_local(h, 1.0).w) == want
        if factor < 1.0:
            assert not isinstance(want[0], type)
        else:
            assert want == (beamform.SingularChannelError,
                            "rank-deficient channel matrix at satellite 0: "
                            "zero-forcing requires linearly independent "
                            "user channels")
        # the SVD's pseudo-inverse leaves a small residual at any
        # condition, so only the bound keeps these matrices uncertified
        mats = beamform._blocks(h)
        wt = np.linalg.pinv(mats).conj().swapaxes(-1, -2)
        assert not beamform._certified(mats, wt).any()
        assert outcome(lambda: beamform._check_rank(mats, True, wt)) == \
            outcome(lambda: beamform._check_rank(mats, True))

    def test_desk_ensemble_runs_no_svd(self, monkeypatch):
        cfg = experiments.load_config(os.path.join(
            os.path.dirname(__file__), os.pardir, "configs", "desk.ini"))
        h = channel.sample_channel_batch(
            cfg.channel_params(), 500, cfg.k_sats, cfg.m_users,
            cfg.n_antennas, np.random.Generator(np.random.Philox(18)))
        calls = []
        # the namespace in which np.linalg.cond looks up svd
        linalg = inspect.unwrap(np.linalg.cond).__globals__
        svd = linalg["svd"]

        def counted(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setitem(linalg, "svd", counted)
        monkeypatch.setattr(np.linalg, "svd", counted)
        for power in (cfg.power, np.array([0.1, 1.0, 10.0]) * cfg.power):
            beamform.zf_local(h, power)
            beamform.zf_global(h, cfg.k_sats * power)
        assert not calls
        # the counter sees the exact check
        beamform._check_rank(beamform._blocks(h), local=True)
        assert len(calls) == 1


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
        wz = beamform.zf_local(h, 1.0).w
        wr = beamform.mmse_local(h, 1.0, sigma2=1e-12).w
        for k in range(2):
            for m in range(4):
                cos = abs(np.vdot(wr[k, m], wz[k, m])) / (
                    np.linalg.norm(wr[k, m]) * np.linalg.norm(wz[k, m]))
                assert math.acos(min(1.0, cos)) <= 1e-3

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(k=st.integers(1, 3), m=st.integers(1, 4), n=st.integers(1, 4),
           e=st.integers(-400, 400), sigma2=st.floats(1e-2, 1e2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_power_of_two_scaling_keeps_every_bit(self, k, m, n, e, sigma2,
                                                  seed):
        # (h 2^e, sigma2 2^2e) scales the directions by 2^-e; each beam
        # matrix is prescaled before its power is taken, so a weak
        # channel keeps its beams.  |e| <= 400 keeps every value, the Gram
        # entries and the directions' powers included, in the normal range
        h = rand_channel(np.random.Generator(np.random.Philox(seed)), k, m, n)
        scaled = np.ldexp(h.real, e) + 1j * np.ldexp(h.imag, e)
        for power in (2.0, np.array([0.5, 3.0])):
            for scheme in (beamform.mmse_local, beamform.mmse_global):
                want = scheme(h, power, sigma2).w
                got = scheme(scaled, power, math.ldexp(sigma2, 2 * e)).w
                assert got.tobytes() == want.tobytes()

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
