"""Training engine tests: gradients, optimizer, loop behavior, checkpoints."""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leobeam import beamform, channel, gnn, train

TINY = gnn.scaled_dims(2, 32)


def tiny_system(k=2, m=2, n=2):
    return train.SystemParams(k_sats=k, m_users=m, n_antennas=n, power=1.0,
                              sigma2=1.0, bandwidth=1.0, input_scale=1.0)


def tiny_batch(rng, count=3, k=2, m=2, n=2):
    return (rng.normal(size=(count, k, m, n))
            + 1j * rng.normal(size=(count, k, m, n))) / math.sqrt(2)


def make_params(seed=0):
    return gnn.init_params(TINY, np.random.Generator(np.random.Philox(seed)))


def tiny_chan():
    return channel.ChannelParams(
        d0=600e3, carrier_freq=20e9, b_max=10 ** 5.2,
        phi=(math.radians(0.01), math.radians(0.012)),
        phi_3db=math.radians(0.4),
        fading=channel.FadingParams(0.063, 2.0, 8.97e-4))


def kink_pattern(params, batch, sysp) -> bytes:
    """Every ReLU's sign and every neighbor-max route of the forward pass:
    the loss is smooth in the parameters while these stay the same."""
    pattern = []
    for _, _, cache in train._forward_beams(params, batch, sysp, True)[2]:
        pattern += [cache.a1 > 0, cache.a2 > 0]
        for conv in cache.convs:
            pattern += [conv.h1 > 0, conv.h2 > 0, conv.g1 > 0, conv.out > 0,
                        *(conv.route or ())]
    return b"".join(p.tobytes() for p in pattern)


class TestGradients:
    def test_finite_difference_agreement(self):
        self.check_finite_differences(k=2, m=2)

    def test_finite_difference_agreement_k1_m1(self):
        # no stacking, and a zero aggregate with no sources
        self.check_finite_differences(k=1, m=1)

    @staticmethod
    def check_finite_differences(k, m):
        params = make_params(1)
        rng = np.random.default_rng(2)
        sysp = tiny_system(k=k, m=m)
        batch = tiny_batch(rng, k=k, m=m)
        grads = train.gradients(params, batch, sysp)
        step = 1e-5
        for li in (0, 3, 6, 10):
            lay = params.layers[li]
            g = grads.layers[li]
            for arr, garr in ((lay.w, g.w), (lay.b, g.b)):
                idx = np.unravel_index(int(rng.integers(arr.size)),
                                       arr.shape)
                orig = arr[idx]
                arr[idx] = orig + step
                lp = train.batch_loss(params, batch, sysp)
                arr[idx] = orig - step
                lm = train.batch_loss(params, batch, sysp)
                arr[idx] = orig
                fd = (lp - lm) / (2 * step)
                an = garr[idx]
                if abs(fd) > 1e-10 or abs(an) > 1e-10:
                    assert abs(fd - an) / max(abs(fd), abs(an)) <= 1e-5

    # float32 against float64 gradients, relative error of each layer's
    # (dW, db) in norm: measured up to 9e-6 on the ten hidden layers and
    # 5.5e-5 on out_fc over 400 random draws
    FLOAT32_RTOL = (1e-4,) * 10 + (5e-4,)

    @settings(max_examples=25, deadline=None, derandomize=True,
              database=None)
    @given(k=st.integers(1, 3), m=st.integers(1, 4), n=st.integers(1, 3),
           tied=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_shapes_against_differences_and_float64(self, k, m, n,
                                                           tied, seed):
        gen = np.random.Generator(np.random.Philox(seed))
        dims = gnn.scaled_dims(n, 32)
        sets = [gnn.init_params(dims, gen) for _ in range(1 if tied else k)]
        for p in sets:   # nonzero biases keep the ReLUs mixed
            for lay in p.layers:
                lay.b[:] = gen.normal(scale=0.1, size=lay.b.shape)
        sysp = tiny_system(k=k, m=m, n=n)
        batch = tiny_batch(gen, k=k, m=m, n=n)

        def net(ps):
            return ps[0] if tied else ps

        def probe(arr, idx, value):
            # the loss and the kinks around it at arr[idx] = value
            orig, arr[idx] = arr[idx], value
            loss = train.batch_loss(net(sets), batch, sysp)
            kinks = kink_pattern(net(sets), batch, sysp)
            arr[idx] = orig
            return loss, kinks

        grads = train._params_list(train.gradients(net(sets), batch, sysp))
        step = 1e-5
        here = kink_pattern(net(sets), batch, sysp)
        skipped = 0
        for p, g in zip(sets, grads):
            for lay, glay in zip(p.layers, g.layers):
                for arr, garr in ((lay.w, glay.w), (lay.b, glay.b)):
                    # the loss is smooth only where +-step moves no kink:
                    # up to four entries are drawn to find one
                    for _ in range(4):
                        idx = np.unravel_index(int(gen.integers(arr.size)),
                                               arr.shape)
                        lp, kp = probe(arr, idx, arr[idx] + step)
                        lm, km = probe(arr, idx, arr[idx] - step)
                        if kp == km == here:
                            break
                    else:
                        skipped += 1
                        continue
                    fd, an = (lp - lm) / (2 * step), garr[idx]
                    # plus the roundoff of the quotient itself
                    assert abs(fd - an) <= (1e-5 * max(abs(fd), abs(an))
                                            + 1e-15 * max(abs(lp), abs(lm))
                                            / step)
        assert skipped <= 2

        single = [gnn.GnnParams(p.dims, [
            gnn.FcLayer(lay.w.astype(np.float32), lay.b.astype(np.float32))
            for lay in p.layers]) for p in sets]
        grads32 = train._params_list(train.gradients(net(single), batch,
                                                     sysp))
        for g, g32 in zip(grads, grads32):
            for rtol, lay, lay32 in zip(self.FLOAT32_RTOL, g.layers,
                                        g32.layers):
                for a, a32 in ((lay.w, lay32.w), (lay.b, lay32.b)):
                    assert a32.dtype == np.float32
                    err = np.linalg.norm(a32 - a)
                    if k == m == n == 1:
                        # one user on one antenna: the rate is P |h|^2 /
                        # sigma2 whatever the beam, so every gradient is
                        # rounding noise of its precision
                        assert np.linalg.norm(a) < 1e-12 and err < 1e-5
                    else:
                        assert err <= rtol * np.linalg.norm(a)

    def test_loss_composes_from_inference_and_wsr(self):
        # engine loss must equal -mean WSR of its own inferred beams,
        # evaluated through the public rate function on the raw channels
        params = make_params(3)
        rng = np.random.default_rng(4)
        sysp = dataclasses.replace(tiny_system(), sigma2=0.3, bandwidth=2.0,
                                   input_scale=5.0)
        batch = tiny_batch(rng, count=4)
        loss = train.batch_loss(params, batch, sysp)
        w = train.infer_batch(params, batch, sysp)
        wsrs = [beamform.wsr(batch[b], w[b], 0.3, bandwidth=2.0).weighted_sum
                for b in range(4)]
        assert loss == pytest.approx(-float(np.mean(wsrs)), rel=1e-12)

    def test_input_scale_pairs_exactly(self):
        # consuming h/s with noise sigma2/s^2 leaves every rate unchanged
        params = make_params(5)
        rng = np.random.default_rng(6)
        batch = tiny_batch(rng)
        s = 3.7e-4
        a = train.batch_loss(params, batch, tiny_system())
        b = train.batch_loss(
            params, batch * s,
            dataclasses.replace(tiny_system(), sigma2=s ** 2, input_scale=s))
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_weights_zero_gradient(self):
        params = make_params(7)
        rng = np.random.default_rng(8)
        sysp = dataclasses.replace(tiny_system(),
                                   weights=np.zeros(2))
        batch = tiny_batch(rng)
        assert train.batch_loss(params, batch, sysp) == 0.0
        grads = train.gradients(params, batch, sysp)
        for lay in grads.layers:
            assert np.all(lay.w == 0) and np.all(lay.b == 0)

    def test_tied_gradient_is_sum_of_satellite_contributions(self):
        # tied, the satellites run stacked through one set and their
        # gradients accumulate; untied copies run one satellite each
        params = make_params(9)
        rng = np.random.default_rng(10)
        sysp = tiny_system(k=3)
        batch = tiny_batch(rng, k=3)
        full = train.gradients(params, batch, sysp)
        parts = train.gradients([copy.deepcopy(params) for _ in range(3)],
                                batch, sysp)
        for li in range(11):
            want_w = sum(p.layers[li].w for p in parts)
            want_b = sum(p.layers[li].b for p in parts)
            np.testing.assert_allclose(full.layers[li].w, want_w,
                                       rtol=1e-10, atol=1e-15)
            np.testing.assert_allclose(full.layers[li].b, want_b,
                                       rtol=1e-10, atol=1e-15)

    def test_untied_copies_match_tied_per_satellite(self):
        # three identical untied copies run the tied network, and copy k's
        # gradient is the derivative along satellite k's share of the set
        params = make_params(9)
        rng = np.random.default_rng(10)
        sysp = tiny_system(k=3)
        batch = tiny_batch(rng, k=3)
        copies = [copy.deepcopy(params) for _ in range(3)]
        assert train.batch_loss(copies, batch, sysp) == pytest.approx(
            train.batch_loss(params, batch, sysp), rel=1e-12)
        untied = train.gradients(copies, batch, sysp)
        step = 1e-5
        for k in range(3):
            for li in (0, 3, 6, 10):
                lay = copies[k].layers[li]
                g = untied[k].layers[li]
                for arr, garr in ((lay.w, g.w), (lay.b, g.b)):
                    idx = np.unravel_index(int(rng.integers(arr.size)),
                                           arr.shape)
                    orig = arr[idx]
                    arr[idx] = orig + step
                    lp = train.batch_loss(copies, batch, sysp)
                    arr[idx] = orig - step
                    lm = train.batch_loss(copies, batch, sysp)
                    arr[idx] = orig
                    fd = (lp - lm) / (2 * step)
                    an = garr[idx]
                    if abs(fd) > 1e-10 or abs(an) > 1e-10:
                        assert (abs(fd - an) / max(abs(fd), abs(an))
                                <= 1e-5)

    def test_dead_network_yields_zero_loss_not_nan(self):
        params = make_params(11)
        for lay in params.layers:
            lay.b[:] = -100.0   # every ReLU shut, output fc bias negative
        rng = np.random.default_rng(12)
        loss = train.batch_loss(params, tiny_batch(rng), tiny_system())
        assert np.isfinite(loss)

    def test_shape_mismatch_rejected(self):
        params = make_params(13)
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError):
            train.batch_loss(params, tiny_batch(rng, n=3), tiny_system())


class TestAdam:
    def test_first_step_closed_form(self):
        # from zero moments the update is -lr * g / (|g| + eps), elementwise,
        # and each layer's weight and bias view into the flat arrays
        params = make_params(15)
        state = train.TrainState(params)
        state.g[:] = np.random.default_rng(16).normal(size=state.g.shape)
        lr = 1e-3
        train.adam_step(state, lr)
        assert state.t == 1
        for li in (0, 5, 10):
            lay, glay = state.params.layers[li], state.grads.layers[li]
            for got, before, g in ((lay.w, params.layers[li].w, glay.w),
                                   (lay.b, params.layers[li].b, glay.b)):
                assert np.shares_memory(got, state.x)
                assert np.shares_memory(g, state.g)
                np.testing.assert_allclose(
                    got, before - lr * g / (np.abs(g) + 1e-8), rtol=1e-12)

    def test_two_steps_accumulate_moments(self):
        state = train.TrainState(make_params(17))
        state.g.fill(1.0)
        xs = [state.x.copy()]
        for _ in range(2):
            train.adam_step(state, 1e-3)
            xs.append(state.x.copy())
        assert state.t == 2
        # constant gradient: both steps move the same direction
        assert np.all(xs[0] > xs[1]) and np.all(xs[1] > xs[2])
        np.testing.assert_allclose(state.m, 0.9 * 0.1 + 0.1, rtol=1e-15)
        np.testing.assert_allclose(state.v, 0.999 * 0.001 + 0.001,
                                   rtol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_update_matches_formula_bytes(self, dtype):
        # the expression form of the update, one layer array at a time, kept
        # as the oracle: the flat in-place one runs the same operations in
        # the same order, so every byte agrees
        def oracle(x, m, v, g, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
            c1, c2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g ** 2
            return x - lr * (m / c1) / (np.sqrt(v / c2) + eps), m, v

        def arrays(params):
            return [a for lay in params.layers for a in (lay.w, lay.b)]

        gen = np.random.Generator(np.random.Philox(27))
        state = train.TrainState(gnn.init_params(TINY, gen, dtype=dtype))
        want = [(x, np.zeros_like(x), np.zeros_like(x))
                for x in arrays(state.params)]
        for t, lr in enumerate((1e-3, 3e-4, 1e-2), 1):
            for g in arrays(state.grads):
                g[...] = gen.normal(size=g.shape)
            want = [oracle(*xmv, g.copy(), t, lr)
                    for xmv, g in zip(want, arrays(state.grads))]
            train.adam_step(state, lr)
            for i, flat in enumerate((state.x, state.m, state.v)):
                assert flat.dtype == dtype
                assert flat.tobytes() == b"".join(w[i].tobytes()
                                                  for w in want)

    def test_lr_schedule_boundaries(self):
        assert train.lr_at(0) == 1e-3
        assert train.lr_at(99) == 1e-3
        assert train.lr_at(100) == pytest.approx(1e-3 * 0.995)
        assert train.lr_at(250) == pytest.approx(1e-3 * 0.995 ** 2)
        with pytest.raises(ValueError):
            train.lr_at(-1)


def quick_config(seed=0, epochs=4, **kw):
    sysp = train.SystemParams(k_sats=1, m_users=2, n_antennas=2, power=1.0,
                              sigma2=1e-12, bandwidth=50e6)
    defaults = dict(system=sysp, chan=tiny_chan(), scale_factor=32,
                    epochs=epochs, batch_size=50, samples_per_epoch=200,
                    test_size=40, early_stop=False, seed=seed)
    defaults.update(kw)
    return train.TrainConfig(**defaults)


class TestLoop:
    def test_deterministic_replay(self):
        r1 = train.train(quick_config())
        r2 = train.train(quick_config())
        assert [tuple(s) for s in r1.history] == \
            [tuple(s) for s in r2.history]
        for la, lb in zip(r1.params.layers, r2.params.layers):
            np.testing.assert_array_equal(la.w, lb.w)

    def test_pinned_final_test_wsr(self):
        # The determinism contract as a number: with the same seed, 3 epochs
        # of a K = M = N = 2 scale-32 system end at this test WSR on any
        # build.  Training runs in float32 (numerics revision 3).  Measured
        # drift: none across 1 or 2 BLAS threads, and 1.3e-8 relative
        # across eight forced OpenBLAS core types (SkylakeX against
        # Haswell, Zen, Sandybridge, Nehalem, Prescott, Core2 and Atom).
        # The tolerance is 2,500 times that.  In float64 (revision 2:
        # 27581303.314033747) the drift was 2.5e-16.
        sysp = train.SystemParams(k_sats=2, m_users=2, n_antennas=2,
                                  power=1.0, sigma2=1e-12, bandwidth=50e6)
        res = train.train(quick_config(epochs=3, system=sysp))
        assert res.history[-1].test_wsr == pytest.approx(
            27581302.51693043, rel=3.3e-5)

    def test_learning_improves_test_wsr(self):
        res = train.train(quick_config(epochs=10))
        assert res.history[-1].test_wsr > res.history[0].test_wsr

    def test_auto_scale_recorded(self):
        res = train.train(quick_config(epochs=1))
        want = train.suggested_input_scale(tiny_chan(), 2)
        assert res.input_scale == pytest.approx(want, rel=1e-12)
        assert res.input_scale < 1e-5   # physical gains are tiny

    def test_early_stop_reports_flag(self):
        cfg = quick_config(epochs=60, early_stop=True, patience=3,
                           min_rel_improve=0.5)   # absurd bar: stops fast
        res = train.train(cfg)
        assert res.stopped_early
        assert len(res.history) < 60

    def test_best_on_test_matches_history(self):
        res = train.train(quick_config(epochs=6))
        best = max(st.test_wsr for st in res.history)
        assert res.best_test_wsr == pytest.approx(best, rel=1e-12)

    def test_divergence_raises_with_last_good_params(self):
        # power normalization absorbs mere overshoot, so only an overflow
        # to inf/NaN counts as divergence; an absurd lr forces one
        cfg = quick_config(epochs=3, lr0=1e200)
        with np.errstate(all="ignore"):
            with pytest.raises(train.TrainingDivergedError) as info:
                train.train(cfg)
        assert info.value.params is not None

    def test_untied_trains_one_model_per_satellite(self):
        sysp = train.SystemParams(k_sats=2, m_users=2, n_antennas=2,
                                  power=1.0, sigma2=1e-12, bandwidth=50e6)
        cfg = quick_config(epochs=10, system=sysp, tied=False)
        res = train.train(cfg)
        assert isinstance(res.params, list) and len(res.params) == 2
        assert res.history[-1].test_wsr > res.history[0].test_wsr

    def test_trains_float32_and_checkpoints_exactly(self, tmp_path):
        sysp = train.SystemParams(k_sats=2, m_users=2, n_antennas=2,
                                  power=1.0, sigma2=1e-12, bandwidth=50e6)
        path = tmp_path / "model.ckpt"
        for tied in (True, False):
            res = train.train(quick_config(epochs=2, system=sysp, tied=tied))
            assert all(np.isfinite(st.train_wsr) for st in res.history)
            train.save_checkpoint(path, res.params, res.input_scale)
            loaded = train.load_checkpoint(path).params_list
            trained = train._params_list(res.params)
            assert len(loaded) == len(trained) == (1 if tied else 2)
            for got, want in zip(loaded, trained):
                for a, b in zip(got.layers, want.layers):
                    assert b.w.dtype == b.b.dtype == np.float32
                    assert a.w.dtype == a.b.dtype == np.float64
                    # the upcast is exact: casting back restores the bytes
                    assert np.array_equal(a.w, b.w)
                    assert np.array_equal(a.b, b.b)
                    assert a.w.astype(np.float32).tobytes() == b.w.tobytes()
                    assert a.b.astype(np.float32).tobytes() == b.b.tobytes()

    def test_moving_average_of_train_wsr_trends_up(self):
        res = train.train(quick_config(epochs=24))
        wsr = np.array([st.train_wsr for st in res.history])
        ma = np.convolve(wsr, np.ones(10) / 10, mode="valid")
        # batch noise allowance of 2% on consecutive window means
        assert np.all(ma[1:] >= ma[:-1] * 0.98)


def reference_neighbor_max(hidden):
    """The per-node argmax loop the top-2 engine replaced, kept as oracle:
    aggregate (B, M, F) and per node the source index (M, B, F)."""
    b, m, f = hidden.shape
    if m == 1:
        return np.zeros_like(hidden), None
    agg = np.empty_like(hidden)
    src = np.empty((m, b, f), dtype=np.intp)
    for i in range(m):
        js = np.array([j for j in range(m) if j != i])
        neigh = hidden[:, js, :]
        pick = neigh.argmax(axis=1)
        agg[:, i, :] = np.take_along_axis(neigh, pick[:, None, :],
                                          axis=1)[:, 0, :]
        src[i] = js[pick]
    return agg, src


def reference_neighbor_max_backward(g_agg, src, m_nodes):
    b, _, f = g_agg.shape
    gh = np.zeros((b, m_nodes, f), dtype=g_agg.dtype)
    if src is None:
        return gh
    node_ids = np.arange(m_nodes)[None, :, None]
    for i in range(m_nodes):
        gh += (src[i][:, None, :] == node_ids) * g_agg[:, i:i + 1, :]
    return gh


class TestNeighborMax:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    def test_bit_equal_to_per_node_loop(self, m):
        rng = np.random.default_rng(m)
        # values from {0, 1, 2} make ties the common case
        h = rng.integers(0, 3, size=(60, m, 5)).astype(float)
        g = rng.integers(-2, 3, size=(60, m, 5)).astype(float)
        g[rng.random(g.shape) < 0.2] = -0.0
        agg_ref, src = reference_neighbor_max(h)
        gh_ref = reference_neighbor_max_backward(g, src, m)
        agg = np.empty_like(h)
        route = gnn._neighbor_max(h, agg)
        assert agg.tobytes() == agg_ref.tobytes()
        # bytes, so signed zeros count too
        gh = train._neighbor_max_backward(g, route, np.empty_like(g))
        assert gh.tobytes() == gh_ref.tobytes()
        agg_only = np.empty_like(h)
        assert gnn._neighbor_max(h, agg_only, want_route=False) is None
        assert agg_only.tobytes() == agg.tobytes()
        if m == 1:
            assert route is None
            return
        top, second = route
        assert np.all(top.sum(axis=0) == 1) and np.all(second.sum(axis=0) == 1)
        t_idx, s_idx = top.argmax(axis=0), second.argmax(axis=0)
        nodes = np.arange(m)[:, None, None]
        assert np.array_equal(np.where(nodes == t_idx, s_idx, t_idx), src)


def desk_shaped(tied=True, dtype=np.float64, seed=41):
    """Networks and system of the desk config (K = 2, M = N = 4, scale 8),
    with nonzero biases so the ReLUs are mixed."""
    gen = np.random.Generator(np.random.Philox(seed))
    dims = gnn.scaled_dims(4, 8)
    params = [gnn.init_params(dims, gen, dtype=dtype)
              for _ in range(1 if tied else 2)]
    for p in params:
        for lay in p.layers:
            lay.b[:] = gen.normal(scale=0.1, size=lay.b.shape)
    return params, train.SystemParams(2, 4, 4, power=1.0, sigma2=0.5), gen


def state_bytes(states):
    return [a.tobytes() for s in states for a in (s.x, s.g, s.m, s.v)]


class TestBoundedMemory:
    """The test set is evaluated in chunks and every pass of a training run
    reuses one Workspace; neither may move a bit."""

    @pytest.mark.parametrize("tied", [True, False])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_chunked_eval_equals_whole_stack(self, tied, dtype):
        # 230 samples in chunks of 50: the remainder of 30 joins the last
        # chunk, so no chunk runs at the few rows where BLAS kernels differ.
        # float32 is equal only at shapes like these: OpenBLAS's sgemm of
        # out_fc (64 -> 8) rounds differently from about 2,000 rows on,
        # and the whole stack here has at most 1,840
        params, sysp, gen = desk_shaped(tied, dtype)
        h = tiny_batch(gen, count=230, k=2, m=4, n=4)
        whole = train._mean_wsr(params, h, sysp)
        ws = [gnn.Workspace() for _ in params]
        for chunk in (50, 50, 230, 500):   # the repeat reuses the buffers
            for workspaces in (None, ws):
                got = train._mean_wsr(params, h, sysp, chunk, workspaces)
                assert got.hex() == whole.hex()

    def test_float32_desk_mean_is_deterministic_per_chunk_size(self):
        # the desk test set, 2,000 samples in chunks of 200: its whole stack
        # would run out_fc at 16,000 rows, where the float32 product rounds
        # differently, so the contract is a fixed value per chunk size
        params, sysp, gen = desk_shaped(dtype=np.float32)
        h = tiny_batch(gen, count=2000, k=2, m=4, n=4)
        ws = [gnn.Workspace()]
        got = {train._mean_wsr(params, h, sysp, 200, workspaces).hex()
               for workspaces in (None, ws)}
        assert len(got) == 1

    @pytest.mark.parametrize("tied", [True, False])
    def test_engine_workspace_keeps_every_bit(self, tied):
        # a buffer overwritten while still read would show in the loss or
        # a gradient, in a later step, or in the evaluation that reuses the
        # training buffers
        params, sysp, gen = desk_shaped(tied)
        ws = [gnn.Workspace() for _ in params]
        plain = [train.TrainState(p) for p in params]
        reused = [train.TrainState(p) for p in params]
        for _ in range(3):
            h = tiny_batch(gen, count=50, k=2, m=4, n=4)
            want = train._engine(plain, h, sysp)
            got = train._engine(reused, h, sysp, ws)
            assert got.hex() == want.hex()
            assert state_bytes(reused) == state_bytes(plain)
            for state in plain + reused:
                train.adam_step(state, 1e-2)
        assert state_bytes(reused) == state_bytes(plain)
        nets = [s.params for s in reused]
        h = tiny_batch(gen, count=120, k=2, m=4, n=4)
        assert (train._mean_wsr(nets, h, sysp, 50, ws).hex()
                == train._mean_wsr(nets, h, sysp).hex())

    def test_fresh_takes_never_share_memory(self):
        # FRESH is the reference path the comparisons above check a
        # Workspace against, so it must not reuse as a Workspace does
        takes = [gnn.FRESH.take("nm", (10, 4, 8), np.float32)
                 for _ in range(2)]
        assert takes[0].shape == (10, 4, 8) and takes[0].dtype == np.float32
        assert not np.shares_memory(*takes)
        ws = gnn.Workspace()
        assert np.shares_memory(*(ws.take("nm", (10, 4, 8), np.float32)
                                  for _ in range(2)))

    def test_warm_desk_step_allocates_little(self):
        # a float64 desk step (batch 200) allocates about 18.5 MB without
        # reusing buffers; in float32, as `train` runs, with the workspace
        # and the flat training state, engine and Adam together allocate
        # only small arrays (measured 0.45 MB)
        params, sysp, gen = desk_shaped(dtype=np.float32)
        h = tiny_batch(gen, count=200, k=2, m=4, n=4)
        ws = [gnn.Workspace()]
        states = [train.TrainState(params[0])]

        def step():
            train._engine(states, h, sysp, ws)
            train.adam_step(states[0], 1e-3)

        for _ in range(2):
            step()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.6e6
        assert ws[0].nbytes <= 18.5e6


class TestInference:
    @pytest.mark.parametrize("tied", [True, False])
    def test_infer_batch_matches_pairwise_reference(self, tied):
        k, m, n = 3, 4, 3
        dims = gnn.scaled_dims(n, 16)
        gen = np.random.Generator(np.random.Philox(31))
        params = [gnn.init_params(dims, gen) for _ in range(1 if tied else k)]
        for p in params:
            for lay in p.layers:   # nonzero biases keep the ReLUs mixed
                lay.b[:] = gen.normal(scale=0.1, size=lay.b.shape)
        sysp = train.SystemParams(k, m, n, power=2.0, sigma2=1e-13,
                                  input_scale=1e-7)
        h = tiny_batch(np.random.default_rng(32), count=4, k=k, m=m,
                       n=n) * 1e-7
        w = train.infer_batch(params[0] if tied else params, h, sysp)
        for b in range(4):
            for ki in range(k):
                ref = gnn.forward_satellite(params[ki % len(params)],
                                            h[b, ki] / 1e-7, 2.0,
                                            algorithm="pairwise")
                err = np.linalg.norm(w[b, ki] - ref) / np.linalg.norm(ref)
                assert err <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(k=st.integers(1, 3), m=st.integers(1, 4), n=st.integers(1, 3),
           count=st.integers(1, 4), tied=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_infer_batch_user_permutation_equivariant(self, k, m, n, count,
                                                      tied, seed):
        # Each sample gets its own user permutation, applied on every
        # satellite.  The neighbor max does not see node order, but the
        # power normalization sums in the permuted order, so the beams
        # agree to rounding (1e-12 of the largest entry), not bit for bit.
        gen = np.random.Generator(np.random.Philox(seed))
        dims = gnn.scaled_dims(n, 32)
        params = [gnn.init_params(dims, gen) for _ in range(1 if tied else k)]
        for p in params:   # nonzero biases keep the ReLUs mixed
            for lay in p.layers:
                lay.b[:] = gen.normal(scale=0.1, size=lay.b.shape)
        net = params[0] if tied else params
        sysp = train.SystemParams(k, m, n, power=2.0, sigma2=1.0)
        h = tiny_batch(gen, count=count, k=k, m=m, n=n)
        perm = np.stack([gen.permutation(m) for _ in range(count)])
        idx = perm[:, None, :, None]
        w = train.infer_batch(net, h, sysp)
        got = train.infer_batch(net, np.take_along_axis(h, idx, axis=2), sysp)
        want = np.take_along_axis(w, idx, axis=2)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_single_realization_beamformer_set(self):
        params = make_params(18)
        rng = np.random.default_rng(19)
        h = tiny_batch(rng, count=1)[0]
        bs = train.infer_beamformers(params, h, tiny_system())
        assert bs.w.shape == (2, 2, 2)
        for k in range(2):
            assert np.sum(np.abs(bs.w[k]) ** 2) == pytest.approx(1.0,
                                                                 rel=1e-9)

    def test_batch_input_rejected(self):
        params = make_params(20)
        rng = np.random.default_rng(21)
        with pytest.raises(ValueError):
            train.infer_beamformers(params, tiny_batch(rng), tiny_system())

    def test_infer_batch_shape(self):
        params = make_params(22)
        rng = np.random.default_rng(23)
        w = train.infer_batch(params, tiny_batch(rng, count=5),
                              tiny_system())
        assert w.shape == (5, 2, 2, 2)


class TestCheckpoint:
    def test_roundtrip_params_and_scale(self, tmp_path):
        path = tmp_path / "model.ckpt"
        for params in (make_params(24), [make_params(25), make_params(26)]):
            train.save_checkpoint(path, params, input_scale=2.5e-7)
            ck = train.load_checkpoint(path)
            assert ck.input_scale == 2.5e-7
            want = params if isinstance(params, list) else [params]
            assert len(ck.params_list) == len(want)
            for got, ref in zip(ck.params_list, want):
                assert got.dims == ref.dims
                for a, b in zip(got.layers, ref.layers):
                    np.testing.assert_array_equal(a.w, b.w)
                    np.testing.assert_array_equal(a.b, b.b)

    def test_rejects_old_format(self, tmp_path):
        # the first container held Adam moments and an RNG trailer
        path = tmp_path / "old.ckpt"
        path.write_bytes(b"LEOCKPT1" + b"\0" * 32)
        with pytest.raises(gnn.ArtifactError,
                           match="older checkpoint format, retrain"):
            train.load_checkpoint(path)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 32)
        with pytest.raises(ValueError):
            train.load_checkpoint(path)

    def test_history_csv(self, tmp_path):
        hist = [train.EpochStats(1, 1e-3, 1.5, 1.25),
                train.EpochStats(2, 1e-3, 2.5, 2.25)]
        path = tmp_path / "history.csv"
        train.write_history_csv(path, hist, config_hash="cafe01")
        text = path.read_text().splitlines()
        assert text[0].startswith("# leobeam history v1 config_hash=cafe01 ")
        assert text[1].split(",")[0] == "epoch"
        assert text[2].split(",") == ["1", repr(1e-3), repr(1.5),
                                      repr(1.25)]
