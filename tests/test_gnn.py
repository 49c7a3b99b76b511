"""Network forward-pass tests: reference transcription, equivalence, counts."""

import io
import os

import numpy as np
import pytest

from leobeam import gnn, train

TINY = gnn.scaled_dims(2, 32)    # N=2: widths 32/16/16/16/16/32/16/16


def make_params(seed=20260819, dims=TINY):
    rng = np.random.Generator(np.random.Philox(seed))
    return gnn.init_params(dims, rng)


def reference_forward(params, h_k, power):
    """Literal per-node transcription of the architecture, loop by loop.

    Written independently of the library helpers: explicit relu, explicit
    max aggregation, explicit concat, explicit trace rescale.
    """
    relu = lambda v: np.maximum(v, 0.0)
    fc = lambda v, lay: v @ lay.w + lay.b
    m = h_k.shape[0]
    x = np.concatenate([h_k.real, h_k.imag], axis=1)
    lay = params.layers
    x = relu(fc(relu(fc(x, lay[0])), lay[1]))
    for conv in range(2):
        base = 2 + conv * 4
        nxt = np.empty((m, lay[base + 3].w.shape[1]))
        for i in range(m):
            agg = None
            for j in range(m):
                if j == i:
                    continue
                t = relu(fc(relu(fc(x[j], lay[base])), lay[base + 1]))
                agg = t if agg is None else np.maximum(agg, t)
            if agg is None:
                agg = np.zeros(lay[base + 1].w.shape[1])
            comb = np.concatenate([x[i], agg])
            nxt[i] = relu(fc(relu(fc(comb, lay[base + 2])), lay[base + 3]))
        x = nxt
    out = fc(x, lay[10])
    n = params.dims.n_antennas
    w = out[:, :n] + 1j * out[:, n:2 * n]
    total = np.sum(np.abs(w) ** 2)
    return w if total == 0 else w * np.sqrt(power / total)


class TestForward:
    def test_matches_reference_transcription(self):
        params = make_params()
        rng = np.random.default_rng(5)
        for m in (1, 2, 3, 5):
            h_k = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
            want = reference_forward(params, h_k, 1.7)
            for algo in ("pairwise", "refactored"):
                got = gnn.forward_satellite(params, h_k, 1.7, algorithm=algo)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_frozen_golden_values(self):
        # regression pin for the seeded init plus forward
        params = make_params()
        rng2 = np.random.Generator(np.random.Philox(99))
        h_k = rng2.normal(size=(3, 2)) + 1j * rng2.normal(size=(3, 2))
        w = gnn.forward_satellite(params, h_k, 2.0)
        assert w[0, 0] == pytest.approx(
            0.22703383629726484 + 0.5089838335843686j, rel=1e-12)
        assert w[2, 1] == pytest.approx(
            -0.08160547759909959 + 0.05619113835181225j, rel=1e-12)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(2.0, rel=1e-12)

    def test_algorithms_agree_on_random_instances(self):
        params = make_params(3)
        rng = np.random.default_rng(6)
        for _ in range(20):
            h_k = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            a = gnn.forward_satellite(params, h_k, 1.0,
                                      algorithm="pairwise")
            b = gnn.forward_satellite(params, h_k, 1.0,
                                      algorithm="refactored")
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_permutation_equivariance(self):
        params = make_params(4)
        rng = np.random.default_rng(7)
        h_k = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        perm = np.array([3, 0, 4, 2, 1])
        w = gnn.forward_satellite(params, h_k, 1.0)
        w_p = gnn.forward_satellite(params, h_k[perm], 1.0)
        np.testing.assert_allclose(w_p, w[perm], rtol=0, atol=1e-9)

    def test_exact_power(self):
        params = make_params(8)
        rng = np.random.default_rng(9)
        h_k = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        for power in (0.5, 1.0, 10.0):
            w = gnn.forward_satellite(params, h_k, power)
            assert np.sum(np.abs(w) ** 2) == pytest.approx(power, rel=1e-9)

    def test_normalize_power_over_leading_axes(self):
        rng = np.random.default_rng(14)
        y = rng.normal(size=(2, 3, 4, 2)) + 1j * rng.normal(size=(2, 3, 4, 2))
        y[1, 2] = 0.0
        w = gnn.normalize_power(y, 1.3)
        for idx in np.ndindex(2, 3):
            assert w[idx].tobytes() == gnn.normalize_power(y[idx],
                                                           1.3).tobytes()
        p = np.sum(np.abs(w) ** 2, axis=(2, 3))
        np.testing.assert_allclose(np.delete(p.ravel(), 5), 1.3, rtol=1e-12)
        assert not w[1, 2].any()

    def test_single_node_zero_aggregate(self):
        # M=1 must not crash; the aggregate is the zero vector
        params = make_params(10)
        h_k = np.array([[0.3 + 0.1j, -0.2 + 0.7j]])
        w = gnn.forward_satellite(params, h_k, 1.0)
        assert w.shape == (1, 2)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_input_scale_robustness(self):
        # across 15 orders of magnitude: finite output, budget or zero power
        params = make_params(11)
        rng = np.random.default_rng(12)
        base = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        for scale in (1e-12, 1e-6, 1.0, 1e3):
            w = gnn.forward_satellite(params, base * scale, 1.0)
            assert np.all(np.isfinite(w.view(float)))
            p = np.sum(np.abs(w) ** 2)
            assert p == pytest.approx(1.0, rel=1e-9) or p == 0.0

    def test_nan_input_raises_named_stage(self):
        params = make_params(13)
        h_k = np.full((2, 2), np.nan + 0j)
        with pytest.raises(gnn.GnnNumericError):
            gnn.forward_satellite(params, h_k, 1.0)


class TestCounters:
    def test_mlp1_node_counts(self):
        params = make_params(14)
        rng = np.random.default_rng(15)
        for m in (1, 2, 4, 6):
            h_k = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
            c1, c2 = {}, {}
            gnn.forward_satellite(params, h_k, 1.0, algorithm="pairwise",
                                  counts=c1)
            gnn.forward_satellite(params, h_k, 1.0, algorithm="refactored",
                                  counts=c2)
            # two conv layers each; counters are sparse (absent means zero)
            assert c1.get("mlp1_nodes", 0) == 2 * m * (m - 1)
            assert c2.get("mlp1_nodes", 0) == 2 * m

    def test_mac_totals_desk_scale(self):
        # hand-checked tallies for scale 8, M=4, N=4
        dims = gnn.scaled_dims(4, 8)
        mc = gnn.mac_count(4, 4, dims)
        assert mc.total_pairwise == 333_824
        assert mc.total_hoisted == 202_752
        assert mc.measured_pairwise == mc.total_pairwise
        assert mc.measured_hoisted == mc.total_hoisted

    def test_mac_components(self):
        dims = gnn.scaled_dims(4, 8)
        mc = gnn.mac_count(4, 4, dims)
        # input: 2MN L1 + M L1 L2; output: M L8 out_width
        assert mc.input_mlp == 2 * 4 * 4 * 128 + 4 * 128 * 64
        assert mc.output_fc == 4 * 64 * 8
        assert mc.conv_pairwise > mc.conv_hoisted

    def test_mac_single_user(self):
        dims = gnn.scaled_dims(2, 32)
        mc = gnn.mac_count(1, 2, dims)
        assert mc.measured_pairwise == mc.total_pairwise
        assert mc.measured_hoisted == mc.total_hoisted


class TestInit:
    def test_glorot_bounds_and_zero_biases(self):
        params = make_params(16)
        for spec, lay in zip(gnn.layer_plan(TINY), params.layers):
            bound = np.sqrt(6.0 / (spec.fan_in + spec.fan_out))
            assert lay.w.shape == (spec.fan_in, spec.fan_out)
            assert np.max(np.abs(lay.w)) <= bound
            assert np.all(lay.b == 0)

    def test_seed_identity(self):
        a, b = make_params(17), make_params(17)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.w, lb.w)

    def test_plan_is_eleven_layers(self):
        plan = gnn.layer_plan(TINY)
        assert len(plan) == 11
        assert plan[0].name == "in_fc1" and plan[-1].name == "out_fc"
        assert not plan[-1].relu

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            gnn.GnnDims(4, l6=100)   # combiner width must be l3 + l5

    def test_wide_output_width(self):
        dims = gnn.scaled_dims(4, 8, wide_output=True)
        assert dims.out_width == 16
        plan = gnn.layer_plan(dims)
        assert plan[-1].fan_out == 16
        params = make_params(18, dims)
        rng = np.random.default_rng(19)
        h_k = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        w = gnn.forward_satellite(params, h_k, 1.0)
        # the beam uses the first 2N outputs; shape stays (M, N)
        assert w.shape == (3, 4)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(1.0, rel=1e-12)


class TestContainer:
    def test_roundtrip_f8(self):
        params = make_params(20)
        buf = io.BytesIO()
        gnn.write_params(buf, params)
        buf.seek(0)
        back = gnn.read_params(buf)
        assert back.dims == params.dims
        for la, lb in zip(params.layers, back.layers):
            np.testing.assert_array_equal(la.w, lb.w)
            np.testing.assert_array_equal(la.b, lb.b)

    def test_file_roundtrip(self, tmp_path):
        params = make_params(22)
        path = tmp_path / "net.bin"
        with open(path, "wb") as fh:
            gnn.write_params(fh, params)
        with open(path, "rb") as fh:
            back = gnn.read_params(fh)
        np.testing.assert_array_equal(back.layers[5].w, params.layers[5].w)

    def test_rejects_bad_magic(self):
        with pytest.raises(ValueError):
            gnn.read_params(io.BytesIO(b"XXXXXXXX" + b"\0" * 64))

    def test_truncated_or_oversized_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        with open(path, "wb") as fh:
            gnn.write_params(fh, make_params(42, gnn.scaled_dims(3, 16)))
        data = path.read_bytes()

        def read_back(content):
            path.write_bytes(content)
            with open(path, "rb") as fh:
                gnn.read_params(fh)

        for cut in (4, 20, 70, len(data) // 2, len(data) - 1):
            with pytest.raises(gnn.ArtifactError):
                read_back(data[:cut])
        # l1 claims 2**31 neurons: rejected before any read that large
        with pytest.raises(gnn.ArtifactError, match="truncated"):
            read_back(data[:16] + (2 ** 31).to_bytes(4, "little")
                      + data[20:])

    def test_rejects_quantized_tags(self):
        buf = io.BytesIO()
        gnn.write_params(buf, make_params(23))
        data = buf.getvalue()
        for tag in (8, 16):   # the tags of 8- and 16-bit code containers
            patched = data[:8] + tag.to_bytes(4, "little") + data[12:]
            with pytest.raises(gnn.ArtifactError, match=f"tag {tag} "):
                gnn.read_params(io.BytesIO(patched))


class TestAtomicWrite:
    def test_raising_writer_keeps_old_file(self, tmp_path):
        path = tmp_path / "history.csv"
        path.write_text("old\n")
        with pytest.raises(RuntimeError, match="midway"):
            with gnn.atomic_write(path) as fh:
                fh.write("new, half written")
                raise RuntimeError("writer died midway")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["history.csv"]

    def test_completed_write_replaces_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with gnn.atomic_write(path, "wb") as fh:
            fh.write(b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failed_checkpoint_keeps_old_one(self, tmp_path):
        path = tmp_path / "model.ckpt"
        params = make_params()
        train.save_checkpoint(path, params, input_scale=2.0)
        old = path.read_bytes()
        # the second model is not a parameter set: the write fails after
        # the first model's bytes
        with pytest.raises(AttributeError):
            train.save_checkpoint(path, [params, "not a model"])
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["model.ckpt"]
