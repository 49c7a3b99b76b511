"""Fixed-point accelerator model: quantizer, integer GEMM, latency, forward.

The cycle formulas are re-derived inline where a test needs them, so the
module under test is checked against an independent transcription rather
than against itself.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leobeam import accel, gnn
from leobeam.accel import (AcceleratorConfig, CapacityError, QuantizedTensor,
                           gemm_cycles, latency_model, layer_bytes,
                           layer_latency, quantize, quantized_forward,
                           round_half_away, sa_gemm)

# frozen: ceil(512/16)^2 * (512 + ceil(512/64) * (2*16-2)) = 1024 * 752
GEMM_CYCLES_512_CUBE = 770_048

# SHA-256 of the int8 and int16 beams in test_beams_match_pinned_digest,
# taken from the datapath that ran its codes through int8/int16 tensors;
# the float64 code path must reproduce them byte for byte
BEAMS_SHA256 = {
    8: "46940220835f0395d1c8c911c407c86cc36dea911214f718d15f6e1eea2fff91",
    16: "6577fe88ba8af7b9da913be50805c5eaed243bade20ccc2f20c88e5a035f6614",
}

# frozen totals for the unscaled network (N=4) serving M=4 users, default
# config (S=16, 8 bytes/cycle, 10 ns), including the 2S-2 prologue
TOTAL_CYCLES_8BIT = 398_734
TOTAL_CYCLES_16BIT = 792_370


def gemm_oracle(a_codes, b_codes):
    """Triple-loop integer product, int64 throughout."""
    m, k = a_codes.shape
    k2, n = b_codes.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            s = 0
            for p in range(k):
                s += int(a_codes[i, p]) * int(b_codes[p, j])
            out[i, j] = s
    return out


def random_codes(rng, shape, bits):
    qmax = 2 ** (bits - 1) - 1
    dtype = np.int8 if bits == 8 else np.int16
    return rng.integers(-qmax, qmax + 1, size=shape).astype(dtype)


def int64_dense(bits, m):
    """The dense stage with int64 products and sums throughout.

    It has its own quantizer and rounding, sign(x) * floor(|x| + 0.5), so
    the accelerator's float64 datapath is checked against independent
    integer arithmetic.
    """
    acc_bits = 32 if bits == 8 else 64
    qmax = 2 ** (bits - 1) - 1

    def rnd(x):
        return np.sign(x) * np.floor(np.abs(x) + 0.5)

    def codes(x, rows=None):
        if rows is None:
            amax = np.abs(x).max(initial=0.0)
        else:
            amax = np.abs(x.reshape(-1, rows, x.shape[1])).max(
                axis=(1, 2), initial=0.0).repeat(rows)[:, None]
        scale = np.where(amax == 0.0, 1.0, amax / qmax)
        return np.clip(rnd(x / scale), -qmax, qmax).astype(np.int64), scale

    def dense(x, layer, spec):
        a, sa = codes(x, m)
        w, sw = codes(layer.w)
        sab = sa * sw
        bias = rnd(layer.b / sab)
        assert np.abs(bias).max(initial=0.0) <= 2 ** 31 - 1
        total = a @ w + bias.astype(np.int64)
        assert np.abs(total).max(initial=0) < 2 ** (acc_bits - 1)
        if spec.relu:
            total = np.maximum(total, 0)
        return total.astype(float) * sab

    return dense


class TestRounding:
    def test_halves_away_from_zero(self):
        x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 0.49, -0.49, 2.4, 0.0])
        want = np.array([1.0, 2.0, 3.0, -1.0, -2.0, -3.0, 0.0, -0.0, 2.0, 0.0])
        assert np.array_equal(round_half_away(x), want)

    def test_differs_from_bankers(self):
        # np.round ties to even; the datapath rounds away from zero
        assert float(np.round(2.5)) == 2.0
        assert float(round_half_away(np.array(2.5))) == 3.0

    def test_scalar_and_integers_pass_through(self):
        assert float(round_half_away(np.array(-3.0))) == -3.0
        x = np.arange(-5, 6, dtype=float)
        assert np.array_equal(round_half_away(x), x)


class TestQuantize:
    @pytest.mark.parametrize("bits", [8, 16])
    def test_extreme_maps_to_qmax(self, bits):
        qmax = 2 ** (bits - 1) - 1
        q = quantize(np.array([-1.0, 0.3, 0.7]), bits)
        assert q.codes[0] == -qmax
        assert q.bits == bits
        assert q.scale == pytest.approx(1.0 / qmax)

    @pytest.mark.parametrize("bits", [8, 16])
    def test_roundtrip_error_bounded(self, bits):
        rng = np.random.Generator(np.random.Philox(3))
        x = rng.normal(size=(40, 17)) * 3.0
        q = quantize(x, bits)
        err = np.abs(q.codes * q.scale - x)
        assert err.max() <= q.scale / 2 + 1e-12
        assert q.codes.dtype == (np.int8 if bits == 8 else np.int16)

    def test_all_zero_input(self):
        q = quantize(np.zeros((3, 4)), 8)
        assert q.scale == 1.0
        assert not q.codes.any()
        assert np.array_equal(q.codes * q.scale, np.zeros((3, 4)))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            quantize(np.array([1.0, np.nan]), 8)
        with pytest.raises(ValueError):
            quantize(np.array([1.0, np.inf]), 16)
        with pytest.raises(ValueError):
            quantize(np.ones(3), 4)

    def test_subnormal_scales(self):
        # 190 * 2^-1074 / 127 rounds to 2^-1074, so the codes reach 190
        # before the clip; 2^-1074 / 127 underflows to a zero scale
        tiny = np.nextafter(0.0, 1.0)
        q = quantize(np.array([190 * tiny, -190 * tiny, 0.0]), 8)
        assert q.codes.tolist() == [127, -127, 0] and q.scale == tiny
        with pytest.raises(ValueError, match="scale must be positive"):
            quantize(np.array([tiny]), 8)

    def test_tensor_validation(self):
        with pytest.raises(ValueError):
            QuantizedTensor(codes=np.ones(3), scale=1.0)  # float codes
        with pytest.raises(ValueError):
            QuantizedTensor(codes=np.zeros(3, dtype=np.int8), scale=0.0)
        with pytest.raises(ValueError):
            # -128 is representable in int8 but outside the symmetric range
            QuantizedTensor(codes=np.array([-128], dtype=np.int8), scale=1.0)

    def test_product_error_bound(self):
        # a = sA*A + eA, |eA| <= sA/2, so an m x k x n product deviates by
        # at most k * sA*sB * 0.5 * (qmaxA + qmaxB + 0.5) per entry
        rng = np.random.Generator(np.random.Philox(4))
        a = rng.normal(size=(6, 31))
        b = rng.normal(size=(31, 5))
        for bits in (8, 16):
            qa, qb = quantize(a, bits), quantize(b, bits)
            qmax = 2 ** (bits - 1) - 1
            bound = 31 * qa.scale * qb.scale * 0.5 * (2 * qmax + 0.5)
            err = np.abs((qa.codes * qa.scale) @ (qb.codes * qb.scale)
                         - a @ b)
            assert err.max() <= bound


class TestConfig:
    def test_defaults_and_derived(self):
        cfg = AcceleratorConfig()
        assert (cfg.sa_size, cfg.bus_bytes_per_cycle, cfg.bits) == (16, 8, 8)
        assert cfg.tm == 16 and cfg.tn == 16
        assert cfg.acc_bits == 32 and cfg.acc_dtype is np.int32
        wide = AcceleratorConfig(bits=16, tile_m=4, tile_n=2)
        assert wide.acc_bits == 64 and wide.acc_dtype is np.int64
        assert wide.tm == 4 and wide.tn == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceleratorConfig(bits=12)
        with pytest.raises(ValueError):
            AcceleratorConfig(sa_size=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(bus_bytes_per_cycle=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(clock_period_ns=0.0)
        with pytest.raises(ValueError):
            AcceleratorConfig(tile_m=0)
        with pytest.raises(ValueError):
            AcceleratorConfig(tile_k=0)


class TestGemm:
    @pytest.mark.parametrize("bits", [8, 16])
    def test_matches_triple_loop_oracle(self, bits):
        rng = np.random.Generator(np.random.Philox(7))
        cfg = AcceleratorConfig(bits=bits)
        for m, k, n in [(1, 1, 1), (3, 5, 2), (16, 16, 16), (17, 33, 9),
                        (64, 64, 64)]:
            aq = QuantizedTensor(random_codes(rng, (m, k), bits), 0.01)
            bq = QuantizedTensor(random_codes(rng, (k, n), bits), 0.5)
            acc, cycles = sa_gemm(aq, bq, cfg)
            assert np.array_equal(acc, gemm_oracle(aq.codes, bq.codes))
            assert acc.dtype == cfg.acc_dtype
            assert cycles == gemm_cycles(m, k, n, cfg)

    def test_cycle_count_frozen(self):
        assert gemm_cycles(512, 512, 512, AcceleratorConfig()) \
            == GEMM_CYCLES_512_CUBE

    def test_cycle_formula_transcription(self):
        cfg = AcceleratorConfig(sa_size=8, tile_k=32, tile_m=4, tile_n=12)
        rng = np.random.Generator(np.random.Philox(8))
        for _ in range(20):
            m, k, n = (int(rng.integers(1, 200)) for _ in range(3))
            want = math.ceil(m / 4) * math.ceil(n / 12) \
                * (k + math.ceil(k / 32) * (2 * 8 - 2))
            assert gemm_cycles(m, k, n, cfg) == want

    def test_bigger_array_is_faster_here(self):
        small = gemm_cycles(512, 512, 512, AcceleratorConfig(sa_size=16))
        big = gemm_cycles(512, 512, 512, AcceleratorConfig(sa_size=32))
        assert big < small

    def test_operand_validation(self):
        cfg = AcceleratorConfig()
        a = QuantizedTensor(np.zeros((2, 3), dtype=np.int8), 1.0)
        b = QuantizedTensor(np.zeros((4, 2), dtype=np.int8), 1.0)
        with pytest.raises(ValueError, match="inner dims"):
            sa_gemm(a, b, cfg)
        b16 = QuantizedTensor(np.zeros((3, 2), dtype=np.int16), 1.0)
        with pytest.raises(ValueError, match="bit-widths"):
            sa_gemm(a, b16, cfg)
        with pytest.raises(ValueError, match="config"):
            sa_gemm(a, QuantizedTensor(np.zeros((3, 2), dtype=np.int8), 1.0),
                    AcceleratorConfig(bits=16))
        with pytest.raises(ValueError, match="2-D"):
            sa_gemm(QuantizedTensor(np.zeros(3, dtype=np.int8), 1.0), b, cfg)
        with pytest.raises(ValueError):
            gemm_cycles(0, 1, 1, cfg)

    def test_depth_guard_at_capacity(self):
        # 32-bit accumulator guarantees 2^31 / 127^2 rounded down = 131072
        # products; the worst case at that depth must still fit
        cfg = AcceleratorConfig(bits=8)
        k = 131072
        a = QuantizedTensor(np.full((1, k), 127, dtype=np.int8), 1.0)
        b = QuantizedTensor(np.full((k, 1), 127, dtype=np.int8), 1.0)
        acc, _ = sa_gemm(a, b, cfg)
        assert acc[0, 0] == k * 127 * 127
        assert acc[0, 0] <= 2 ** 31 - 1
        a2 = QuantizedTensor(np.zeros((1, k + 1), dtype=np.int8), 1.0)
        b2 = QuantizedTensor(np.zeros((k + 1, 1), dtype=np.int8), 1.0)
        with pytest.raises(CapacityError, match="131072"):
            sa_gemm(a2, b2, cfg)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(bits=st.sampled_from((8, 16)), m=st.integers(1, 24),
           k=st.integers(1, 300), n=st.integers(1, 24),
           extreme=st.sampled_from((0, 1, -1)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_int64_product(self, bits, m, k, n, extreme, seed):
        rng = np.random.default_rng(seed)
        qmax = 2 ** (bits - 1) - 1
        a = random_codes(rng, (m, k), bits)
        b = random_codes(rng, (k, n), bits)
        if extreme:
            # all-+-qmax codes give the largest partial sums per depth
            a[:] = qmax
            b[:] = extreme * qmax
        cfg = AcceleratorConfig(bits=bits)
        acc, _ = sa_gemm(QuantizedTensor(a, 1.0), QuantizedTensor(b, 1.0), cfg)
        assert acc.dtype == cfg.acc_dtype
        assert np.array_equal(acc, a.astype(np.int64) @ b.astype(np.int64))

    def test_exactness_bound_at_16_bits(self):
        # float64 sums are exact up to 2^53; 2^31 of it is the bias codes'
        # headroom, so the depth cap is (2^53 - 2^31) // 2^30 = 2^23 - 2
        bound = 2 ** 23 - 2
        qmax = 2 ** 15 - 1
        assert bound * qmax ** 2 + 2 ** 31 <= 2 ** 53
        assert (bound + 1) * 2 ** 30 + 2 ** 31 > 2 ** 53
        cfg = AcceleratorConfig(bits=16)
        k = bound + 1   # far inside the 64-bit accumulator's 2^33
        a = QuantizedTensor(np.zeros((1, k), dtype=np.int16), 1.0)
        b = QuantizedTensor(np.zeros((k, 1), dtype=np.int16), 1.0)
        with pytest.raises(CapacityError,
                           match=f"float64 exactness bound of {bound} "):
            sa_gemm(a, b, cfg)


class TestLayerAccounting:
    def test_layer_bytes_breakdown(self):
        out = layer_bytes(1024, 512, 8)
        assert out["weights"] == 1024 * 512
        assert out["bias"] == 512 * 4
        assert out["activations"] == 0
        assert out["total"] == 1024 * 512 + 2048
        wide = layer_bytes(1024, 512, 16)
        assert wide["weights"] == 2 * out["weights"]
        assert wide["bias"] == out["bias"]  # bias codes stay 32-bit

    def test_streamed_activations(self):
        out = layer_bytes(8, 1024, 8, m_rows=4, stream_in=True)
        assert out["activations"] == 4 * 8
        both = layer_bytes(8, 1024, 16, m_rows=4, stream_in=True,
                           stream_out=True)
        assert both["activations"] == 4 * 8 * 2 + 4 * 1024 * 2

    def test_layer_latency_frozen_input_layer(self):
        # 8 x 1024 serving 4 rows with streamed input, default config
        cfg = AcceleratorConfig()
        compute, memory = layer_latency(8, 1024, 8, cfg, m_rows=4,
                                        stream_in=True)
        assert compute == 2432
        assert memory == 1540
        assert compute > memory  # the one compute-bound layer

    def test_memory_cycles_scale_with_bus(self):
        cfg8 = AcceleratorConfig(bus_bytes_per_cycle=8)
        cfg4 = AcceleratorConfig(bus_bytes_per_cycle=4)
        _, mem8 = layer_latency(1024, 512, 8, cfg8)
        _, mem4 = layer_latency(1024, 512, 8, cfg4)
        assert mem4 == 2 * mem8  # byte total divides both widths

    def test_layer_latency_validation(self):
        with pytest.raises(ValueError):
            layer_latency(0, 4, 8, AcceleratorConfig())
        with pytest.raises(ValueError):
            layer_latency(4, 4, 8, AcceleratorConfig(), m_rows=0)


class TestLatencyModel:
    def full_report(self, bits):
        dims = gnn.GnnDims(n_antennas=4)
        return latency_model(dims, 4, AcceleratorConfig(bits=bits))

    def test_totals_frozen(self):
        r8 = self.full_report(8)
        r16 = self.full_report(16)
        assert r8.total_cycles == TOTAL_CYCLES_8BIT
        assert r16.total_cycles == TOTAL_CYCLES_16BIT
        assert r8.total_ms == pytest.approx(3.98734, rel=1e-12)
        assert r16.total_ms == pytest.approx(7.9237, rel=1e-12)
        ratio = r16.total_cycles / r8.total_cycles
        assert 1.5 <= ratio <= 2.1

    def test_layer_order_and_prologue(self):
        r = self.full_report(8)
        names = [l.name for l in r.layers]
        assert names == ["in_fc1", "in_fc2",
                         "conv1_mlp1_fc1", "conv1_mlp1_fc2",
                         "conv1_mlp2_fc1", "conv1_mlp2_fc2",
                         "conv2_mlp1_fc1", "conv2_mlp1_fc2",
                         "conv2_mlp2_fc1", "conv2_mlp2_fc2",
                         "out_fc"]
        assert r.prologue_cycles == 30

    def test_spot_layers_8bit(self):
        by_name = {l.name: l for l in self.full_report(8).layers}
        fc1 = by_name["in_fc1"]
        assert (fc1.compute_cycles, fc1.memory_cycles) == (2432, 1540)
        assert fc1.bound_tag == "compute-bound"
        fc2 = by_name["in_fc2"]
        assert (fc2.compute_cycles, fc2.memory_cycles) == (48128, 65792)
        assert fc2.bound_tag == "memory-bound"
        conv = by_name["conv1_mlp1_fc1"]
        assert (conv.compute_cycles, conv.memory_cycles) == (24064, 33024)
        out = by_name["out_fc"]
        assert (out.compute_cycles, out.memory_cycles) == (752, 520)
        assert out.bound_tag == "compute-bound"

    def test_large_layers_memory_bound(self):
        # every layer with a 512x512-or-bigger weight block moves more
        # bytes than it can hide behind compute
        tagged = 0
        for l in self.full_report(8).layers:
            if l.rows >= 512 and l.cols >= 512:
                assert l.bound_tag == "memory-bound"
                tagged += 1
            assert l.effective_cycles == max(l.compute_cycles,
                                             l.memory_cycles)
        assert tagged == 9  # all but the first and last layer

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            latency_model(gnn.GnnDims(n_antennas=4), 0, AcceleratorConfig())


class TestQuantizedForward:
    def setup_method(self):
        self.dims = gnn.scaled_dims(4, 8)
        rng = np.random.Generator(np.random.Philox(123))
        self.params = gnn.init_params(self.dims, rng)
        self.h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))

    def test_report_matches_analytic_model(self):
        for bits in (8, 16):
            cfg = AcceleratorConfig(bits=bits)
            _, report = quantized_forward(self.params, self.h, 2.0, cfg)
            want = latency_model(self.dims, 4, cfg)
            assert report.layers == want.layers
            assert report.prologue_cycles == want.prologue_cycles
            assert report.total_cycles == want.total_cycles

    def test_output_power_and_shape(self):
        cfg = AcceleratorConfig(bits=8)
        w, _ = quantized_forward(self.params, self.h, 3.5, cfg)
        assert w.shape == (4, 4) and np.iscomplexobj(w)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(3.5, rel=1e-12)

    def test_close_to_float_forward(self):
        wf = gnn.forward_satellite(self.params, self.h, 2.0)
        w8, _ = quantized_forward(self.params, self.h, 2.0,
                                  AcceleratorConfig(bits=8))
        w16, _ = quantized_forward(self.params, self.h, 2.0,
                                   AcceleratorConfig(bits=16))
        assert np.linalg.norm(w8 - wf) / np.linalg.norm(wf) < 0.15
        assert np.linalg.norm(w16 - wf) / np.linalg.norm(wf) < 1e-3

    def test_error_invariant_to_input_scale(self):
        # per-tensor scales divide out, so shrinking the input does not
        # degrade the fixed-point path
        cfg = AcceleratorConfig(bits=8)
        wf = gnn.forward_satellite(self.params, self.h, 2.0)
        wq, _ = quantized_forward(self.params, self.h, 2.0, cfg)
        wf2 = gnn.forward_satellite(self.params, self.h * 1e-3, 2.0)
        wq2, _ = quantized_forward(self.params, self.h * 1e-3, 2.0, cfg)
        r1 = np.linalg.norm(wq - wf) / np.linalg.norm(wf)
        r2 = np.linalg.norm(wq2 - wf2) / np.linalg.norm(wf2)
        assert r2 == pytest.approx(r1, rel=1e-6)

    def test_hoisted_node_counter(self):
        # each layer, conv MLP1s included, executes once per node: 4 rows
        cfg = AcceleratorConfig(bits=8)
        _, report = quantized_forward(self.params, self.h, 2.0, cfg)
        assert report == latency_model(self.dims, 4, cfg)

    def test_single_user(self):
        w, _ = quantized_forward(self.params, self.h[:1], 1.0,
                                 AcceleratorConfig(bits=8))
        assert w.shape == (1, 4)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_zero_power(self):
        w, _ = quantized_forward(self.params, self.h, 0.0,
                                 AcceleratorConfig(bits=8))
        assert not w.any()

    def test_determinism(self):
        cfg = AcceleratorConfig(bits=8)
        w1, _ = quantized_forward(self.params, self.h, 2.0, cfg)
        w2, _ = quantized_forward(self.params, self.h, 2.0, cfg)
        assert np.array_equal(w1, w2)

    def test_input_validation(self):
        cfg = AcceleratorConfig(bits=8)
        with pytest.raises(ValueError, match="scale must be positive"):
            quantized_forward(self.params, np.full((4, 4), 1e-322 + 0j),
                              2.0, cfg)
        with pytest.raises(ValueError, match="shape"):
            quantized_forward(self.params, self.h[0], 2.0, cfg)
        with pytest.raises(ValueError, match="antenna"):
            quantized_forward(self.params, self.h[:, :3], 2.0, cfg)
        # non-finite activations are a numeric failure, named by layer
        with pytest.raises(gnn.GnnNumericError,
                           match="non-finite values entering in_fc1"):
            quantized_forward(self.params, np.full((4, 4), np.inf + 0j),
                              2.0, cfg)

    def test_bias_code_overflow_guard(self):
        params = gnn.init_params(self.dims,
                                 np.random.Generator(np.random.Philox(5)))
        params.layers[0].b[:] = 1e30
        with pytest.raises(CapacityError, match="bias codes"):
            quantized_forward(params, self.h, 2.0, AcceleratorConfig(bits=8))

    def test_accumulator_overflow_guard(self):
        params = gnn.init_params(self.dims,
                                 np.random.Generator(np.random.Philox(6)))
        h = np.full((4, 4), 1.27 + 1.27j)
        x = np.concatenate([h.real, h.imag], axis=-1)
        sab = quantize(x, 8).scale * quantize(params.layers[0].w, 8).scale
        # bias codes stay under 2^31 but the sum with the products does not
        params.layers[0].b[:] = sab * (2 ** 31 - 1 - 100)
        with pytest.raises(CapacityError, match="after bias"):
            quantized_forward(params, h, 2.0, AcceleratorConfig(bits=8))

    def test_bias_code_limit_at_16_bits(self):
        # bias codes are 32-bit at both widths, though the 16-bit
        # accumulator is 64-bit: the limit is the modeled bias register
        params = gnn.init_params(self.dims,
                                 np.random.Generator(np.random.Philox(9)))
        x = np.concatenate([self.h.real, self.h.imag], axis=-1)
        sab = quantize(x, 16).scale * quantize(params.layers[0].w, 16).scale
        cfg = AcceleratorConfig(bits=16)
        params.layers[0].b[:] = sab * (2 ** 31 - 1)
        w, _ = quantized_forward(params, self.h, 2.0, cfg)
        assert np.all(np.isfinite(w))
        params.layers[0].b[:] = sab * 2 ** 31
        with pytest.raises(CapacityError, match="32 bits at in_fc1"):
            quantized_forward(params, self.h, 2.0, cfg)


class TestQuantizedStack:
    """quantized_forward on a stack against one call per graph."""

    def make(self, m, seed=77):
        dims = gnn.scaled_dims(4, 8)
        rng = np.random.Generator(np.random.Philox(seed))
        params = gnn.init_params(dims, rng)
        h = rng.normal(size=(3, 2, m, 4)) + 1j * rng.normal(size=(3, 2, m, 4))
        return dims, params, rng, h

    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("m", [1, 4])
    def test_bytes_equal_per_graph(self, bits, m):
        dims, params, rng, h = self.make(m)
        cfg = AcceleratorConfig(bits=bits)
        # first an all-zero graph: with the zero initial biases it stays
        # zero through every layer, so each of its scales falls back to 1;
        # then nonzero biases, whose codes follow each graph's scale (with
        # them a zero graph would overflow the 16-bit path's bias codes)
        h[1, 0] = 0.0
        for biased in (False, True):
            if biased:
                h[1, 0] = 0.5 * h[0, 1]
                for lay in params.layers:
                    lay.b[:] = rng.normal(scale=0.01, size=lay.b.shape)
            w, report = quantized_forward(params, h, 1.5, cfg)
            want = np.stack([np.stack([quantized_forward(params, h_k, 1.5,
                                                         cfg)[0]
                                       for h_k in h_b]) for h_b in h])
            assert w.shape == h.shape
            assert w.tobytes() == want.tobytes()
            # all six graphs stream through each layer as one operand
            assert report == latency_model(dims, 6 * m, cfg)

    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("m", [1, 4])
    def test_matches_int64_datapath(self, bits, m):
        _, params, rng, h = self.make(m, seed=78)
        h[0, 1] *= 1e-2
        h[2, 0] *= 1e3
        h[1, 1] = 0.0
        cfg = AcceleratorConfig(bits=bits)
        # the all-zero graph runs with zero biases: with nonzero ones its
        # later layers' scales shrink until 16-bit bias codes pass 32 bits
        for biased in (False, True):
            if biased:
                h[1, 1] = 0.5 * h[0, 0]
                for lay in params.layers:
                    lay.b[:] = rng.normal(scale=1e-4, size=lay.b.shape)
            w, _ = quantized_forward(params, h, 1.5, cfg)
            _, want = gnn._forward_group(params, h, 1.5,
                                         dense=int64_dense(bits, m))
            assert w.tobytes() == want.tobytes()

    def test_one_overflowing_graph_names_layer(self):
        _, params, rng, h = self.make(4)
        for lay in params.layers:
            lay.b[:] = rng.normal(scale=0.1, size=lay.b.shape)
        cfg = AcceleratorConfig(bits=8)
        h[2, 1] *= 1e-30   # tiny scale: its bias codes exceed 32 bits
        for b in range(3):
            for k in range(2):
                if (b, k) != (2, 1):
                    quantized_forward(params, h[b, k], 1.0, cfg)
        with pytest.raises(CapacityError, match="bias codes .* at in_fc1"):
            quantized_forward(params, h, 1.0, cfg)


class TestFloatCodeDatapath:
    """The float64-code layers against pinned beams and int64 arithmetic."""

    @pytest.mark.parametrize("bits", [8, 16])
    def test_beams_match_pinned_digest(self, bits):
        # a desk-width network with small biases; two graphs rescaled
        rng = np.random.Generator(np.random.Philox(2026))
        params = gnn.init_params(gnn.scaled_dims(4, 8), rng)
        for lay in params.layers:
            lay.b[:] = rng.normal(scale=1e-4, size=lay.b.shape)
        h = rng.normal(size=(5, 2, 4, 4)) + 1j * rng.normal(size=(5, 2, 4, 4))
        h[1, 0] *= 1e-2
        h[3, 1] *= 1e2
        w, _ = quantized_forward(params, h, 1.5,
                                 AcceleratorConfig(bits=bits))
        assert w.shape == h.shape and w.dtype == np.complex128
        assert hashlib.sha256(w.tobytes()).hexdigest() == BEAMS_SHA256[bits]

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(bits=st.sampled_from((8, 16)), m=st.integers(1, 4),
           n=st.integers(1, 4),
           scales=st.lists(st.sampled_from((0.0, 1e-3, 1.0, 1e3)),
                           min_size=1, max_size=4),
           bias=st.sampled_from((0.0, 1e-6, 1e-4, 1e-2)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_int64_datapath(self, bits, m, n, scales, bias, seed):
        rng = np.random.default_rng(seed)
        params = gnn.init_params(gnn.scaled_dims(n, 16), rng)
        for lay in params.layers:
            lay.b[:] = rng.normal(scale=bias, size=lay.b.shape)
        shape = (len(scales), m, n)
        # a zero scale gives an all-zero graph with signed zeros in it
        h = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) \
            * np.array(scales)[:, None, None]
        cfg = AcceleratorConfig(bits=bits)
        dense = int64_dense(bits, m)
        try:
            w, _ = quantized_forward(params, h, 1.5, cfg)
        except CapacityError:
            # the int64 stage asserts the same bias and accumulator bounds
            with pytest.raises(AssertionError):
                gnn._forward_group(params, h, 1.5, dense=dense)
            return
        _, want = gnn._forward_group(params, h, 1.5, dense=dense)
        assert w.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bits", [8, 16])
    def test_zero_sums_are_positive_zero(self, bits, monkeypatch):
        # integer accumulators have one zero; a BLAS may return -0.0 for a
        # sum of -0.0 products, and -0.0 bias codes must not keep it
        product = accel._code_product

        def negative_zero_product(a, b, cfg):
            acc = product(a, b, cfg)
            acc[acc == 0.0] = -0.0
            return acc

        monkeypatch.setattr(accel, "_code_product", negative_zero_product)
        rng = np.random.Generator(np.random.Philox(31))
        params = gnn.init_params(gnn.scaled_dims(4, 16), rng)
        for lay in params.layers:
            lay.b[:] = -1e-300   # rounds to -0.0 codes at every scale
        h = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        h[1] = -0.0
        cfg = AcceleratorConfig(bits=bits)
        w, _ = quantized_forward(params, h, 1.5, cfg)
        _, want = gnn._forward_group(params, h, 1.5,
                                     dense=int64_dense(bits, 4))
        assert w.tobytes() == want.tobytes()
