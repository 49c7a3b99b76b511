"""Behavioral model of a fixed-point dense-layer accelerator.

Covers symmetric per-tensor quantization, an output-stationary systolic
array computing exact integer GEMMs with a closed-form cycle count, a
double-buffered latency model where each layer costs max(compute cycles,
memory cycles), and a quantized end-to-end forward pass of the beamforming
network that reuses the hoisted graph-conv schedule.

The model is behavioral: cycle counts follow the stated formulas, not a
synthesized design.  Weights and biases stream from off-chip once per
inference; activations between fused layers stay on-chip and only the
network input and final output cross the bus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gnn import (ArtifactError, GnnDims, GnnParams, FcLayer, layer_plan,
                  normalize_power, read_exact, _read_header, _write_header)


class CapacityError(RuntimeError):
    """An integer stage would overflow its accumulator or code width."""


@dataclass(frozen=True)
class AcceleratorConfig:
    """Array geometry, bus width, clock, tiling, and code bit-width.

    Accumulators are 32-bit for 8-bit codes and widen to 64-bit for 16-bit
    codes, since a 32-bit accumulator admits only two 16-bit products.
    """

    sa_size: int = 16
    bus_bytes_per_cycle: int = 8
    clock_period_ns: float = 10.0
    tile_m: int | None = None
    tile_k: int = 64
    tile_n: int | None = None
    bits: int = 8

    def __post_init__(self):
        if self.bits not in (8, 16):
            raise ValueError("bits must be 8 or 16")
        if self.sa_size < 1 or self.tile_k < 1:
            raise ValueError("sa_size and tile_k must be >= 1")
        if self.bus_bytes_per_cycle < 1:
            raise ValueError("bus_bytes_per_cycle must be >= 1")
        if self.clock_period_ns <= 0:
            raise ValueError("clock_period_ns must be positive")
        for t in (self.tile_m, self.tile_n):
            if t is not None and t < 1:
                raise ValueError("tile dims must be >= 1")

    @property
    def tm(self) -> int:
        return self.tile_m if self.tile_m is not None else self.sa_size

    @property
    def tn(self) -> int:
        return self.tile_n if self.tile_n is not None else self.sa_size

    @property
    def acc_bits(self) -> int:
        return 32 if self.bits == 8 else 64

    @property
    def acc_dtype(self):
        return np.int32 if self.bits == 8 else np.int64


@dataclass
class QuantizedTensor:
    """Signed integer codes with one scale; value = code * scale."""

    codes: np.ndarray
    scale: float

    def __post_init__(self):
        if self.codes.dtype == np.int8:
            self.bits = 8
        elif self.codes.dtype == np.int16:
            self.bits = 16
        else:
            raise ValueError("codes must be int8 or int16")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        qmax = 2 ** (self.bits - 1) - 1
        if np.abs(self.codes, dtype=np.int32).max(initial=0) > qmax:
            raise ValueError("codes exceed the representable range")

    @property
    def shape(self):
        return self.codes.shape


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with halves away from zero (not banker's)."""
    x = np.asarray(x)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize(x: np.ndarray, bits: int) -> QuantizedTensor:
    if bits not in (8, 16):
        raise ValueError("bits must be 8 or 16")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot quantize non-finite values")
    qmax = 2 ** (bits - 1) - 1
    amax = float(np.abs(x).max(initial=0.0))
    dtype = np.int8 if bits == 8 else np.int16
    if amax == 0.0:
        return QuantizedTensor(codes=np.zeros(x.shape, dtype=dtype), scale=1.0)
    scale = amax / qmax
    codes = np.clip(round_half_away(x / scale), -qmax, qmax)
    return QuantizedTensor(codes=codes.astype(dtype), scale=scale)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    return q.codes.astype(float) * q.scale


def gemm_cycles(m: int, k: int, n: int, cfg: AcceleratorConfig) -> int:
    """Cycle count for an m x k x n integer GEMM on the S x S array.

    Output-stationary schedule: every (row tile, column tile) pair streams
    all k-chunks through the array, each chunk costing its depth plus the
    2S-2 fill/drain of the pipeline.  Edge tiles keep their true depth.
    """
    if min(m, k, n) < 1:
        raise ValueError("gemm dims must be >= 1")
    tiles_m = math.ceil(m / cfg.tm)
    tiles_n = math.ceil(n / cfg.tn)
    chunks = math.ceil(k / cfg.tile_k)
    drain = 2 * cfg.sa_size - 2
    return tiles_m * tiles_n * (k + chunks * drain)


def sa_gemm(aq: QuantizedTensor, bq: QuantizedTensor,
            cfg: AcceleratorConfig):
    """Exact integer product of code matrices plus modeled cycles."""
    if aq.codes.ndim != 2 or bq.codes.ndim != 2:
        raise ValueError("sa_gemm expects 2-D operands")
    m, k = aq.shape
    k2, n = bq.shape
    if k != k2:
        raise ValueError(f"inner dims disagree: {k} vs {k2}")
    if aq.bits != bq.bits:
        raise ValueError("operand bit-widths disagree")
    if aq.bits != cfg.bits:
        raise ValueError("operand bit-width disagrees with config")
    limit = 2 ** (cfg.acc_bits - 1) // (2 ** (aq.bits - 1)) ** 2
    if k > limit:
        raise CapacityError(
            f"depth {k} exceeds the {cfg.acc_bits}-bit accumulator "
            f"guarantee of {limit} products at {aq.bits}-bit codes")
    acc = aq.codes.astype(np.int64) @ bq.codes.astype(np.int64)
    return acc.astype(cfg.acc_dtype), gemm_cycles(m, k, n, cfg)


# --- latency accounting --------------------------------------------------------

def layer_bytes(rows: int, cols: int, bits: int, m_rows: int = 1,
                stream_in: bool = False, stream_out: bool = False) -> dict:
    """Off-chip traffic for one dense layer, in bytes.

    Weights at the code width, biases as 32-bit codes; activations cross
    the bus only at the fusion boundaries (network input and final output).
    """
    out = {
        "weights": rows * cols * bits // 8,
        "bias": cols * 4,
        "activations": (m_rows * rows * bits // 8 if stream_in else 0)
        + (m_rows * cols * bits // 8 if stream_out else 0),
    }
    out["total"] = out["weights"] + out["bias"] + out["activations"]
    return out


def layer_latency(rows: int, cols: int, bits: int, cfg: AcceleratorConfig,
                  m_rows: int = 1, stream_in: bool = False,
                  stream_out: bool = False):
    """(compute_cycles, memory_cycles) for a rows x cols dense layer."""
    if rows < 1 or cols < 1 or m_rows < 1:
        raise ValueError("layer dims must be >= 1")
    compute = gemm_cycles(m_rows, rows, cols, cfg)
    nbytes = layer_bytes(rows, cols, bits, m_rows, stream_in, stream_out)
    memory = math.ceil(nbytes["total"] / cfg.bus_bytes_per_cycle)
    return compute, memory


@dataclass(frozen=True)
class LayerLatency:
    name: str
    rows: int
    cols: int
    bits: int
    compute_cycles: int
    memory_cycles: int

    @property
    def effective_cycles(self) -> int:
        # double buffering overlaps transfer with compute
        return max(self.compute_cycles, self.memory_cycles)

    @property
    def bound_tag(self) -> str:
        if self.memory_cycles >= self.compute_cycles:
            return "memory-bound"
        return "compute-bound"


@dataclass(frozen=True)
class LatencyReport:
    layers: tuple
    prologue_cycles: int
    clock_period_ns: float

    @property
    def total_cycles(self) -> int:
        return sum(l.effective_cycles for l in self.layers) \
            + self.prologue_cycles

    @property
    def total_ms(self) -> float:
        return self.total_cycles * self.clock_period_ns * 1e-6

    def to_csv(self) -> str:
        lines = ["layer,rows,cols,bits,compute_cycles,memory_cycles,"
                 "effective_cycles,bound_tag"]
        for l in self.layers:
            lines.append(f"{l.name},{l.rows},{l.cols},{l.bits},"
                         f"{l.compute_cycles},{l.memory_cycles},"
                         f"{l.effective_cycles},{l.bound_tag}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        return f"total_cycles={self.total_cycles} total_ms={repr(self.total_ms)}"


def _schedule(dims: GnnDims, m_users: int):
    """(spec, m_rows, stream_in, stream_out) per layer, hoisted schedule."""
    plan = layer_plan(dims)
    return [(spec, m_users, spec.name == "in_fc1", spec.name == "out_fc")
            for spec in plan]


def latency_model(dims: GnnDims, m_users: int,
                  cfg: AcceleratorConfig) -> LatencyReport:
    """Analytic end-to-end latency without executing any arithmetic."""
    if m_users < 1:
        raise ValueError("m_users must be >= 1")
    rows = []
    for spec, m_rows, sin, sout in _schedule(dims, m_users):
        compute, memory = layer_latency(spec.fan_in, spec.fan_out, cfg.bits,
                                        cfg, m_rows, sin, sout)
        rows.append(LayerLatency(spec.name, spec.fan_in, spec.fan_out,
                                 cfg.bits, compute, memory))
    return LatencyReport(layers=tuple(rows),
                         prologue_cycles=2 * cfg.sa_size - 2,
                         clock_period_ns=cfg.clock_period_ns)


# --- quantized forward ---------------------------------------------------------

_INT32_MAX = 2 ** 31 - 1


def _q_dense(x: np.ndarray, layer: FcLayer, relu: bool, name: str,
             cfg: AcceleratorConfig):
    """One dense layer on the integer datapath; float in, float out.

    Input activations and weights are quantized per tensor, multiplied
    exactly, bias added as 32-bit codes at the product scale, ReLU applied
    on accumulators, and the result dequantized for the next stage.
    """
    aq = quantize(x, cfg.bits)
    wq = quantize(layer.w, cfg.bits)
    acc, cycles = sa_gemm(aq, wq, cfg)
    sab = aq.scale * wq.scale
    bias_codes = round_half_away(layer.b / sab)
    if np.abs(bias_codes).max(initial=0.0) > _INT32_MAX:
        raise CapacityError(f"bias codes overflow 32 bits at {name}")
    total = acc.astype(np.int64) + bias_codes.astype(np.int64)[None, :]
    if np.abs(total).max(initial=0) >= 2 ** (cfg.acc_bits - 1):
        raise CapacityError(f"accumulator overflow after bias at {name}")
    if relu:
        total = np.maximum(total, 0)
    return total.astype(float) * sab, cycles


def quantized_forward(params: GnnParams, h_k: np.ndarray, power: float,
                      cfg: AcceleratorConfig, counts=None):
    """Fixed-point forward pass for one satellite plus its latency report.

    The graph convs run the hoisted schedule (one MLP1 pass over all
    nodes); max aggregation, concatenation, and the final normalization and
    real-to-complex conversion stay in float off the modeled datapath.
    The report is assembled from the executed layer pipeline and matches
    latency_model exactly.
    """
    h_k = np.asarray(h_k)
    if h_k.ndim != 2:
        raise ValueError("per-satellite channel must have shape (M, N)")
    m_users = h_k.shape[0]
    n = params.dims.n_antennas
    x = np.concatenate([h_k.real, h_k.imag], axis=-1).astype(float)
    if x.shape[1] != 2 * n:
        raise ValueError("channel antenna count disagrees with params")

    executed = []
    plan = layer_plan(params.dims)

    def dense(x, index, relu, name):
        spec = plan[index]
        y, cycles = _q_dense(x, params.layers[index], relu, name, cfg)
        nbytes = layer_bytes(spec.fan_in, spec.fan_out, cfg.bits, m_users,
                             stream_in=name == "in_fc1",
                             stream_out=name == "out_fc")
        memory = math.ceil(nbytes["total"] / cfg.bus_bytes_per_cycle)
        executed.append(LayerLatency(name, spec.fan_in, spec.fan_out,
                                     cfg.bits, cycles, memory))
        return y

    def conv(x, c):
        base = 2 + (c - 1) * 4
        if counts is not None:
            counts["mlp1_nodes"] = counts.get("mlp1_nodes", 0) + m_users
        h1 = dense(x, base, True, f"conv{c}_mlp1_fc1")
        h2 = dense(h1, base + 1, True, f"conv{c}_mlp1_fc2")
        if m_users == 1:
            agg = np.zeros_like(h2)
        else:
            agg = np.empty_like(h2)
            for i in range(m_users):
                js = [j for j in range(m_users) if j != i]
                agg[i] = h2[js].max(axis=0)
        comb = np.concatenate([x, agg], axis=-1)
        g1 = dense(comb, base + 2, True, f"conv{c}_mlp2_fc1")
        return dense(g1, base + 3, True, f"conv{c}_mlp2_fc2")

    x = dense(x, 0, True, "in_fc1")
    x = dense(x, 1, True, "in_fc2")
    x = conv(x, 1)
    x = conv(x, 2)
    out = dense(x, 10, False, "out_fc")
    y = out[:, :n] + 1j * out[:, n:2 * n]
    w_k = normalize_power(y, power)

    report = LatencyReport(layers=tuple(executed),
                           prologue_cycles=2 * cfg.sa_size - 2,
                           clock_period_ns=cfg.clock_period_ns)
    return w_k, report


# --- quantized parameter container ---------------------------------------------

@dataclass
class QuantizedParams:
    dims: GnnDims
    bits: int
    layers: list  # (QuantizedTensor weights, float64 bias vector) pairs

    def to_params(self) -> GnnParams:
        """Dequantized float parameters; re-quantizing is a fixed point."""
        return GnnParams(dims=self.dims,
                         layers=[FcLayer(w=dequantize(wq), b=b.copy())
                                 for wq, b in self.layers])


def quantize_params(params: GnnParams, bits: int) -> QuantizedParams:
    layers = [(quantize(l.w, bits), np.asarray(l.b, dtype=np.float64))
              for l in params.layers]
    return QuantizedParams(dims=params.dims, bits=bits, layers=layers)


def save_quantized(path, qparams: QuantizedParams) -> None:
    with open(path, "wb") as fh:
        _write_header(fh, qparams.dims, qparams.bits)
        for wq, b in qparams.layers:
            fh.write(np.float64(wq.scale).tobytes())
            fh.write(np.ascontiguousarray(wq.codes).tobytes())
            fh.write(np.ascontiguousarray(b, dtype=np.float64).tobytes())


def load_quantized(path) -> QuantizedParams:
    with open(path, "rb") as fh:
        tag, dims = _read_header(fh)
        if tag not in (8, 16):
            raise ArtifactError(f"{path}: container holds float parameters "
                                f"(tag {tag}), use the float loader")
        dtype = np.int8 if tag == 8 else np.int16
        itemsize = np.dtype(dtype).itemsize
        layers = []
        for spec in layer_plan(dims):
            (scale,) = np.frombuffer(read_exact(fh, 8), dtype=np.float64)
            codes = np.frombuffer(
                read_exact(fh, itemsize * spec.fan_in * spec.fan_out),
                dtype=dtype).reshape(spec.fan_in, spec.fan_out).copy()
            bias = np.frombuffer(read_exact(fh, 8 * spec.fan_out),
                                 dtype=np.float64).copy()
            layers.append((QuantizedTensor(codes=codes, scale=float(scale)),
                           bias))
    return QuantizedParams(dims=dims, bits=tag, layers=layers)
