"""Behavioral model of a fixed-point dense-layer accelerator.

Covers symmetric per-tensor quantization, an output-stationary systolic
array computing exact integer GEMMs with a closed-form cycle count, a
double-buffered latency model where each layer costs max(compute cycles,
memory cycles), and a quantized end-to-end forward pass of the beamforming
network: `gnn._forward_group` with each dense layer on the integer
datapath, `quantized_dense`, which `experiments.compute_beams` takes as
well.  One graph or any stack of them runs as one pass, each graph with its
own activation scales, and records the latency model's own rows at the
row counts it executed.

The datapath holds codes in float64 from quantization to dequantization,
with no integer dtype on the way.  Two private kernels serve it and the
public wrappers alike: `_codes` (finite screen, scale, round half away
from zero, clip) and `_code_product` (the depth guards and one float64
BLAS product).  `quantize` and `sa_gemm` wrap them with their integer
contracts: int8/int16 `QuantizedTensor` codes, and products in
`AcceleratorConfig.acc_dtype`.  Inputs without negative values, which
every layer after the first takes, skip the |x| copy and the sign restore.

Code products are exact: every partial sum is an integer of magnitude at
most k * 2^(2(bits-1)) for depth k, and the product kernel admits only
depths where that plus 2^31 of bias headroom stays within 2^53, so every
sum is representable whatever order BLAS adds in.  That covers every
depth the 8-bit accumulator guard admits (k <= 131,072); at 16 bits it
caps the depth at 2^23 - 2 and deeper products raise `CapacityError`
naming the bound.  The bias add, the overflow checks, ReLU and
dequantization run in place on the product, in exact-integer float64,
so the beams are those of integer arithmetic, zeros included.

The model is behavioral: cycle counts follow the stated formulas, not a
synthesized design.  Weights and biases stream from off-chip once per
inference; activations between fused layers stay on-chip and only the
network input and final output cross the bus.  Bias codes are 32-bit at
both code widths, a modeled hardware limit: a layer whose bias needs more
than 32 bits at its product scale raises `CapacityError`, also at 16 bits
where the accumulator is 64-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gnn import (GnnDims, GnnNumericError, GnnParams, FcLayer, LayerSpec,
                  layer_plan, _forward_group)


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
        # the dtype caps codes at +qmax; only its most negative value is out
        if self.codes.min(initial=0) < -(2 ** (self.bits - 1) - 1):
            raise ValueError("codes exceed the representable range")

    @property
    def shape(self):
        return self.codes.shape


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with halves away from zero (not banker's)."""
    x = np.asarray(x)
    return _round_magnitudes(np.abs(x, out=np.empty(x.shape)), x)


def _round_magnitudes(mag: np.ndarray, signs=None, qmax: float = math.inf):
    """In place: mag holds |v| for values v with the signs of `signs`
    (None: v >= 0); returns v rounded half away from zero and clipped to
    [-qmax, qmax]."""
    # |v| + 0.5 rounds as v + copysign(0.5, v) does, so the floor of it
    # with v's sign is that sum's truncation: halves go away from zero
    mag += 0.5
    np.floor(mag, out=mag)
    np.minimum(mag, qmax, out=mag)
    if signs is None:
        return mag
    return np.copysign(mag, signs, out=mag)


def _codes(x: np.ndarray, bits: int, rows: int | None = None):
    """(codes, scale): float64 codes of x at a symmetric scale, 1 if zero.

    The code kernel: a finite screen, the scale amax / qmax, rounding half
    away from zero and clipping to +-qmax, all in one fresh buffer that
    becomes the codes.  With `rows`, the 2-D x is a stack of blocks of
    that many rows, each its own tensor, and the scale is a (blocks, 1, 1)
    array over codes.reshape(-1, rows, cols).
    """
    x = np.asarray(x, dtype=np.float64)
    qmax = 2 ** (bits - 1) - 1
    # ReLU outputs have no negative values: |x| is x, and no signs need
    # restoring (a code's sign of zero never reaches a product's value)
    signed = x.min(initial=0.0) < 0.0
    mags = np.abs(x) if signed else x
    if rows is None:
        blocks, amax = mags, mags.max(initial=0.0)
    else:
        blocks = mags.reshape(-1, rows, x.shape[1])
        amax = blocks.max(axis=(1, 2), keepdims=True, initial=0.0)
    # the maximum propagates NaN and inf, so it screens every value
    if not np.all(np.isfinite(amax)):
        raise ValueError("cannot quantize non-finite values")
    scale = np.where(amax == 0.0, 1.0, amax / qmax)
    # amax / qmax underflows to 0 for the least subnormal maxima
    if not np.all(scale > 0.0):
        raise ValueError("scale must be positive")
    # |x| / scale is |x / scale| exactly; a subnormal scale rounds so far
    # that it can exceed qmax, which the clip then binds
    codes = np.divide(blocks, scale, out=blocks if signed else None)
    return _round_magnitudes(codes.reshape(x.shape), x if signed else None,
                             qmax), scale


def quantize(x: np.ndarray, bits: int) -> QuantizedTensor:
    """Symmetric quantization with one scale per tensor, 1 if it is zero."""
    if bits not in (8, 16):
        raise ValueError("bits must be 8 or 16")
    codes, scale = _codes(x, bits)
    dtype = np.int8 if bits == 8 else np.int16
    return QuantizedTensor(codes=codes.astype(dtype), scale=float(scale))


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


# Code products run as float64 GEMMs; sums up to this magnitude are exact,
# leaving 2^31 for the 32-bit bias codes added after the product.
_EXACT_SUM = 2 ** 53 - 2 ** 31


def _code_product(a: np.ndarray, b: np.ndarray,
                  cfg: AcceleratorConfig) -> np.ndarray:
    """The exact product a @ b of code matrices at cfg.bits, as float64.

    The product kernel: the accumulator and float64 exactness guards on
    the depth, then one float64 BLAS product, exact at every admitted
    depth (see the module docstring).
    """
    k = a.shape[1]
    unit = (2 ** (cfg.bits - 1)) ** 2
    limit = 2 ** (cfg.acc_bits - 1) // unit
    if k > limit:
        raise CapacityError(
            f"depth {k} exceeds the {cfg.acc_bits}-bit accumulator "
            f"guarantee of {limit} products at {cfg.bits}-bit codes")
    if k > _EXACT_SUM // unit:
        raise CapacityError(
            f"depth {k} exceeds the float64 exactness bound of "
            f"{_EXACT_SUM // unit} products at {cfg.bits}-bit codes")
    return np.matmul(a, b, dtype=np.float64)


def sa_gemm(aq: QuantizedTensor, bq: QuantizedTensor,
            cfg: AcceleratorConfig):
    """Exact integer product of code matrices plus modeled cycles.

    The product is returned in `cfg.acc_dtype`.
    """
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
    acc = _code_product(aq.codes, bq.codes, cfg)
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


def layer_latency(rows: int, cols: int, cfg: AcceleratorConfig,
                  m_rows: int = 1, stream_in: bool = False,
                  stream_out: bool = False):
    """(compute_cycles, memory_cycles) for a rows x cols layer at cfg.bits."""
    if rows < 1 or cols < 1 or m_rows < 1:
        raise ValueError("layer dims must be >= 1")
    compute = gemm_cycles(m_rows, rows, cols, cfg)
    nbytes = layer_bytes(rows, cols, cfg.bits, m_rows, stream_in, stream_out)
    memory = math.ceil(nbytes["total"] / cfg.bus_bytes_per_cycle)
    return compute, memory


@dataclass(frozen=True)
class LayerLatency:
    name: str
    rows: int
    cols: int
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


def _layer_row(spec: LayerSpec, m_rows: int,
               cfg: AcceleratorConfig) -> LayerLatency:
    """One layer serving m_rows rows.

    Activations cross the bus only at the network input and final output.
    """
    model, memory = layer_latency(spec.fan_in, spec.fan_out, cfg, m_rows,
                                  stream_in=spec.name == "in_fc1",
                                  stream_out=spec.name == "out_fc")
    return LayerLatency(spec.name, spec.fan_in, spec.fan_out, model, memory)


def _report(layers, cfg: AcceleratorConfig) -> LatencyReport:
    return LatencyReport(layers=tuple(layers),
                         prologue_cycles=2 * cfg.sa_size - 2,
                         clock_period_ns=cfg.clock_period_ns)


def latency_model(dims: GnnDims, m_users: int,
                  cfg: AcceleratorConfig) -> LatencyReport:
    """Analytic end-to-end latency without executing any arithmetic."""
    if m_users < 1:
        raise ValueError("m_users must be >= 1")
    return _report([_layer_row(spec, m_users, cfg)
                    for spec in layer_plan(dims)], cfg)


# --- quantized forward ---------------------------------------------------------

_INT32_MAX = 2 ** 31 - 1


def _q_dense(x: np.ndarray, layer: FcLayer, spec: LayerSpec, m: int,
             cfg: AcceleratorConfig):
    """One dense layer on the integer datapath; float in, float out.

    x holds graphs of m rows each.  Each graph's input activations are
    quantized with their own scale and the weights per tensor; one exact
    integer product serves all graphs.  The bias is added as 32-bit codes
    at each graph's product scale, ReLU applied on accumulators, and the
    result dequantized for the next stage, all in place on the product.
    Until the dequantization every value is an integer below 2^53 held in
    float64, so each step is exact.
    """
    try:
        a, a_scale = _codes(x, cfg.bits, rows=m)
    except ValueError as exc:
        if np.isfinite(x).all():
            raise  # a subnormal maximum: the scale underflows
        raise GnnNumericError(f"{exc} entering {spec.name}") from exc
    w, w_scale = _codes(layer.w, cfg.bits)
    total = _code_product(a, w, cfg)
    sab = a_scale * w_scale
    # one bias code row per graph: the rows of a graph share its scale
    bias_codes = round_half_away(layer.b / sab)
    if np.abs(bias_codes).max(initial=0.0) > _INT32_MAX:
        raise CapacityError(f"bias codes overflow 32 bits at {spec.name}")
    # + 0.0 turns -0.0 codes into +0.0, so a zero sum is +0.0 whatever
    # sign of zero the product has, as with integer accumulators
    bias_codes += 0.0
    graphs = total.reshape(-1, m, total.shape[1])
    graphs += bias_codes
    limit = 2 ** (cfg.acc_bits - 1)
    if total.max(initial=0.0) >= limit or -total.min(initial=0.0) >= limit:
        raise CapacityError(f"accumulator overflow after bias at {spec.name}")
    if spec.relu:
        np.maximum(total, 0.0, out=total)
    graphs *= sab
    return total


def quantized_dense(cfg: AcceleratorConfig, m: int, executed=None):
    """The integer datapath as the dense layer of `gnn._forward_group`
    for graphs of m nodes, each with its own activation scales; with a
    list `executed`, each layer appends `_layer_row` at its executed rows."""
    def dense(x, layer, spec):
        if executed is not None:
            executed.append(_layer_row(spec, len(x), cfg))
        return _q_dense(x, layer, spec, m, cfg)
    return dense


def quantized_forward(params: GnnParams, h: np.ndarray, power: float,
                      cfg: AcceleratorConfig):
    """Fixed-point beams of one graph, h of shape (M, N), or of any
    (..., M, N) stack, plus the latency report of the executed products.
    Max aggregation, concatenation and power normalization stay in float,
    off the modeled datapath.  All G graphs stream through each layer as
    one operand of G*M rows, so the report is latency_model(dims, G*M, cfg).
    """
    h = np.asarray(h)
    if h.ndim < 2:
        raise ValueError("channel must have shape (M, N) or (..., M, N)")
    executed = []
    _, w = _forward_group(params, h, power,
                          dense=quantized_dense(cfg, h.shape[-2], executed))
    return w, _report(executed, cfg)
