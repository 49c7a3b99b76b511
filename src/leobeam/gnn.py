"""Graph-neural beamformer for one satellite.

Users are graph nodes; the node feature of user m is the real embedding of
its local channel vector.  The network is an input MLP, two graph-conv
layers (per-node MLP1, elementwise-max aggregation over the other nodes,
concatenation with the conv input, MLP2) and a linear output layer whose
2N outputs are read as the real and imaginary parts of the beam.  The final
beams are rescaled to the exact per-satellite power budget.

Two functionally identical conv schedules are provided: `graph_conv`
evaluates MLP1 once per ordered neighbor pair, `graph_conv_refactored`
hoists MLP1 out of the pair loop and evaluates it once per node.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

ZERO_POWER = 1e-30

_PARAMS_MAGIC = b"LEOGNNP1"
_DTYPE_TAGS = {1: np.float64, 2: np.float32}


class GnnNumericError(RuntimeError):
    """Raised when a forward pass produces non-finite values."""


class ArtifactError(ValueError):
    """A stored container or checkpoint is truncated, malformed or of the
    wrong kind."""


@dataclass(frozen=True)
class GnnDims:
    """Layer widths.  l1, l2: input MLP; l3..l5: conv MLP1; l6..l8: conv MLP2.

    Constraints: the conv input width equals l3 (so l2 == l3 == l8, both
    convs consume what the previous stage produced) and the combiner input
    is the conv input concatenated with the aggregate, l6 == l3 + l5.

    wide_output doubles the final layer to 4N neurons; the complex beam is
    still read from the first 2N (the extra block is an alternative width
    convention kept behind this flag and left unused by the beam mapping).
    """

    n_antennas: int
    l1: int = 1024
    l2: int = 512
    l3: int = 512
    l4: int = 512
    l5: int = 512
    l6: int = 1024
    l7: int = 512
    l8: int = 512
    wide_output: bool = False

    def __post_init__(self):
        widths = (self.l1, self.l2, self.l3, self.l4,
                  self.l5, self.l6, self.l7, self.l8)
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        if any(w < 1 for w in widths):
            raise ValueError("all layer widths must be >= 1")
        if self.l3 != self.l2:
            raise ValueError("conv MLP1 input l3 must equal input-MLP output l2")
        if self.l8 != self.l3:
            raise ValueError("conv output l8 must equal conv input width l3")
        if self.l6 != self.l3 + self.l5:
            raise ValueError("combiner width l6 must equal l3 + l5")

    @property
    def feature_in(self) -> int:
        return 2 * self.n_antennas

    @property
    def out_width(self) -> int:
        return (4 if self.wide_output else 2) * self.n_antennas


def scaled_dims(n_antennas: int, scale_factor: int = 1,
                wide_output: bool = False) -> GnnDims:
    """Default widths divided by a uniform factor for desk-scale runs."""
    if scale_factor < 1:
        raise ValueError("scale_factor must be >= 1")
    s = scale_factor
    return GnnDims(n_antennas=n_antennas,
                   l1=max(1, 1024 // s), l2=max(1, 512 // s),
                   l3=max(1, 512 // s), l4=max(1, 512 // s),
                   l5=max(1, 512 // s), l6=2 * max(1, 512 // s),
                   l7=max(1, 512 // s), l8=max(1, 512 // s),
                   wide_output=wide_output)


class LayerSpec(NamedTuple):
    name: str
    fan_in: int
    fan_out: int
    relu: bool


def layer_plan(dims: GnnDims) -> list[LayerSpec]:
    """Fixed execution/serialization order of the 11 dense layers."""
    specs = [
        LayerSpec("in_fc1", dims.feature_in, dims.l1, True),
        LayerSpec("in_fc2", dims.l1, dims.l2, True),
    ]
    for c in (1, 2):
        specs += [
            LayerSpec(f"conv{c}_mlp1_fc1", dims.l3, dims.l4, True),
            LayerSpec(f"conv{c}_mlp1_fc2", dims.l4, dims.l5, True),
            LayerSpec(f"conv{c}_mlp2_fc1", dims.l6, dims.l7, True),
            LayerSpec(f"conv{c}_mlp2_fc2", dims.l7, dims.l8, True),
        ]
    specs.append(LayerSpec("out_fc", dims.l8, dims.out_width, False))
    return specs


@dataclass
class FcLayer:
    """Dense layer y = x @ w + b, w stored (fan_in, fan_out) row major."""

    w: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class ConvParams:
    mlp1: tuple[FcLayer, FcLayer]
    mlp2: tuple[FcLayer, FcLayer]


@dataclass
class GnnParams:
    dims: GnnDims
    layers: list[FcLayer]

    def __post_init__(self):
        plan = layer_plan(self.dims)
        if len(self.layers) != len(plan):
            raise ValueError(f"expected {len(plan)} layers, got {len(self.layers)}")
        for spec, layer in zip(plan, self.layers):
            if layer.w.shape != (spec.fan_in, spec.fan_out):
                raise ValueError(f"{spec.name}: weight shape {layer.w.shape} "
                                 f"!= {(spec.fan_in, spec.fan_out)}")
            if layer.b.shape != (spec.fan_out,):
                raise ValueError(f"{spec.name}: bias shape mismatch")

    def conv(self, index: int) -> ConvParams:
        if index not in (1, 2):
            raise ValueError("conv index must be 1 or 2")
        base = 2 + (index - 1) * 4
        return ConvParams(mlp1=(self.layers[base], self.layers[base + 1]),
                          mlp2=(self.layers[base + 2], self.layers[base + 3]))


def init_params(dims: GnnDims, rng: np.random.Generator,
                dtype=np.float64) -> GnnParams:
    """Glorot-uniform weights, zero biases."""
    layers = []
    for spec in layer_plan(dims):
        bound = np.sqrt(6.0 / (spec.fan_in + spec.fan_out))
        w = rng.uniform(-bound, bound, size=(spec.fan_in, spec.fan_out))
        layers.append(FcLayer(w=w.astype(dtype),
                              b=np.zeros(spec.fan_out, dtype=dtype)))
    return GnnParams(dims=dims, layers=layers)


def embed_input(h_k: np.ndarray) -> np.ndarray:
    """Real node features: row m is [Re h, Im h] of user m, shape (M, 2N)."""
    h_k = np.asarray(h_k)
    if h_k.ndim != 2:
        raise ValueError("per-satellite channel must have shape (M, N)")
    return np.concatenate([h_k.real, h_k.imag], axis=-1).astype(float)


# --- instrumented dense helpers ----------------------------------------------

def _count(counts, key, amount):
    if counts is not None:
        counts[key] = counts.get(key, 0) + amount


def _fc(x: np.ndarray, layer: FcLayer, relu: bool, counts=None) -> np.ndarray:
    rows, fan_in = x.shape
    fan_out = layer.w.shape[1]
    _count(counts, "macs", rows * fan_in * fan_out)
    y = x @ layer.w + layer.b
    return np.maximum(y, 0.0) if relu else y


def _mlp(x: np.ndarray, pair, counts=None) -> np.ndarray:
    return _fc(_fc(x, pair[0], True, counts), pair[1], True, counts)


def _neighbor_reduce(rows: list[np.ndarray]) -> np.ndarray:
    return np.maximum.reduce(rows)


# --- graph convolution, both schedules ---------------------------------------

def graph_conv(conv_params: ConvParams, x: np.ndarray, x_skip=None,
               counts=None) -> np.ndarray:
    """Pair-loop schedule: MLP1 is re-evaluated for every ordered pair (i, j).

    x: (M, l3) conv input.  x_skip defaults to x and is what the combiner
    concatenates with the aggregate.  A single node has no neighbors; its
    aggregate is the zero vector, the identity of max over ReLU outputs.
    """
    x_skip = x if x_skip is None else x_skip
    m = x.shape[0]
    agg_width = conv_params.mlp1[1].w.shape[1]
    out = []
    for i in range(m):
        neigh = []
        for j in range(m):
            if j == i:
                continue
            _count(counts, "mlp1_nodes", 1)
            neigh.append(_mlp(x[j:j + 1], conv_params.mlp1, counts))
        if neigh:
            agg = _neighbor_reduce(neigh)
        else:
            agg = np.zeros((1, agg_width))
        combined = np.concatenate([x_skip[i:i + 1], agg], axis=-1)
        _count(counts, "mlp2_nodes", 1)
        out.append(_mlp(combined, conv_params.mlp2, counts))
    return np.concatenate(out, axis=0)


def graph_conv_refactored(conv_params: ConvParams, x: np.ndarray, x_skip=None,
                          counts=None) -> np.ndarray:
    """Hoisted schedule, numerically identical to `graph_conv`.

    Three separate loops: MLP1 once per node, then the per-node neighbor
    max, then MLP2 once per node.
    """
    x_skip = x if x_skip is None else x_skip
    m = x.shape[0]
    agg_width = conv_params.mlp1[1].w.shape[1]

    hidden = []
    for j in range(m):
        _count(counts, "mlp1_nodes", 1)
        hidden.append(_mlp(x[j:j + 1], conv_params.mlp1, counts))

    aggs = []
    for i in range(m):
        neigh = [hidden[j] for j in range(m) if j != i]
        aggs.append(_neighbor_reduce(neigh) if neigh
                    else np.zeros((1, agg_width)))

    out = []
    for i in range(m):
        combined = np.concatenate([x_skip[i:i + 1], aggs[i]], axis=-1)
        _count(counts, "mlp2_nodes", 1)
        out.append(_mlp(combined, conv_params.mlp2, counts))
    return np.concatenate(out, axis=0)


def _ensure_finite(arr: np.ndarray, stage: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise GnnNumericError(f"non-finite values after {stage}")


def normalize_power(y: np.ndarray, power: float) -> np.ndarray:
    """Scale an (M, N) complex beam matrix to exact trace power."""
    praw = float(np.sum(y.real**2 + y.imag**2))
    if praw < ZERO_POWER:
        return np.zeros_like(y)
    return y * np.sqrt(power / praw)


def forward_satellite(params: GnnParams, h_k: np.ndarray, power: float,
                      algorithm: str = "refactored", counts=None) -> np.ndarray:
    """Beamformer for one satellite from its local channels, shape (M, N).

    Output rows are read as [Re w, Im w]; the final matrix is rescaled to
    the exact power budget (all-zero outputs stay zero).
    """
    if algorithm not in ("refactored", "pairwise"):
        raise ValueError("algorithm must be 'refactored' or 'pairwise'")
    conv = graph_conv_refactored if algorithm == "refactored" else graph_conv
    n = params.dims.n_antennas

    x = embed_input(h_k)
    if x.shape[1] != 2 * n:
        raise ValueError(f"channel has {x.shape[1] // 2} antennas, "
                         f"params expect {n}")
    x = _fc(x, params.layers[0], True, counts)
    _ensure_finite(x, "in_fc1")
    x = _fc(x, params.layers[1], True, counts)
    _ensure_finite(x, "in_fc2")
    x = conv(params.conv(1), x, x, counts=counts)
    _ensure_finite(x, "conv1")
    x = conv(params.conv(2), x, x, counts=counts)
    _ensure_finite(x, "conv2")
    out = _fc(x, params.layers[10], False, counts)
    _ensure_finite(out, "out_fc")
    y = out[:, :n] + 1j * out[:, n:2 * n]
    w_k = normalize_power(y, power)
    _ensure_finite(w_k, "power normalization")
    return w_k


# --- multiply-accumulate accounting ------------------------------------------

@dataclass(frozen=True)
class MacCounts:
    """Analytic and measured multiply-accumulate counts for one forward pass.

    conv_pairwise is the pair-loop schedule, conv_hoisted the refactored
    one.  conv_pairwise_scaled is an alternative tally that multiplies the
    whole conv term by the node count once more; it is reported for
    reference only, the instrumented counts are the ground truth.
    """

    input_mlp: int
    conv_pairwise: int
    conv_hoisted: int
    conv_pairwise_scaled: int
    output_fc: int
    total_pairwise: int
    total_hoisted: int
    measured_pairwise: int
    measured_hoisted: int


def mac_count(m_users: int, n_antennas: int, dims: GnnDims) -> MacCounts:
    if dims.n_antennas != n_antennas:
        raise ValueError("dims.n_antennas disagrees with n_antennas")
    if m_users < 1:
        raise ValueError("m_users must be >= 1")
    d = dims
    m = m_users
    input_mlp = 2 * m * n_antennas * d.l1 + m * d.l1 * d.l2
    mlp1 = d.l3 * d.l4 + d.l4 * d.l5
    mlp2 = d.l6 * d.l7 + d.l7 * d.l8
    conv_pairwise = 2 * (m * (m - 1) * mlp1 + m * mlp2)
    conv_hoisted = 2 * (m * mlp1 + m * mlp2)
    conv_pairwise_scaled = 2 * m * ((m - 1) * m * mlp1 + m * mlp2)
    output_fc = m * d.l8 * d.out_width

    rng = np.random.Generator(np.random.Philox(20260819))
    params = init_params(dims, rng)
    h = rng.normal(size=(m, n_antennas)) + 1j * rng.normal(size=(m, n_antennas))
    measured = {}
    for name in ("pairwise", "refactored"):
        counts = {}
        forward_satellite(params, h, 1.0, algorithm=name, counts=counts)
        measured[name] = int(counts["macs"])

    return MacCounts(
        input_mlp=input_mlp,
        conv_pairwise=conv_pairwise,
        conv_hoisted=conv_hoisted,
        conv_pairwise_scaled=conv_pairwise_scaled,
        output_fc=output_fc,
        total_pairwise=input_mlp + conv_pairwise + output_fc,
        total_hoisted=input_mlp + conv_hoisted + output_fc,
        measured_pairwise=measured["pairwise"],
        measured_hoisted=measured["refactored"],
    )


# --- parameter container ------------------------------------------------------
#
# Flat binary layout, little endian:
#   magic "LEOGNNP1" | u32 dtype tag (1=f8, 2=f4, 8=int8 codes, 16=int16 codes)
#   u32 n_antennas | u32 l1..l8 | u32 flags (bit 0: wide output) | u32 layers
#   then per layer in `layer_plan` order:
#     float tags:  weight (fan_in * fan_out) row major, bias (fan_out)
#     quant tags:  f8 weight scale, integer codes row major, f8 bias (fan_out)

def _write_header(fh, dims: GnnDims, tag: int) -> None:
    fh.write(_PARAMS_MAGIC)
    flags = 1 if dims.wide_output else 0
    fh.write(struct.pack("<12I", tag, dims.n_antennas, dims.l1, dims.l2,
                         dims.l3, dims.l4, dims.l5, dims.l6, dims.l7,
                         dims.l8, flags, len(layer_plan(dims))))


def _stream_name(fh) -> str:
    return str(getattr(fh, "name", "stream"))


def read_exact(fh, size: int) -> bytes:
    """The next `size` bytes of fh, or ArtifactError if the file ends first.

    The length is checked before reading, so a corrupt size field cannot
    make the read allocate more than the file holds.
    """
    pos = fh.tell()
    end = fh.seek(0, os.SEEK_END)
    fh.seek(pos)
    if size > end - pos:
        raise ArtifactError(f"{_stream_name(fh)}: truncated, {size} bytes "
                            f"expected at offset {pos} but the file ends at "
                            f"{end}")
    return fh.read(size)


def _read_header(fh):
    magic = fh.read(8)
    if magic != _PARAMS_MAGIC:
        raise ArtifactError(f"{_stream_name(fh)}: not a parameter container")
    vals = struct.unpack("<12I", read_exact(fh, 48))
    tag = vals[0]
    try:
        dims = GnnDims(n_antennas=vals[1], l1=vals[2], l2=vals[3],
                       l3=vals[4], l4=vals[5], l5=vals[6], l6=vals[7],
                       l7=vals[8], l8=vals[9], wide_output=bool(vals[10] & 1))
    except ValueError as exc:
        raise ArtifactError(f"{_stream_name(fh)}: bad dimensions in "
                            f"container: {exc}") from None
    if vals[11] != len(layer_plan(dims)):
        raise ArtifactError(f"{_stream_name(fh)}: unexpected layer count "
                            "in container")
    return tag, dims


def write_params(fh, params: GnnParams, dtype: str = "f8") -> None:
    tag = {"f8": 1, "f4": 2}[dtype]
    np_dtype = _DTYPE_TAGS[tag]
    _write_header(fh, params.dims, tag)
    for layer in params.layers:
        fh.write(np.ascontiguousarray(layer.w, dtype=np_dtype).tobytes())
        fh.write(np.ascontiguousarray(layer.b, dtype=np_dtype).tobytes())


def read_params(fh) -> GnnParams:
    tag, dims = _read_header(fh)
    if tag not in _DTYPE_TAGS:
        raise ArtifactError(f"{_stream_name(fh)}: container holds quantized "
                            f"codes (tag {tag}), use the accelerator loader")
    np_dtype = _DTYPE_TAGS[tag]
    itemsize = np.dtype(np_dtype).itemsize
    layers = []
    for spec in layer_plan(dims):
        w = np.frombuffer(
            read_exact(fh, itemsize * spec.fan_in * spec.fan_out),
            dtype=np_dtype).reshape(spec.fan_in, spec.fan_out)
        b = np.frombuffer(read_exact(fh, itemsize * spec.fan_out),
                          dtype=np_dtype)
        # keep the stored precision; astype also drops frombuffer read-only
        layers.append(FcLayer(w=w.astype(np_dtype), b=b.astype(np_dtype)))
    return GnnParams(dims=dims, layers=layers)


def save_params(path, params: GnnParams, dtype: str = "f8") -> None:
    with open(path, "wb") as fh:
        write_params(fh, params, dtype)


def load_params(path) -> GnnParams:
    with open(path, "rb") as fh:
        return read_params(fh)
