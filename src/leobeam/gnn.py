"""Graph-neural beamformer for one satellite.

Users are graph nodes; the node feature of user m is the real embedding of
its local channel vector.  The network is an input MLP, two graph-conv
layers (per-node MLP1, elementwise-max aggregation over the other nodes,
concatenation with the conv input, MLP2) and a linear output layer whose
2N outputs are read as the real and imaginary parts of the beam.  The final
beams are rescaled to the exact per-satellite power budget.

`_forward_group` is the one forward pass.  It runs any stack of graphs as
one batch, evaluates MLP1 once per node and takes the dense layer as a
callback, so training, float inference, the instrumented per-satellite
forward and the fixed-point accelerator model all compute the same network
with the same code.  A pass takes its large arrays from an allocator:
`FRESH`, the default, gives new ones on every call; a training run passes a
`Workspace`, whose buffers each step fills again.  The pairwise schedule
`graph_conv`, which evaluates MLP1 once per ordered neighbor pair, is kept
only as a reference.  The forward, the reference and the backward in
`train` all address a conv as the slice of its four dense layers
(`layers[2:6]`, `layers[6:10]`).
"""

from __future__ import annotations

import contextlib
import functools
import math
import mmap
import os
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beamform import normalize_power

_PARAMS_MAGIC = b"LEOGNNP1"
_F8_TAG = 1


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


@functools.lru_cache(maxsize=16)
def layer_plan(dims: GnnDims) -> tuple[LayerSpec, ...]:
    """Fixed execution/serialization order of the 11 dense layers.

    Cached, since every forward pass reads it; the tuple is immutable.
    """
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
    return tuple(specs)


@dataclass
class FcLayer:
    """Dense layer y = x @ w + b, w stored (fan_in, fan_out) row major."""

    w: np.ndarray
    b: np.ndarray


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


# --- the batched forward pass -------------------------------------------------
#
# A stack of graphs runs as one 2-D activation array, rows ordered (graph,
# node), so each dense layer is one call of dense(x, layer, spec) over all
# rows: `_dense` (float), `_counted` around a dense layer (MAC and node
# tallies), or the accelerator's integer layer.


def _dense(x, layer: FcLayer, spec: LayerSpec, out=None):
    # the operator skips the keyword parsing, which a one-row pass notices
    y = x @ layer.w if out is None else np.matmul(x, layer.w, out=out)
    y += layer.b
    if spec.relu:
        np.maximum(y, 0.0, out=y)
    return y


class Workspace:
    """Arrays that one training run reuses across its steps and test
    chunks instead of allocating them anew, keyed by role, shape and dtype.

    A role is what a buffer holds: a dense layer's output (the layer's
    name), a conv's concatenation or routing masks, the neighbor-max
    scratch, a ReLU mask.  A buffer is overwritten by the next pass that
    asks for its key, so what a pass returns from it is valid until then.
    Each buffer is its own anonymous memory map, so a dropped workspace
    returns its memory to the system, not to the allocator's heap, where
    it could stay resident after training.
    """

    def __init__(self):
        self._bufs = {}

    def take(self, role, shape, dtype) -> np.ndarray:
        key = (role, tuple(shape), np.dtype(dtype))
        buf = self._bufs.get(key)
        if buf is None:
            count = math.prod(key[1])
            pages = mmap.mmap(-1, max(1, count * key[2].itemsize))
            buf = self._bufs[key] = np.frombuffer(
                pages, key[2], count).reshape(key[1])
        return buf

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._bufs.values())

    def dense(self, x, layer: FcLayer, spec: LayerSpec):
        """`_dense` into this workspace's buffer for the layer."""
        return _dense(x, layer, spec, self.take(
            spec.name, (len(x), spec.fan_out), x.dtype))


class _Fresh:
    """The allocator of a pass that keeps nothing, and the default of
    every pass: `take` returns a new array on every call, so no two takes
    share memory, and `dense` is `_dense`, whose outputs are new too."""

    @staticmethod
    def take(role, shape, dtype) -> np.ndarray:
        return np.empty(shape, dtype)

    dense = staticmethod(_dense)


FRESH = _Fresh()


def _count(counts, key, amount):
    if counts is not None:
        counts[key] = counts.get(key, 0) + amount


def _counted(dense, counts):
    """`dense` that also adds its MACs, and the node rows entering each
    conv MLP1, to the dict `counts` (None: no counting)."""
    if counts is None:
        return dense

    def counted(x, layer, spec):
        _count(counts, "macs", len(x) * spec.fan_in * spec.fan_out)
        if spec.name.endswith("_mlp1_fc1"):
            _count(counts, "mlp1_nodes", len(x))
        return dense(x, layer, spec)
    return counted


def _neighbor_max(h, out, want_route: bool = True, ws=FRESH, name: str = ""):
    """Per-node elementwise max over the other nodes of each graph.

    h has shape (G, M, F): G independent graphs of M nodes.  The aggregate
    is written to `out`, of the same shape.  Returns the gradient routing,
    or None when it is not wanted and for M = 1, where the aggregate is
    zero (the identity of max over ReLU outputs) and has no sources.  The
    allocator `ws` gives the scratch from its "nm" roles, shared by every
    call, and the routing from roles of the given `name`.

    The work is node-major.  Running maxima prefix[j] over nodes 0..j and
    after[i] over nodes i+1..M-1 give node i's aggregate as
    max(prefix[i-1], after[i]).  One "nm" block of 3M - 3 rows of (G, F)
    holds h's M node rows, then prefix[1..M-1], then after[0..M-3];
    prefix[M-1], the overall maximum, is formed only for the routing.  Per
    (graph, feature) only two nodes ever win: every node but the top one
    (the first maximum) aggregates the top node, and the top node
    aggregates the runner-up (the first maximum among the other nodes).
    Ties thus go to the lowest node index, as with argmax.  The routing is
    a pair of boolean node-major (M, G, F) masks, `top` and `second`,
    marking those two nodes.
    """
    g, m, f = h.shape
    if m == 1:
        out.fill(0.0)
        return None
    scratch = ws.take("nm", (3 * m - 3, g, f), h.dtype)
    hn = scratch[:m]
    hn[...] = h.transpose(1, 0, 2)
    prefix = [hn[0]]
    for j in range(1, m - 1):
        prefix.append(np.maximum(prefix[-1], hn[j], out=scratch[m - 1 + j]))
    after = [hn[m - 1]]
    for j in range(m - 2, 0, -1):
        after.append(np.maximum(hn[j], after[-1], out=scratch[2 * m - 2 + j]))
    after.reverse()
    out[:, 0] = after[0]
    out[:, m - 1] = prefix[m - 2]
    for i in range(1, m - 1):
        np.maximum(prefix[i - 1], after[i], out=out[:, i])
    if not want_route:
        return None

    # top: the node at which the running maximum first reaches the overall
    # maximum.  The runner-up value is what the top node aggregates, the
    # smallest aggregate; second marks the first other node holding it.
    prefix.append(np.maximum(prefix[-1], hn[m - 1], out=scratch[2 * m - 2]))
    top = ws.take(name + ".top", hn.shape, bool)
    reached = top[0] = hn[0] == prefix[-1]
    for j in range(1, m):
        now = prefix[j] == prefix[-1]
        np.greater(now, reached, out=top[j])
        reached = now
    runner = np.minimum(out[:, 0], out[:, 1],
                        out=ws.take("nm.runner", (g, f), h.dtype))
    for i in range(2, m):
        np.minimum(runner, out[:, i], out=runner)
    second = ws.take(name + ".second", hn.shape, bool)
    seen = np.zeros((g, f), dtype=bool)
    for j in range(m):
        hit = (hn[j] == runner) > top[j]
        np.greater(hit, seen, out=second[j])
        seen |= hit
    return top, second


class _ConvCache(NamedTuple):
    x: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    route: tuple | None
    comb: np.ndarray
    g1: np.ndarray
    out: np.ndarray


def _conv_forward(layers, specs, x, m: int, keep: bool, dense=_dense,
                  ws=FRESH):
    """One graph conv: MLP1 once per node, the neighbor max, then MLP2 on
    [x, aggregate].  layers/specs are the conv's four dense layers; x has
    shape (rows, l3), rows ordered (graph, node), m nodes a graph.  The
    concatenation and the routing are keyed by the names of the layers
    that read and produce them."""
    h1 = dense(x, layers[0], specs[0])
    h2 = dense(h1, layers[1], specs[1])
    rows, width = x.shape
    comb = ws.take(specs[2].name + ".in", (rows, width + h2.shape[1]),
                   x.dtype)
    comb[:, :width] = x
    route = _neighbor_max(h2.reshape(-1, m, h2.shape[1]),
                          comb.reshape(-1, m, comb.shape[1])[..., width:],
                          keep, ws, specs[1].name)
    g1 = dense(comb, layers[2], specs[2])
    out = dense(g1, layers[3], specs[3])
    cache = _ConvCache(x, h1, h2, route, comb, g1, out) if keep else None
    return cache, out


class _GroupCache(NamedTuple):
    feats: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    convs: tuple
    z2: np.ndarray
    y: np.ndarray


def _forward_group(params: GnnParams, h, power: float, keep: bool = False,
                   dense=_dense, ws=FRESH):
    """Beams for a stack of graphs, one per trailing (M, N) matrix of h.

    All graphs share `params` and run as one row stack.  Returns (cache, w)
    with w of h's shape; the cache holds what the backward pass needs, and
    is None unless keep.  The allocator `ws` gives the concatenations and
    the neighbor max's arrays, and with `ws.dense` as the layer the dense
    outputs too: new ones from FRESH, or a Workspace's, in which the cache
    then lives.
    """
    n = params.dims.n_antennas
    if h.shape[-1] != n:
        raise ValueError(f"channel has {h.shape[-1]} antennas, "
                         f"params expect {n}")
    m = h.shape[-2]
    x = np.concatenate([h.real, h.imag], axis=-1).reshape(-1, 2 * n)
    lay, plan = params.layers, layer_plan(params.dims)
    a1 = dense(x, lay[0], plan[0])
    a2 = dense(a1, lay[1], plan[1])
    cc1, z1 = _conv_forward(lay[2:6], plan[2:6], a2, m, keep, dense, ws)
    cc2, z2 = _conv_forward(lay[6:10], plan[6:10], z1, m, keep, dense, ws)
    out = dense(z2, lay[10], plan[10]).reshape(h.shape[:-1] + (-1,))
    y = out[..., :n] + 1j * out[..., n:2 * n]
    w = normalize_power(y, power)
    cache = _GroupCache(x, a1, a2, (cc1, cc2), z2, y) if keep else None
    return cache, w


# --- the pairwise reference schedule -----------------------------------------
#
# Kept as a test oracle: MLP1 is re-evaluated for every ordered pair, one
# node row at a time, with its own dense helpers.

def _fc(x: np.ndarray, layer: FcLayer, relu: bool, counts=None) -> np.ndarray:
    rows, fan_in = x.shape
    fan_out = layer.w.shape[1]
    _count(counts, "macs", rows * fan_in * fan_out)
    y = x @ layer.w + layer.b
    return np.maximum(y, 0.0) if relu else y


def _mlp(x: np.ndarray, pair, counts=None) -> np.ndarray:
    return _fc(_fc(x, pair[0], True, counts), pair[1], True, counts)


def graph_conv(layers, x: np.ndarray, counts=None):
    """Pair-loop schedule of one graph conv over one graph, x: (M, l3).
    layers are the conv's four dense layers, as `_conv_forward` takes them.

    A single node has no neighbors; its aggregate is the zero vector, the
    identity of max over ReLU outputs.
    """
    m = x.shape[0]
    agg_width = layers[1].w.shape[1]
    out = []
    for i in range(m):
        neigh = []
        for j in range(m):
            if j == i:
                continue
            _count(counts, "mlp1_nodes", 1)
            neigh.append(_mlp(x[j:j + 1], layers[:2], counts))
        agg = np.maximum.reduce(neigh) if neigh else np.zeros((1, agg_width))
        combined = np.concatenate([x[i:i + 1], agg], axis=-1)
        out.append(_mlp(combined, layers[2:], counts))
    return np.concatenate(out, axis=0)


def _forward_pairwise(params: GnnParams, h_k, power: float, counts=None):
    n = params.dims.n_antennas
    x = _mlp(np.concatenate([h_k.real, h_k.imag], axis=-1),
             params.layers[:2], counts)
    for base in (2, 6):
        x = graph_conv(params.layers[base:base + 4], x, counts)
    out = _fc(x, params.layers[10], False, counts)
    return normalize_power(out[:, :n] + 1j * out[:, n:2 * n], power)


def _ensure_finite(arr: np.ndarray, stage: str) -> None:
    if not np.isfinite(arr).all():
        raise GnnNumericError(f"non-finite values after {stage}")


def _checked_dense(x, layer, spec):
    y = _dense(x, layer, spec)
    _ensure_finite(y, spec.name)
    return y


def forward_satellite(params: GnnParams, h_k: np.ndarray, power: float,
                      algorithm: str = "refactored", counts=None) -> np.ndarray:
    """Beamformer for one satellite from its local channels, shape (M, N).

    "refactored" runs the batched forward, checking every layer for
    non-finite values; "pairwise" the reference schedule.  Output rows are
    read as [Re w, Im w]; the final matrix is rescaled to the exact power
    budget (all-zero outputs stay zero).
    """
    h_k = np.asarray(h_k)
    if h_k.ndim != 2:
        raise ValueError("per-satellite channel must have shape (M, N)")
    if algorithm == "refactored":
        _, w_k = _forward_group(params, h_k, power,
                                dense=_counted(_checked_dense, counts))
    elif algorithm == "pairwise":
        w_k = _forward_pairwise(params, h_k, power, counts)
    else:
        raise ValueError("algorithm must be 'refactored' or 'pairwise'")
    _ensure_finite(w_k, "power normalization")
    return w_k


# --- multiply-accumulate accounting ------------------------------------------

@dataclass(frozen=True)
class MacCounts:
    """Analytic and measured multiply-accumulate counts for one forward pass.

    conv_pairwise is the pair-loop schedule, conv_hoisted the batched
    forward's, which evaluates MLP1 once per node.
    """

    input_mlp: int
    conv_pairwise: int
    conv_hoisted: int
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
        output_fc=output_fc,
        total_pairwise=input_mlp + conv_pairwise + output_fc,
        total_hoisted=input_mlp + conv_hoisted + output_fc,
        measured_pairwise=measured["pairwise"],
        measured_hoisted=measured["refactored"],
    )


# --- artifact writes ----------------------------------------------------------

@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside `path` for writing.

    When the block ends without an exception, one `os.replace` puts the
    file at `path`, so a reader finds the old file or the whole new one,
    never a part.  When it raises, the temporary file is removed and `path`
    is left as it was.  (No fsync: this guards against failures and killed
    processes, not against power loss.)  Creates the parent directory.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def csv_file(path, comment: str, columns, rows) -> tuple:
    """(path, text) of a CSV artifact: the comment line, the column names,
    then one line per row, floats written with repr so equal runs write
    equal bytes.  A non-finite float raises GnnNumericError naming its
    column, so no artifact holds one."""
    lines = [comment, ",".join(columns)]
    for row in rows:
        for column, v in zip(columns, row):
            if isinstance(v, float) and not math.isfinite(v):
                raise GnnNumericError(f"non-finite {column} = {v!r} bound "
                                      f"for {os.path.basename(path)}")
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    return path, "\n".join(lines) + "\n"


def write_files(files) -> None:
    """Writes each (path, text) pair through `atomic_write`, in order.
    Build every text first: a failure then leaves no file of the set."""
    for path, text in files:
        with atomic_write(path) as fh:
            fh.write(text)


# --- parameter container ------------------------------------------------------
#
# Flat binary layout, little endian:
#   magic "LEOGNNP1" | u32 dtype tag (1=f8; readers refuse any other)
#   u32 n_antennas | u32 l1..l8 | u32 flags (bit 0: wide output) | u32 layers
#   then per layer in `layer_plan` order:
#     weight (fan_in * fan_out) row major, bias (fan_out), all f8

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


def write_params(fh, params: GnnParams) -> None:
    dims = params.dims
    fh.write(_PARAMS_MAGIC)
    fh.write(struct.pack("<12I", _F8_TAG, dims.n_antennas, dims.l1, dims.l2,
                         dims.l3, dims.l4, dims.l5, dims.l6, dims.l7,
                         dims.l8, 1 if dims.wide_output else 0,
                         len(layer_plan(dims))))
    for layer in params.layers:
        fh.write(np.ascontiguousarray(layer.w, dtype=np.float64).tobytes())
        fh.write(np.ascontiguousarray(layer.b, dtype=np.float64).tobytes())


def read_params(fh) -> GnnParams:
    tag, dims = _read_header(fh)
    if tag != _F8_TAG:
        raise ArtifactError(f"{_stream_name(fh)}: container tag {tag} does "
                            "not hold float64 parameters")
    layers = []
    for spec in layer_plan(dims):
        w = np.frombuffer(read_exact(fh, 8 * spec.fan_in * spec.fan_out),
                          dtype=np.float64).reshape(spec.fan_in, spec.fan_out)
        b = np.frombuffer(read_exact(fh, 8 * spec.fan_out), dtype=np.float64)
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ArtifactError(f"{_stream_name(fh)}: non-finite weights or "
                                f"biases in {spec.name}")
        layers.append(FcLayer(w=w.copy(), b=b.copy()))
    return GnnParams(dims=dims, layers=layers)
