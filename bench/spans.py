"""Span recorder that wraps leobeam's public functions from outside it.

Each traced function is replaced, at every module attribute that binds it
(``experiments.train.train`` as well as names imported with ``from .gnn
import ...``), by a wrapper that records one span: name, start, end and the
index of the enclosing span.  Spans stay in memory, in flat arrays, and are
written once, at the end of the run.  Counts that belong to a call (rows,
MACs, bytes, modeled cycles, errors) are taken from its arguments and result
at the same boundary.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("channel", "beamform", "gnn", "train", "accel", "experiments",
           "cli", "svgplot")

# (module, function) pairs wrapped in a traced run: the cross-module public
# calls of the package, plus accel's per-layer quantize/sa_gemm.
TRACED = (
    ("channel", "sample_channel_batch"),
    ("beamform", "mrt_local"), ("beamform", "zf_local"),
    ("beamform", "mmse_local"), ("beamform", "zf_global"),
    ("beamform", "mmse_global"), ("beamform", "wsr"),
    ("gnn", "scaled_dims"), ("gnn", "init_params"),
    ("gnn", "normalize_power"), ("gnn", "read_params"),
    ("gnn", "write_params"),
    ("train", "train"), ("train", "adam_step"),
    ("train", "infer_beamformers"), ("train", "infer_batch"),
    ("train", "save_checkpoint"), ("train", "load_checkpoint"),
    ("train", "write_history_csv"),
    ("accel", "quantized_forward"), ("accel", "quantize"),
    ("accel", "sa_gemm"), ("accel", "latency_model"),
    ("experiments", "load_config"), ("experiments", "load_gnn_context"),
    ("experiments", "compute_beams"), ("experiments", "run_train"),
    ("experiments", "run_sweep"), ("experiments", "run_quant_compare"),
    ("experiments", "run_latency"),
    ("cli", "main"),
    ("svgplot", "line_plot"),
)


class Tracer:
    """Wraps the TRACED functions of a loaded leobeam package until closed."""

    def __init__(self, package):
        self._mods = {name: getattr(package, name) for name in MODULES}
        self._errors = {
            "beamform": self._mods["beamform"].SingularChannelError,
            "accel": self._mods["accel"].CapacityError,
        }
        self.names: list[str] = []
        # span i: name index, start and end (perf_counter s), parent index
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counts = defaultdict(int)
        self._stack: list = []         # (span index, module) of open spans
        self._patched: list = []       # (module, attribute, original)
        self._paused = [False]
        for mod_name, fn_name in TRACED:
            self._wrap(mod_name, fn_name)

    def _wrap(self, mod_name: str, fn_name: str) -> None:
        original = getattr(self._mods[mod_name], fn_name)
        name = f"{mod_name}.{fn_name}"
        wrapper = self._make_wrapper(original, name, len(self.names))
        self.names.append(name)
        for mod in self._mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _make_wrapper(self, fn, name: str, name_id: int):
        name_ids, starts, ends, parents = (self.name_ids, self.starts,
                                           self.ends, self.parents)
        stack, counts, paused = self._stack, self.counts, self._paused
        module = name.split(".")[0]
        count = _COUNTERS.get(name)
        error_type = self._errors.get(module)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            outer = stack[-1] if stack else (-1, "")
            index = len(starts)
            name_ids.append(name_id)
            parents.append(outer[0])
            ends.append(0.0)
            stack.append((index, module))
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an error once, where it leaves its module
                if (error_type is not None and isinstance(exc, error_type)
                        and outer[1] != module):
                    counts[f"{module}.errors"] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this context record no spans or counts."""
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    def close(self) -> None:
        """Restore every wrapped attribute."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one span adds to a call, timed on a no-op function."""
        def noop():
            return None

        wrapped = self._make_wrapper(noop, "calibration.noop", -1)
        n = len(self)
        clock = time.perf_counter
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        cost = (clock() - start - bare) / calls
        for spans in (self.name_ids, self.starts, self.ends, self.parents):
            del spans[n:]
        return max(cost, 0.0)

    def __len__(self) -> int:
        return len(self.starts)

    def summary(self) -> dict:
        """Per function: calls, busy and self seconds; per module: self s."""
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        duration = (np.frombuffer(self.ends) - np.frombuffer(self.starts))
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=duration[nested],
                            minlength=len(duration))
        own = duration - child
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        busy = np.bincount(ids, weights=duration, minlength=n)
        self_s = np.bincount(ids, weights=own, minlength=n)
        per_fn = {name: {"calls": int(calls[i]), "busy_s": float(busy[i]),
                         "self_s": float(self_s[i])}
                  for i, name in enumerate(self.names)}
        per_module = dict.fromkeys(MODULES, 0.0)
        for name, entry in per_fn.items():
            per_module[name.split(".")[0]] += entry["self_s"]
        return {"functions": per_fn, "modules": per_module}

    def write(self, path: str) -> None:
        """All spans, as arrays in one compressed .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start_s=np.frombuffer(self.starts), end_s=np.frombuffer(self.ends),
            parent=np.frombuffer(self.parents, dtype=np.int32))


def _arg(args, kwargs, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs[keyword]


def _count_samples(counts, args, kwargs, result):
    counts["channel.sample_channel_batch.samples"] += int(
        _arg(args, kwargs, 1, "count"))


def _count_train_rows(counts, args, kwargs, result):
    # realizations through the engine forward: training batches and the
    # per-epoch test evaluation
    cfg = _arg(args, kwargs, 0, "cfg")
    counts["train.train.forward_rows"] += len(result.history) * (
        cfg.samples_per_epoch + cfg.test_size)


def _count_rows(counts, args, kwargs, result):
    counts["train.infer_batch.rows"] += int(result.shape[0])


def _count_gemm(counts, args, kwargs, result):
    aq, bq = args[0], args[1]
    m, k = aq.codes.shape
    counts["accel.sa_gemm.macs"] += m * k * bq.codes.shape[1]
    counts["accel.sa_gemm.modeled_cycles"] += int(result[1])


def _count_ckpt(counts, args, kwargs, result):
    counts["train.checkpoint_bytes"] += os.path.getsize(
        _arg(args, kwargs, 0, "path"))


def _count_exit(counts, args, kwargs, result):
    if result != 0:
        counts["cli.main.nonzero_exits"] += 1


_COUNTERS = {
    "channel.sample_channel_batch": _count_samples,
    "train.train": _count_train_rows,
    "train.infer_batch": _count_rows,
    "accel.sa_gemm": _count_gemm,
    "train.save_checkpoint": _count_ckpt,
    "cli.main": _count_exit,
}
