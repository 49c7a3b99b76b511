"""Shared fixtures.

The desk-scale training run takes a few minutes, so it is executed once per
session and cached on disk keyed by the exact training config.  Training is
deterministic for a fixed seed and numerics stack, so the cache only skips
recomputation: its JSON records `leobeam.NUMERICS`, the numpy version, the
BLAS build and a SHA-256 of the `leobeam` modules training runs, and any
mismatch is a miss.  Set LEOBEAM_TEST_NO_CACHE=1 to force a fresh run.
"""

import hashlib
import json
import os
import time
from typing import NamedTuple

import numpy as np
import pytest

import leobeam
from leobeam import beamform, channel, experiments, gnn, train

# the modules desk training runs; an edit to any of them is a cache miss
TRAINING_MODULES = (channel, beamform, gnn, train, experiments)
CACHE_DIR = os.path.join(os.path.dirname(__file__), "_cache")
_REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def desk_config() -> experiments.ExperimentConfig:
    return experiments.load_config(
        os.path.join(_REPO_ROOT, "configs", "desk.ini"))


def numerics_stamp() -> dict:
    """What the cached numbers depend on besides the training config."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy without the dict form
        blas_name = "unknown"
    sources = hashlib.sha256()
    for module in TRAINING_MODULES:
        with open(module.__file__, "rb") as fh:
            sources.update(fh.read())
    return {"numerics": leobeam.NUMERICS, "numpy": np.__version__,
            "blas": blas_name, "sources": sources.hexdigest()}


class DeskTraining(NamedTuple):
    result: train.TrainResult
    seconds: float  # wall-clock upper bound for the run that built the cache
    ckpt_path: str


@pytest.fixture(scope="session")
def desk_training() -> DeskTraining:
    """200-epoch desk-scale training result (no early stop)."""
    cfg = desk_config()
    tc = cfg.train_config()
    assert tc.epochs == 200 and not tc.early_stop and tc.test_size == 2000
    key = hashlib.sha256(repr(tc).encode()).hexdigest()[:16]
    ckpt_path = os.path.join(CACHE_DIR, f"desk_{key}.ckpt")
    meta_path = os.path.join(CACHE_DIR, f"desk_{key}.json")
    stamp = numerics_stamp()
    if (os.path.exists(ckpt_path) and os.path.exists(meta_path)
            and not os.environ.get("LEOBEAM_TEST_NO_CACHE")):
        with open(meta_path) as fh:
            meta = json.load(fh)
        try:
            ckpt = train.load_checkpoint(ckpt_path)
        except gnn.ArtifactError:
            ckpt = None  # an older checkpoint format or a damaged file
        if ckpt is not None and meta.get("stamp") == stamp:
            result = train.TrainResult(
                params=ckpt.params,
                history=[train.EpochStats(*row) for row in meta["history"]],
                best_epoch=meta["best_epoch"],
                best_test_wsr=meta["best_test_wsr"],
                stopped_early=meta["stopped_early"],
                input_scale=ckpt.input_scale)
            return DeskTraining(result, float(meta["seconds"]), ckpt_path)
    t0 = time.monotonic()
    result = train.train(tc)
    seconds = time.monotonic() - t0
    os.makedirs(CACHE_DIR, exist_ok=True)
    train.save_checkpoint(ckpt_path, result.params,
                          input_scale=result.input_scale)
    # each file is replaced whole: an interrupted run leaves no truncated one
    with gnn.atomic_write(meta_path) as fh:
        json.dump({"history": [list(st) for st in result.history],
                   "best_epoch": result.best_epoch,
                   "best_test_wsr": result.best_test_wsr,
                   "stopped_early": result.stopped_early,
                   "seconds": seconds, "stamp": stamp}, fh)
    return DeskTraining(result, seconds, ckpt_path)


@pytest.fixture(scope="session")
def desk_eval(desk_training):
    """Per-sample and mean WSR of the trained network and the baselines.

    Evaluated on the trainer's own held-out test ensemble (2000 samples),
    reconstructed from the seed split so no state leaks from the fixture.
    """
    cfg = desk_config()
    tc = cfg.train_config()
    sysp = tc.system
    _, _, s_test = np.random.SeedSequence(tc.seed).spawn(3)
    rng = np.random.Generator(np.random.Philox(s_test))
    h_test = channel.sample_channel_batch(
        tc.chan, tc.test_size, sysp.k_sats, sysp.m_users, sysp.n_antennas,
        rng)
    wt = sysp.weight_vector()

    p, s2 = sysp.power, sysp.sigma2

    def wsr_per_sample(w_batch):
        return beamform.wsr(h_test, w_batch, s2, bandwidth=sysp.bandwidth,
                            weights=wt).weighted_sum

    rates = {
        "mrt_local": wsr_per_sample(beamform.mrt_local(h_test, p)),
        "zf_local": wsr_per_sample(beamform.zf_local(h_test, p)),
        "mmse_local": wsr_per_sample(beamform.mmse_local(h_test, p, s2)),
        "zf_global": wsr_per_sample(
            beamform.zf_global(h_test, sysp.k_sats * p)),
        "mmse_global": wsr_per_sample(
            beamform.mmse_global(h_test, sysp.k_sats * p, s2)),
    }
    sys_scaled = train.SystemParams(
        sysp.k_sats, sysp.m_users, sysp.n_antennas, power=p, sigma2=s2,
        bandwidth=sysp.bandwidth, weights=sysp.weights,
        input_scale=desk_training.result.input_scale)
    rates["gnn_local"] = wsr_per_sample(train.infer_batch(
        desk_training.result.params, h_test, sys_scaled))
    means = {name: float(np.mean(r)) for name, r in rates.items()}
    return {"means": means, "rates": rates, "h_test": h_test,
            "system": sysp, "input_scale": desk_training.result.input_scale}
