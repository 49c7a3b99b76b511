"""Experiment configuration, scheme registry, and CSV artifact writers.

Configuration comes from INI files with sections ``system``, ``fading``,
``gnn``, ``train``, ``accel``, and ``run``.  Every key has a default, so an
empty file is a valid config; unknown sections or keys are rejected so typos
fail loudly instead of silently running the wrong experiment.

All run_* entry points write CSV files whose first line is a comment carrying
the artifact name and the config hash.  Floats are serialized with repr() so
identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from . import accel, beamform, channel, gnn, svgplot, train

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    """Bad configuration file or option value."""


class MissingArtifactError(Exception):
    """A required input artifact (e.g. a trained checkpoint) is absent."""


# ---------------------------------------------------------------------------
# unit conversions


def dbw_to_watts(x: float) -> float:
    return 10.0 ** (x / 10.0)


def watts_to_dbw(x: float) -> float:
    return 10.0 * math.log10(x)


def dbm_to_watts(x: float) -> float:
    return 10.0 ** ((x - 30.0) / 10.0)


def watts_to_dbm(x: float) -> float:
    return 10.0 * math.log10(x) + 30.0


def dbi_to_linear(x: float) -> float:
    return 10.0 ** (x / 10.0)


def deg_to_rad(x: float) -> float:
    return math.radians(x)


# ---------------------------------------------------------------------------
# config schema

def _bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _float_list(s: str):
    return tuple(float(tok) for tok in s.split(",") if tok.strip())


def _int_list(s: str):
    return tuple(int(tok) for tok in s.split(",") if tok.strip())


def _str_list(s: str):
    return tuple(tok.strip() for tok in s.split(",") if tok.strip())


# section -> key -> (default string, caster)
SCHEMA = {
    "system": {
        "k_sats": ("2", int),
        "m_users": ("4", int),
        "n_antennas": ("4", int),
        "p_dbw": ("0.0", float),
        "sigma2_dbm": ("-90.0", float),
        "bandwidth_hz": ("50e6", float),
        "weights": ("1", _float_list),
        "phi_deg": ("0.01", _float_list),
        "phi_3db_deg": ("0.4", float),
        "b_max_dbi": ("52.0", float),
        "d0_m": ("600e3", float),
        "dh_m": ("0.0", float),
        "carrier_freq_hz": ("20e9", float),
    },
    "fading": {
        "b": ("0.063", float),
        "m": ("2.0", float),
        "omega": ("8.97e-4", float),
        "los_phase_rad": ("0.0", float),
        "full_scatter_phase": ("false", _bool),
    },
    "gnn": {
        "scale_factor": ("1", int),
        "wide_output": ("false", _bool),
    },
    "train": {
        "epochs": ("200", int),
        "batch_size": ("200", int),
        "samples_per_epoch": ("10000", int),
        "test_size": ("2000", int),
        "lr0": ("1e-3", float),
        "lr_decay": ("0.995", float),
        "lr_decay_every": ("100", int),
        "beta1": ("0.9", float),
        "beta2": ("0.999", float),
        "eps": ("1e-8", float),
        "early_stop": ("true", _bool),
        "patience": ("10", int),
        "min_rel_improve": ("1e-3", float),
        "tied": ("true", _bool),
        "use_float32": ("false", _bool),
        "auto_scale": ("true", _bool),
    },
    "accel": {
        "sa_size": ("16", int),
        "bus_bytes_per_cycle": ("8", int),
        "clock_period_ns": ("10.0", float),
        "tile_m": ("0", int),
        "tile_k": ("64", int),
        "tile_n": ("0", int),
        "bits": ("8", int),
    },
    "run": {
        "seed": ("0", int),
        "out_dir": ("", str),
        "checkpoint": ("", str),
        "schemes": ("mrt_local,zf_local,mmse_local,zf_global,mmse_global",
                    _str_list),
        "eval_size": ("500", int),
        "quant_size": ("500", int),
        "latency_m_list": ("1,2,4,8", _int_list),
    },
}

# stream labels for per-artifact RNG substreams
_STREAM_EVAL = 1
_STREAM_SWEEP = 2
_STREAM_QUANT = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings (linear units live in properties)."""

    k_sats: int
    m_users: int
    n_antennas: int
    p_dbw: float
    sigma2_dbm: float
    bandwidth_hz: float
    weights: tuple
    phi_deg: tuple
    phi_3db_deg: float
    b_max_dbi: float
    d0_m: float
    dh_m: float
    carrier_freq_hz: float
    fading_b: float
    fading_m: float
    fading_omega: float
    los_phase_rad: float
    full_scatter_phase: bool
    scale_factor: int
    wide_output: bool
    epochs: int
    batch_size: int
    samples_per_epoch: int
    test_size: int
    lr0: float
    lr_decay: float
    lr_decay_every: int
    beta1: float
    beta2: float
    eps: float
    early_stop: bool
    patience: int
    min_rel_improve: float
    tied: bool
    use_float32: bool
    auto_scale: bool
    sa_size: int
    bus_bytes_per_cycle: int
    clock_period_ns: float
    tile_m: int
    tile_k: int
    tile_n: int
    bits: int
    seed: int
    out_dir: str
    checkpoint: str
    schemes: tuple
    eval_size: int
    quant_size: int
    latency_m_list: tuple

    def __post_init__(self):
        for name in ("k_sats", "m_users", "n_antennas"):
            if getattr(self, name) < 1:
                raise ConfigError(f"system.{name} must be >= 1, "
                                  f"got {getattr(self, name)}")
        if len(self.weights) not in (1, self.m_users):
            raise ConfigError("system.weights must have 1 or m_users entries, "
                              f"got {len(self.weights)}")
        if len(self.phi_deg) not in (1, self.m_users):
            raise ConfigError("system.phi_deg must have 1 or m_users entries, "
                              f"got {len(self.phi_deg)}")
        if self.scale_factor < 1:
            raise ConfigError("gnn.scale_factor must be >= 1")
        if self.bits not in (8, 16):
            raise ConfigError(f"accel.bits must be 8 or 16, got {self.bits}")
        for name in ("eval_size", "quant_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"run.{name} must be >= 1")

    # --- linear-unit views -------------------------------------------------

    @property
    def power(self) -> float:
        """Per-satellite transmit budget in watts."""
        return dbw_to_watts(self.p_dbw)

    @property
    def sigma2(self) -> float:
        """Noise variance in watts."""
        return dbm_to_watts(self.sigma2_dbm)

    @property
    def b_max(self) -> float:
        return dbi_to_linear(self.b_max_dbi)

    @property
    def weight_tuple(self) -> tuple:
        if len(self.weights) == 1:
            return tuple(self.weights) * self.m_users
        return self.weights

    # --- factories ---------------------------------------------------------

    def channel_params(self) -> channel.ChannelParams:
        phi = self.phi_deg if len(self.phi_deg) > 1 else \
            (self.phi_deg[0],) * self.m_users
        return channel.ChannelParams(
            d0=self.d0_m,
            carrier_freq=self.carrier_freq_hz,
            b_max=self.b_max,
            phi=tuple(deg_to_rad(p) for p in phi),
            phi_3db=deg_to_rad(self.phi_3db_deg),
            fading=channel.FadingParams(self.fading_b, self.fading_m,
                                        self.fading_omega),
            dh=self.dh_m,
            los_phase=self.los_phase_rad,
            full_scatter_phase=self.full_scatter_phase,
        )

    def system_params(self, k_sats=None, n_antennas=None, power=None,
                      input_scale=1.0) -> train.SystemParams:
        wt = self.weight_tuple
        uniform = all(w == wt[0] for w in wt)
        return train.SystemParams(
            k_sats=self.k_sats if k_sats is None else k_sats,
            m_users=self.m_users,
            n_antennas=self.n_antennas if n_antennas is None else n_antennas,
            power=self.power if power is None else power,
            sigma2=self.sigma2,
            bandwidth=self.bandwidth_hz,
            weights=None if uniform and wt[0] == 1.0 else np.asarray(wt),
            input_scale=input_scale,
        )

    def train_config(self) -> train.TrainConfig:
        return train.TrainConfig(
            system=self.system_params(),
            chan=self.channel_params(),
            scale_factor=self.scale_factor,
            epochs=self.epochs,
            batch_size=self.batch_size,
            samples_per_epoch=self.samples_per_epoch,
            test_size=self.test_size,
            lr0=self.lr0,
            lr_decay=self.lr_decay,
            lr_decay_every=self.lr_decay_every,
            beta1=self.beta1,
            beta2=self.beta2,
            eps=self.eps,
            early_stop=self.early_stop,
            patience=self.patience,
            min_rel_improve=self.min_rel_improve,
            tied=self.tied,
            use_float32=self.use_float32,
            auto_scale=self.auto_scale,
            seed=self.seed,
        )

    def accel_config(self, bits=None) -> accel.AcceleratorConfig:
        return accel.AcceleratorConfig(
            sa_size=self.sa_size,
            bus_bytes_per_cycle=self.bus_bytes_per_cycle,
            clock_period_ns=self.clock_period_ns,
            tile_m=self.tile_m or None,
            tile_k=self.tile_k,
            tile_n=self.tile_n or None,
            bits=self.bits if bits is None else bits,
        )

    def config_hash(self) -> str:
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True,
                             default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_config(path=None, overrides=None) -> ExperimentConfig:
    """Read an INI file into an ExperimentConfig.

    Unknown sections or keys raise ConfigError naming the offender.  Absent
    keys fall back to defaults (logged at INFO level).  ``overrides`` is an
    optional {(section, key): string} mapping applied on top, used by the CLI
    for flags like --seed.
    """
    parser = configparser.ConfigParser(interpolation=None)
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    raw = {sect: dict(parser.items(sect)) for sect in parser.sections()}
    for sect, items in raw.items():
        if sect not in SCHEMA:
            raise ConfigError(f"unknown config section [{sect}]")
        for key in items:
            if key not in SCHEMA[sect]:
                raise ConfigError(f"unknown key {key!r} in section [{sect}]")
    if overrides:
        for (sect, key), value in overrides.items():
            raw.setdefault(sect, {})[key] = value

    renames = {("fading", "b"): "fading_b", ("fading", "m"): "fading_m",
               ("fading", "omega"): "fading_omega"}
    resolved = {}
    for sect, keys in SCHEMA.items():
        have = raw.get(sect, {})
        for key, (default, caster) in keys.items():
            field = renames.get((sect, key), key)
            text = have.get(key)
            if text is None:
                text = default
                if path is not None:
                    logger.debug("config: [%s] %s missing, using default %r",
                                sect, key, default)
            try:
                resolved[field] = caster(text)
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"bad value for [{sect}] {key} = {text!r}: {exc}"
                ) from exc
    return ExperimentConfig(**resolved)


def resolve_out_dir(config: ExperimentConfig, cli_out=None) -> str:
    out = cli_out or config.out_dir or os.environ.get("LEOBEAM_OUT_DIR") \
        or "leobeam_out"
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# scheme registry

GLOBAL_SCHEMES = frozenset({"zf_global", "mmse_global", "gnn_global"})

SCHEME_ALIASES = {
    "mrt": "mrt_local",
    "zf": "zf_local",
    "mmse": "mmse_local",
    "gnn": "gnn_local",
}

ALL_SCHEMES = ("mrt_local", "zf_local", "mmse_local",
               "zf_global", "mmse_global", "gnn_local", "gnn_global")


def canonical_scheme(name: str) -> str:
    resolved = SCHEME_ALIASES.get(name, name)
    if resolved not in ALL_SCHEMES:
        raise ConfigError(f"unknown scheme {name!r}; known: "
                          + ", ".join(ALL_SCHEMES))
    return resolved


@dataclass
class GnnContext:
    """Trained network plus the input scale it was trained with."""

    params: object
    input_scale: float

    @property
    def n_antennas(self) -> int:
        return self.params.dims.n_antennas


def load_gnn_context(path: str) -> GnnContext:
    if not os.path.exists(path):
        raise MissingArtifactError(
            f"checkpoint not found: {path}; train a model first with "
            "'leobeam train --config <file>'")
    ckpt = train.load_checkpoint(path)
    return GnnContext(params=ckpt.params, input_scale=ckpt.input_scale)


def compute_beams(scheme: str, h, per_sat_power: float, total_power: float,
                  sigma2: float, gnn_ctx: GnnContext | None = None,
                  gnn_ctx_global: GnnContext | None = None):
    """Return a BeamformerSet for a realization (K, M, N) or a stack of
    them (..., K, M, N); the beams have the channel's shape."""
    if scheme == "mrt_local":
        return beamform.mrt_local(h, per_sat_power)
    if scheme == "zf_local":
        return beamform.zf_local(h, per_sat_power)
    if scheme == "mmse_local":
        return beamform.mmse_local(h, per_sat_power, sigma2)
    if scheme == "zf_global":
        return beamform.zf_global(h, total_power)
    if scheme == "mmse_global":
        return beamform.mmse_global(h, total_power, sigma2)
    if scheme not in ("gnn_local", "gnn_global"):
        raise ConfigError(f"unknown scheme {scheme!r}")
    h = np.asarray(h)
    k, m, n = h.shape[-3:]
    if scheme == "gnn_local":
        if gnn_ctx is None:
            raise MissingArtifactError(
                "scheme gnn_local needs a trained checkpoint; run "
                "'leobeam train --config <file>' first")
        sys = train.SystemParams(k, m, n, power=per_sat_power, sigma2=sigma2,
                                 input_scale=gnn_ctx.input_scale)
        w = train.infer_batch(gnn_ctx.params, h.reshape(-1, k, m, n), sys)
        return beamform.BeamformerSet(w=w.reshape(h.shape),
                                      power_budget=per_sat_power)
    ctx = gnn_ctx_global
    if ctx is None:
        raise MissingArtifactError(
            "scheme gnn_global needs a checkpoint trained on the pooled "
            "system; run 'leobeam train --config <file> --pooled' first")
    if ctx.n_antennas != k * n:
        raise MissingArtifactError(
            f"pooled checkpoint expects {ctx.n_antennas} antennas but the "
            f"stacked system has {k * n}; retrain with --pooled")
    # the pooled network sees one satellite with K*N antennas
    sys = train.SystemParams(1, m, k * n, power=total_power, sigma2=sigma2,
                             input_scale=ctx.input_scale)
    pooled = beamform._stacked(h).swapaxes(-1, -2).reshape(-1, 1, m, k * n)
    ws = train.infer_batch(ctx.params, pooled, sys)
    w = beamform._split(ws[:, 0].swapaxes(-1, -2), k, n)
    return beamform.BeamformerSet(w=w.reshape(h.shape),
                                  power_budget=total_power, scope="total")


def budget_for_policy(policy: str, per_sat_power: float, k_sats: int):
    """Return (per_sat, total) transmit budgets for a power policy.

    fixed:  each satellite spends the full per-satellite budget.
    split:  the per-satellite budget is divided across the K satellites.
    pooled: all antennas form one transmitter with the total budget; only
            global schemes are defined here.
    """
    if policy == "fixed":
        return per_sat_power, k_sats * per_sat_power
    if policy == "split":
        return per_sat_power / k_sats, per_sat_power
    if policy == "pooled":
        return per_sat_power, per_sat_power
    raise ConfigError(f"unknown power policy {policy!r}; "
                      "known: fixed, split, pooled")


# ---------------------------------------------------------------------------
# CSV helpers


def _artifact_header(kind: str, config: ExperimentConfig, extra: str = ""):
    tail = f" {extra}" if extra else ""
    return f"# leobeam {kind} v1 config_hash={config.config_hash()}{tail}\n"


def _write_rows(path, header_comment, columns, rows):
    with open(path, "w") as fh:
        fh.write(header_comment)
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(
                repr(v) if isinstance(v, float) else str(v)
                for v in row) + "\n")
    return path


def _sample_batch(config: ExperimentConfig, count: int, stream: int,
                  k_sats=None, extra_key=None):
    key = [config.seed, stream]
    if extra_key is not None:
        key.append(extra_key)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
    k = config.k_sats if k_sats is None else k_sats
    return channel.sample_channel_batch(
        config.channel_params(), count, k, config.m_users,
        config.n_antennas, rng)


# ---------------------------------------------------------------------------
# runners


def _rates_for_schemes(h_batch, schemes, per_sat_power, total_power, config,
                       gnn_ctx=None, gnn_ctx_global=None):
    """Evaluate schemes on a batch; returns {scheme: RateReport} whose
    arrays run over the batch."""
    wt = np.asarray(config.weight_tuple)
    out = {}
    for scheme in schemes:
        beams = compute_beams(scheme, h_batch, per_sat_power, total_power,
                              config.sigma2, gnn_ctx=gnn_ctx,
                              gnn_ctx_global=gnn_ctx_global)
        out[scheme] = beamform.wsr(h_batch, beams.w, config.sigma2,
                                   bandwidth=config.bandwidth_hz, weights=wt)
    return out


def run_eval(config: ExperimentConfig, out_dir: str,
             schemes=None, size=None):
    """Evaluate beamforming schemes on a seeded channel ensemble.

    Writes eval.csv (one row per sample and scheme) and eval_summary.csv
    (mean and std of the weighted sum rate per scheme).  Returns the summary
    as {scheme: (mean, std)}.
    """
    names = [canonical_scheme(s) for s in (schemes or config.schemes)]
    count = size or config.eval_size
    h_batch = _sample_batch(config, count, _STREAM_EVAL)
    ctx = ctx_global = None
    if "gnn_local" in names:
        ctx = load_gnn_context(
            config.checkpoint or os.path.join(out_dir, "model.ckpt"))
    if "gnn_global" in names:
        ctx_global = load_gnn_context(
            os.path.join(out_dir, "model_pooled.ckpt"))
    per_sat, total = config.power, config.k_sats * config.power
    rates = _rates_for_schemes(h_batch, names, per_sat, total, config,
                               gnn_ctx=ctx, gnn_ctx_global=ctx_global)

    cols = ["sample", "seed", "scheme", "k_sats", "m_users", "n_antennas",
            "p_dbw"] + [f"rate_{i + 1}_bps" for i in range(config.m_users)] \
        + ["weighted_sum_bps"]
    rows = []
    for scheme in names:
        rep = rates[scheme]
        for idx in range(count):
            rows.append([idx, config.seed, scheme, config.k_sats,
                         config.m_users, config.n_antennas,
                         float(config.p_dbw)]
                        + [float(r) for r in rep.per_user_rates[idx]]
                        + [float(rep.weighted_sum[idx])])
    hdr = _artifact_header("eval", config,
                           "units: rates b/s, power dBW")
    _write_rows(os.path.join(out_dir, "eval.csv"), hdr, cols, rows)

    summary = {}
    srows = []
    for scheme in names:
        vals = rates[scheme].weighted_sum
        summary[scheme] = (float(vals.mean()), float(vals.std()))
        srows.append([scheme, len(vals), float(vals.mean()),
                      float(vals.std())])
    _write_rows(os.path.join(out_dir, "eval_summary.csv"),
                _artifact_header("eval_summary", config,
                                 "units: rates b/s"),
                ["scheme", "n_samples", "mean_wsr_bps", "std_wsr_bps"],
                srows)
    return summary


def run_sweep(config: ExperimentConfig, out_dir: str, variable: str,
              values, policy: str = "fixed", schemes=None, size=None):
    """Sweep transmit power (p_dbw) or satellite count (k_sats).

    Writes sweep.csv with one summary row per (value, scheme) and sweep.svg
    with one line per scheme.  Power sweeps reuse a single channel ensemble
    (the channel does not depend on the budget); satellite-count sweeps draw
    a fresh seeded ensemble per K.  Returns {scheme: [(value, mean_wsr)]}.
    """
    if variable not in ("p_dbw", "k_sats"):
        raise ConfigError(f"unknown sweep variable {variable!r}; "
                          "known: p_dbw, k_sats")
    if not values:
        raise ConfigError("sweep needs at least one value")
    names = [canonical_scheme(s) for s in (schemes or config.schemes)]
    if policy == "pooled":
        kept = [s for s in names if s in GLOBAL_SCHEMES]
        dropped = sorted(set(names) - set(kept))
        if dropped:
            logger.info("pooled policy: skipping local schemes %s", dropped)
        if not kept:
            raise ConfigError("pooled policy needs at least one global "
                              "scheme (zf_global, mmse_global, gnn_global)")
        names = kept
    if variable == "k_sats" and "gnn_global" in names:
        raise ConfigError("gnn_global cannot be swept over k_sats: its "
                          "pooled checkpoint serves one satellite count")
    count = size or config.eval_size

    ctx = ctx_global = None
    if "gnn_local" in names:
        ctx = load_gnn_context(
            config.checkpoint or os.path.join(out_dir, "model.ckpt"))
    if "gnn_global" in names:
        ctx_global = load_gnn_context(
            os.path.join(out_dir, "model_pooled.ckpt"))

    def points():
        """(value, channel ensemble, per-satellite and total budgets)."""
        if variable == "p_dbw":
            h_batch = _sample_batch(config, count, _STREAM_SWEEP)
            for value in values:
                yield (float(value), h_batch, *budget_for_policy(
                    policy, dbw_to_watts(float(value)), config.k_sats))
            return
        for ki, value in enumerate(values):
            k = int(value)
            if k < 1:
                raise ConfigError(f"k_sats sweep value must be >= 1, got {k}")
            yield (float(k), _sample_batch(config, count, _STREAM_SWEEP,
                                           k_sats=k, extra_key=ki),
                   *budget_for_policy(policy, config.power, k))

    results = {s: [] for s in names}
    rows = []
    for value, h_batch, per_sat, total in points():
        rates = _rates_for_schemes(h_batch, names, per_sat, total, config,
                                   gnn_ctx=ctx, gnn_ctx_global=ctx_global)
        for scheme in names:
            vals = rates[scheme].weighted_sum
            results[scheme].append((value, float(vals.mean())))
            rows.append([variable, value, policy, scheme, len(vals),
                         float(vals.mean()), float(vals.std())])

    hdr = _artifact_header("sweep", config,
                           f"variable={variable} policy={policy} "
                           "units: rates b/s")
    _write_rows(os.path.join(out_dir, "sweep.csv"), hdr,
                ["variable", "value", "policy", "scheme", "n_samples",
                 "mean_wsr_bps", "std_wsr_bps"], rows)
    series = [(s, [v for v, _ in results[s]], [w for _, w in results[s]])
              for s in names]
    svg = svgplot.line_plot(series, title=f"WSR vs {variable} ({policy})",
                            xlabel=variable, ylabel="mean WSR (b/s)")
    with open(os.path.join(out_dir, "sweep.svg"), "w") as fh:
        fh.write(svg)
    return results


def run_quant_compare(config: ExperimentConfig, out_dir: str, size=None):
    """Compare float inference with 8- and 16-bit fixed-point inference.

    Writes quant.csv (per-sample WSR for each arithmetic plus ratio columns)
    and quant_summary.csv.  Returns {"float": mean, "int8": mean, "int16":
    mean, "ratio8": ..., "ratio16": ...}.
    """
    ckpt_path = config.checkpoint or os.path.join(out_dir, "model.ckpt")
    ctx = load_gnn_context(ckpt_path)
    count = size or config.quant_size
    h_batch = _sample_batch(config, count, _STREAM_QUANT)
    n = config.n_antennas
    if ctx.n_antennas != n:
        raise MissingArtifactError(
            f"checkpoint expects {ctx.n_antennas} antennas, config has {n}")
    sys = config.system_params(input_scale=ctx.input_scale)
    wt = np.asarray(config.weight_tuple)

    def wsr_of(w):
        return beamform.wsr(h_batch, w, sys.sigma2, bandwidth=sys.bandwidth,
                            weights=wt).weighted_sum

    def quant_wsr(bits):
        # every sample and satellite in one stacked pass, scales per graph
        w, _ = accel.quantized_forward_batch(
            ctx.params, h_batch / ctx.input_scale, sys.power,
            config.accel_config(bits=bits))
        return wsr_of(w)

    float_wsr = wsr_of(train.infer_batch(ctx.params, h_batch, sys))
    q8 = quant_wsr(8)
    q16 = quant_wsr(16)

    rows = []
    for b in range(count):
        rows.append([b, float(float_wsr[b]), float(q8[b]), float(q16[b]),
                     float(q8[b] / float_wsr[b]),
                     float(q16[b] / float_wsr[b])])
    hdr = _artifact_header("quant", config, "units: rates b/s")
    _write_rows(os.path.join(out_dir, "quant.csv"), hdr,
                ["sample", "float_wsr_bps", "int8_wsr_bps", "int16_wsr_bps",
                 "int8_ratio", "int16_ratio"], rows)

    summary = {
        "float": float(float_wsr.mean()),
        "int8": float(q8.mean()),
        "int16": float(q16.mean()),
        "ratio8": float(q8.mean() / float_wsr.mean()),
        "ratio16": float(q16.mean() / float_wsr.mean()),
    }
    _write_rows(os.path.join(out_dir, "quant_summary.csv"),
                _artifact_header("quant_summary", config),
                ["metric", "value"],
                [[key, val] for key, val in summary.items()])
    return summary


# External reference latency windows (ms) for the targeted FPGA design,
# written into the CSV for context; never asserted by the model.
REFERENCE_RANGE_MS = {8: (3.863, 5.883), 16: (7.192, 10.504)}


def run_latency(config: ExperimentConfig, out_dir: str, m_list=None,
                bits_list=(8, 16)):
    """Tabulate modeled inference latency across user counts and bit widths.

    Writes latency.csv (totals) and latency_layers.csv (per-layer detail).
    Returns {(bits, m): total_ms}.
    """
    m_values = tuple(m_list or config.latency_m_list)
    dims = gnn.scaled_dims(config.n_antennas, config.scale_factor,
                           wide_output=config.wide_output)
    totals = {}
    rows, lrows = [], []
    for bits in bits_list:
        cfg = config.accel_config(bits=bits)
        lo, hi = REFERENCE_RANGE_MS.get(bits, (float("nan"), float("nan")))
        for m in m_values:
            report = accel.latency_model(dims, m, cfg)
            totals[(bits, m)] = report.total_ms
            rows.append([bits, m, report.total_cycles,
                         float(report.total_ms), float(lo), float(hi)])
            for layer in report.layers:
                lrows.append([bits, m, layer.name, layer.rows, layer.cols,
                              layer.compute_cycles, layer.memory_cycles,
                              layer.effective_cycles, layer.bound_tag])
    hdr = _artifact_header(
        "latency", config,
        f"clock_period_ns={config.clock_period_ns!r} "
        "ref_*_ms columns are external reference points, not assertions")
    _write_rows(os.path.join(out_dir, "latency.csv"), hdr,
                ["bits", "m_users", "total_cycles", "total_ms",
                 "ref_lo_ms", "ref_hi_ms"], rows)
    _write_rows(os.path.join(out_dir, "latency_layers.csv"),
                _artifact_header("latency_layers", config),
                ["bits", "m_users", "layer", "rows", "cols",
                 "compute_cycles", "memory_cycles", "effective_cycles",
                 "bound"], lrows)
    return totals


def run_train(config: ExperimentConfig, out_dir: str, progress=None,
              pooled: bool = False):
    """Train a network and write model.ckpt plus history.csv.

    With pooled=True the K satellites are stacked into one transmitter with
    K*N antennas and the total budget, producing model_pooled.ckpt for the
    gnn_global scheme.
    """
    cfg = config.train_config()
    name = "model.ckpt"
    if pooled:
        sys = cfg.system
        pooled_sys = train.SystemParams(
            k_sats=1, m_users=sys.m_users,
            n_antennas=sys.k_sats * sys.n_antennas,
            power=sys.k_sats * sys.power, sigma2=sys.sigma2,
            bandwidth=sys.bandwidth, weights=sys.weights,
            input_scale=sys.input_scale)
        cfg = dataclasses.replace(cfg, system=pooled_sys)
        name = "model_pooled.ckpt"
    result = train.train(cfg, progress=progress)
    ckpt_path = os.path.join(out_dir, name)
    train.save_checkpoint(ckpt_path, result.params,
                          input_scale=result.input_scale)
    hist_path = os.path.join(out_dir,
                             "history_pooled.csv" if pooled
                             else "history.csv")
    train.write_history_csv(hist_path, result.history,
                            config_hash=config.config_hash())
    return result, ckpt_path
