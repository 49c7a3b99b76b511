"""Experiment configuration, scheme registry, and CSV artifact writers.

Configuration comes from INI files with sections ``system``, ``fading``,
``gnn``, ``train``, ``accel``, and ``run``.  `ExperimentConfig` is the one
declaration of every key: each field's annotation picks its caster, and its
`_key` names the section and holds the default, so an empty file is a valid
config.  Unknown sections or keys are rejected so typos fail loudly instead
of silently running the wrong experiment, and so are non-finite floats and
values that the channel, training or accelerator settings reject.

All run_* entry points write CSV files whose first line is a comment carrying
the artifact name and the config hash.  Floats are serialized with repr() so
identical configs produce byte-identical artifacts; a non-finite one fails
the command, and each runner builds every file before it writes the first,
so a failure leaves none.  `eval`, `sweep` and `quant` score every scheme's
beams, networks' (float or fixed-point) and classical alike, one way:
`compute_beams`, then `_rates_for_schemes`.
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


def db_to_linear(x: float) -> float:
    """10^(x/10): the watts of x dBW (of x dBm at x - 30), or the linear
    gain of x dBi; inf where that overflows a float."""
    try:
        return 10.0 ** (x / 10.0)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# config schema: the fields of ExperimentConfig

def _bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError("not a finite number")
    return v


def _tuple_of(cast):
    return lambda s: tuple(cast(tok.strip()) for tok in s.split(",")
                           if tok.strip())


# annotation -> caster from INI text
_CASTERS = {
    "int": int,
    "float": _float,
    "bool": _bool,
    "str": str,
    "tuple[int, ...]": _tuple_of(int),
    "tuple[float, ...]": _tuple_of(_float),
    "tuple[str, ...]": _tuple_of(str),
}


def parse_setting(text: str, annotation: str, where: str):
    """text read as a setting of the annotated type, or ConfigError naming
    where it came from (an INI key or a command-line flag)."""
    try:
        return _CASTERS[annotation](text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {where} = {text!r}: {exc}") from exc


def _key(section: str, default, key: str | None = None):
    """A setting read from ``[section] key`` (key defaults to the field
    name), with its built-in default."""
    return dataclasses.field(default=default,
                             metadata={"section": section, "key": key})


def _check_user_counts(m_values, what: str) -> None:
    if not m_values or min(m_values) < 1:
        raise ConfigError(f"{what} must list user counts >= 1, "
                          f"got {tuple(m_values)}")


def _sample_count(size, default: int) -> int:
    """Samples per ensemble: `size` when given, else the configured one."""
    count = default if size is None else size
    if count < 1:
        raise ConfigError(f"size must be >= 1, got {count}")
    return count


# stream labels for per-artifact RNG substreams
_STREAM_EVAL = 1
_STREAM_SWEEP = 2
_STREAM_QUANT = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings (linear units live in properties)."""

    k_sats: int = _key("system", 2)
    m_users: int = _key("system", 4)
    n_antennas: int = _key("system", 4)
    p_dbw: float = _key("system", 0.0)
    sigma2_dbm: float = _key("system", -90.0)
    bandwidth_hz: float = _key("system", 50e6)
    weights: tuple[float, ...] = _key("system", (1.0,))
    phi_deg: tuple[float, ...] = _key("system", (0.01,))
    phi_3db_deg: float = _key("system", 0.4)
    b_max_dbi: float = _key("system", 52.0)
    d0_m: float = _key("system", 600e3)
    dh_m: float = _key("system", 0.0)
    carrier_freq_hz: float = _key("system", 20e9)
    fading_b: float = _key("fading", 0.063, "b")
    fading_m: float = _key("fading", 2.0, "m")
    fading_omega: float = _key("fading", 8.97e-4, "omega")
    los_phase_rad: float = _key("fading", 0.0)
    full_scatter_phase: bool = _key("fading", False)
    scale_factor: int = _key("gnn", 1)
    wide_output: bool = _key("gnn", False)
    epochs: int = _key("train", 200)
    batch_size: int = _key("train", 200)
    samples_per_epoch: int = _key("train", 10000)
    test_size: int = _key("train", 2000)
    lr0: float = _key("train", 1e-3)
    lr_decay: float = _key("train", 0.995)
    lr_decay_every: int = _key("train", 100)
    beta1: float = _key("train", 0.9)
    beta2: float = _key("train", 0.999)
    eps: float = _key("train", 1e-8)
    early_stop: bool = _key("train", True)
    patience: int = _key("train", 10)
    min_rel_improve: float = _key("train", 1e-3)
    tied: bool = _key("train", True)
    auto_scale: bool = _key("train", True)
    sa_size: int = _key("accel", 16)
    bus_bytes_per_cycle: int = _key("accel", 8)
    clock_period_ns: float = _key("accel", 10.0)
    tile_m: int = _key("accel", 0)
    tile_k: int = _key("accel", 64)
    tile_n: int = _key("accel", 0)
    bits: int = _key("accel", 8)
    seed: int = _key("run", 0)
    out_dir: str = _key("run", "")
    checkpoint: str = _key("run", "")
    schemes: tuple[str, ...] = _key(
        "run", ("mrt_local", "zf_local", "mmse_local", "zf_global",
                "mmse_global"))
    eval_size: int = _key("run", 500)
    quant_size: int = _key("run", 500)
    latency_m_list: tuple[int, ...] = _key("run", (1, 2, 4, 8))

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
        if not all(0.0 <= phi < 90.0 for phi in self.phi_deg):
            raise ConfigError("[system] phi_deg entries must lie in [0, 90) "
                              f"degrees, got {self.phi_deg}")
        if not 0.0 < self.phi_3db_deg < 90.0:
            raise ConfigError(f"[system] phi_3db_deg = {self.phi_3db_deg!r} "
                              "must lie in (0, 90) degrees")
        if self.scale_factor < 1:
            raise ConfigError("gnn.scale_factor must be >= 1")
        for name in ("eval_size", "quant_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"run.{name} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"run.seed must be >= 0, got {self.seed}")
        _check_user_counts(self.latency_m_list, "run.latency_m_list")
        if not 0.0 < self.sigma2 < math.inf:
            raise ConfigError(
                f"[system] sigma2_dbm = {self.sigma2_dbm!r} is out of range: "
                "the noise power must be finite and > 0 W")
        # the domain classes hold the remaining range checks
        try:
            _check_budget(self, self.p_dbw, (self.k_sats,), "[system] p_dbw")
            self.train_config()
            self.accel_config()
        except (ValueError, ArithmeticError) as exc:
            raise ConfigError(f"value out of range: {exc}") from exc

    # --- linear-unit views -------------------------------------------------

    @property
    def power(self) -> float:
        """Per-satellite transmit budget in watts."""
        return db_to_linear(self.p_dbw)

    @property
    def sigma2(self) -> float:
        """Noise variance in watts."""
        return db_to_linear(self.sigma2_dbm - 30.0)

    @property
    def b_max(self) -> float:
        return db_to_linear(self.b_max_dbi)

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
            phi=tuple(math.radians(p) for p in phi),
            phi_3db=math.radians(self.phi_3db_deg),
            fading=channel.FadingParams(self.fading_b, self.fading_m,
                                        self.fading_omega),
            dh=self.dh_m,
            los_phase=self.los_phase_rad,
            full_scatter_phase=self.full_scatter_phase,
        )

    def system_params(self, input_scale=1.0) -> train.SystemParams:
        wt = self.weight_tuple
        uniform = all(w == wt[0] for w in wt)
        return self._shared(
            train.SystemParams, bandwidth=self.bandwidth_hz,
            weights=None if uniform and wt[0] == 1.0 else np.asarray(wt),
            input_scale=input_scale)

    def _shared(self, cls, **given):
        """cls(**given), its other fields read from the same-named
        settings and linear-unit views."""
        return cls(**given, **{f.name: getattr(self, f.name)
                               for f in dataclasses.fields(cls)
                               if f.name not in given})

    def train_config(self) -> train.TrainConfig:
        return self._shared(train.TrainConfig, system=self.system_params(),
                            chan=self.channel_params())

    def accel_config(self, bits=None) -> accel.AcceleratorConfig:
        return self._shared(accel.AcceleratorConfig,
                            tile_m=self.tile_m or None,
                            tile_n=self.tile_n or None,
                            bits=self.bits if bits is None else bits)

    def config_hash(self) -> str:
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True,
                             default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


# (section, key) -> field, for every setting
_KEYS = {(f.metadata["section"], f.metadata["key"] or f.name): f
         for f in dataclasses.fields(ExperimentConfig)}
_SECTIONS = {sect for sect, _ in _KEYS}


def load_config(path=None, overrides=None) -> ExperimentConfig:
    """Read an INI file into an ExperimentConfig.

    Unknown sections or keys raise ConfigError naming the offender.  Absent
    keys fall back to defaults (logged at DEBUG level).  ``overrides`` is an
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
        if sect not in _SECTIONS:
            raise ConfigError(f"unknown config section [{sect}]")
        for key in items:
            if (sect, key) not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in section [{sect}]")
    if overrides:
        for (sect, key), value in overrides.items():
            raw.setdefault(sect, {})[key] = value

    resolved = {}
    for (sect, key), field in _KEYS.items():
        text = raw.get(sect, {}).get(key)
        if text is None:
            if path is not None:
                logger.debug("config: [%s] %s missing, using default %r",
                             sect, key, field.default)
            continue
        resolved[field.name] = parse_setting(text, field.type,
                                             f"[{sect}] {key}")
    return ExperimentConfig(**resolved)


def resolve_out_dir(config: ExperimentConfig, cli_out=None) -> str:
    """The output directory; `gnn.atomic_write` creates it at the first
    write, so a command rejected before any work leaves none."""
    return cli_out or config.out_dir or os.environ.get("LEOBEAM_OUT_DIR") \
        or "leobeam_out"


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


def _scheme_names(config: ExperimentConfig, schemes) -> list:
    """Canonical names of `schemes`, else of [run] schemes; ConfigError on
    an unknown name or on a scheme listed twice, aliases included."""
    names = [canonical_scheme(s) for s in (schemes or config.schemes)]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"scheme {name} is listed more than once")
    return names


def load_gnn_context(path: str) -> train.Checkpoint:
    if not os.path.exists(path):
        raise MissingArtifactError(
            f"checkpoint not found: {path}; train a model first with "
            "'leobeam train --config <file>'")
    return train.load_checkpoint(path)


def _networks(config: ExperimentConfig, out_dir: str, names):
    """(gnn_local's checkpoint, gnn_global's), None where `names` lacks
    the scheme."""
    local = config.checkpoint or os.path.join(out_dir, "model.ckpt")
    pooled = os.path.join(out_dir, "model_pooled.ckpt")
    return (load_gnn_context(local) if "gnn_local" in names else None,
            load_gnn_context(pooled) if "gnn_global" in names else None)


def compute_beams(scheme: str, h, per_sat_power, total_power,
                  sigma2: float, gnn_ctx: train.Checkpoint | None = None,
                  gnn_ctx_global: train.Checkpoint | None = None,
                  dense=gnn._dense):
    """Return a BeamformerSet for a realization (K, M, N) or a stack of
    them (..., K, M, N); the beams have the channel's shape.

    The budgets may be 1-D vectors of P budgets each: the beams then gain a
    leading budget axis, (P, ..., K, M, N).  The classical schemes do their
    budget-independent work once; the networks run once per budget, with
    `dense` as their layer (float, or `accel.quantized_dense`).  Like
    `zf_global` and `mmse_global`, gnn_global is its local scheme on
    `beamform.pooled(h)`: gnn_local with the pooled checkpoint and the
    total budget.
    """
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
    if scheme == "gnn_global":
        if gnn_ctx_global is None:
            raise MissingArtifactError(
                "scheme gnn_global needs a checkpoint trained on the pooled "
                "system; run 'leobeam train --config <file> --pooled' first")
        if gnn_ctx_global.n_antennas != k * n:
            raise MissingArtifactError(
                f"pooled checkpoint expects {gnn_ctx_global.n_antennas} "
                f"antennas but the stacked system has {k * n}; retrain with "
                "--pooled")
        beams = compute_beams("gnn_local", beamform.pooled(h), total_power,
                              total_power, sigma2, gnn_ctx_global,
                              dense=dense)
        return beamform.BeamformerSet(w=beamform.unpooled(beams.w, k, n),
                                      power_budget=total_power, scope="total")
    if beamform._is_vector(per_sat_power):
        return beamform.BeamformerSet(w=np.stack([
            compute_beams(scheme, h, p, None, sigma2, gnn_ctx, dense=dense).w
            for p in per_sat_power]), power_budget=per_sat_power)
    if gnn_ctx is None:
        raise MissingArtifactError(
            "scheme gnn_local needs a trained checkpoint; run "
            "'leobeam train --config <file>' first")
    if gnn_ctx.n_antennas != n:
        raise MissingArtifactError(
            f"checkpoint expects {gnn_ctx.n_antennas} antennas but each "
            f"satellite has {n}; retrain")
    sys = train.SystemParams(k, m, n, power=per_sat_power, sigma2=sigma2,
                             input_scale=gnn_ctx.input_scale)
    w = train.infer_batch(gnn_ctx.params, h.reshape(-1, k, m, n), sys, dense)
    return beamform.BeamformerSet(w=w.reshape(h.shape),
                                  power_budget=per_sat_power)


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
    return f"# leobeam {kind} v1 config_hash={config.config_hash()}{tail}"


def _sample_batch(config: ExperimentConfig, count: int, stream: int,
                  k_sats=None, extra_key=None):
    key = [config.seed, stream]
    if extra_key is not None:
        key.append(extra_key)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
    k = config.k_sats if k_sats is None else k_sats
    h = channel.sample_channel_batch(config.channel_params(), count, k,
                                     config.m_users, config.n_antennas, rng)
    if not np.isfinite(h).all():
        raise ConfigError(f"[fading] b = {config.fading_b!r}, m = "
                          f"{config.fading_m!r} and omega = "
                          f"{config.fading_omega!r} overflow the channel draw")
    return h


# ---------------------------------------------------------------------------
# runners


def _rates_for_schemes(h_batch, schemes, per_sat_power, total_power, config,
                       gnn_ctx=None, gnn_ctx_global=None, dense=gnn._dense):
    """Evaluate schemes on a batch, the networks with `dense` as their
    layer; returns {scheme: RateReport} whose arrays run over the batch,
    after a leading budget axis when the budgets are vectors."""
    wt = np.asarray(config.weight_tuple)
    out = {}
    for scheme in schemes:
        beams = compute_beams(scheme, h_batch, per_sat_power, total_power,
                              config.sigma2, gnn_ctx, gnn_ctx_global, dense)
        out[scheme] = beamform.wsr(np.broadcast_to(h_batch, beams.w.shape),
                                   beams.w, config.sigma2,
                                   bandwidth=config.bandwidth_hz, weights=wt)
    return out


def _mean_std(vals) -> tuple:
    """(mean, std) of vals, taken on vals / 2^e with e the exponent of the
    largest magnitude, so squared deviations near 1e154 cannot overflow.
    Scaling by a power of two is exact, so where vals.mean() and
    vals.std() are finite these are their bits."""
    e = np.frexp(np.max(np.abs(vals)))[1]
    scaled = np.ldexp(vals, -e)
    return (float(np.ldexp(scaled.mean(), e)),
            float(np.ldexp(scaled.std(), e)))


def run_eval(config: ExperimentConfig, out_dir: str,
             schemes=None, size=None):
    """Evaluate beamforming schemes on a seeded channel ensemble.

    Writes eval.csv (one row per sample and scheme) and eval_summary.csv
    (mean and std of the weighted sum rate per scheme).  Returns the summary
    as {scheme: (mean, std)}.
    """
    names = _scheme_names(config, schemes)
    count = _sample_count(size, config.eval_size)
    h_batch = _sample_batch(config, count, _STREAM_EVAL)
    per_sat, total = config.power, config.k_sats * config.power
    rates = _rates_for_schemes(h_batch, names, per_sat, total, config,
                               *_networks(config, out_dir, names))

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
    summary = {scheme: _mean_std(rates[scheme].weighted_sum)
               for scheme in names}
    srows = [[scheme, count, *summary[scheme]] for scheme in names]
    gnn.write_files([
        gnn.csv_file(os.path.join(out_dir, "eval.csv"), _artifact_header(
            "eval", config, "units: rates b/s, power dBW"), cols, rows),
        gnn.csv_file(os.path.join(out_dir, "eval_summary.csv"),
                     _artifact_header("eval_summary", config,
                                      "units: rates b/s"),
                     ["scheme", "n_samples", "mean_wsr_bps", "std_wsr_bps"],
                     srows)])
    return summary


def _check_budget(config, p_dbw: float, k_values, where: str) -> float:
    """Per-satellite budget P in watts of p_dbw, checked for every power
    policy at every satellite count K in k_values of the system `config`.

    The policies' budgets run from P/K to K*P; each must be finite and
    > 0 and keep the MMSE regularizer M*sigma2/budget finite (a subnormal
    budget overflows it).  The best-case SNR, (a sqrt(K P))^2 / sigma2 for
    K satellites at budget P/K combining coherently on the largest
    deterministic amplitude a, must be a normal float, or every rate
    underflows to zero; an infinite a leaves no finite channel.  Otherwise
    ConfigError names `where` or the channel keys.
    """
    watts = db_to_linear(p_dbw)
    k = max(k_values)
    low, high = watts / k, watts * k
    if not (0.0 < low and high < math.inf
            and config.m_users * config.sigma2 / low < math.inf):
        raise ConfigError(
            f"{where} = {p_dbw!r} gives {watts!r} W per satellite, out of "
            f"range: every power policy's budget (P/K to K*P, K up to {k}) "
            f"must be finite and > 0 and keep the MMSE regularizer "
            f"M*sigma2/P finite")
    amp = float(np.max(channel.deterministic_amplitudes(
        config.channel_params(), config.m_users)))
    if amp == math.inf:
        raise ConfigError(f"[system] carrier_freq_hz = "
                          f"{config.carrier_freq_hz!r} and d0_m = "
                          f"{config.d0_m!r} overflow the channel amplitude")
    gain = amp * math.sqrt(min(k_values) * watts)
    snr = gain * gain / config.sigma2   # as rates form it: |c|^2 first
    if not snr >= np.finfo(float).tiny:
        raise ConfigError(
            f"best-case SNR {snr!r} is below the smallest normal float, so "
            f"every rate would underflow to 0: [system] carrier_freq_hz = "
            f"{config.carrier_freq_hz!r} and d0_m = {config.d0_m!r} are too "
            f"weak for {where} = {p_dbw!r}, sigma2_dbm = "
            f"{config.sigma2_dbm!r}")
    return watts


def run_sweep(config: ExperimentConfig, out_dir: str, variable: str,
              values, policy: str = "fixed", schemes=None, size=None):
    """Sweep transmit power (p_dbw) or satellite count (k_sats).

    Writes sweep.csv with one summary row per (value, scheme) and sweep.svg
    with one line per scheme.  Every value is checked before any work.
    Power sweeps reuse a single channel ensemble (the channel does not
    depend on the budget) and evaluate all budgets at once, as a leading
    budget axis; satellite-count sweeps draw a fresh seeded ensemble per K.
    Returns {scheme: [(value, mean_wsr)]}.
    """
    if variable not in ("p_dbw", "k_sats"):
        raise ConfigError(f"unknown sweep variable {variable!r}; "
                          "known: p_dbw, k_sats")
    if not values:
        raise ConfigError("sweep needs at least one value")
    names = _scheme_names(config, schemes)
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
    count = _sample_count(size, config.eval_size)
    # (extra seed key, K, budgets) of each channel ensemble
    if variable == "p_dbw":
        points = [float(v) for v in values]
        ensembles = [(None, config.k_sats, budget_for_policy(
            policy, np.array([_check_budget(config, v, (config.k_sats,),
                                           "[system] p_dbw sweep value")
                              for v in points]),
            config.k_sats))]
    else:
        fractional = [v for v in values if not float(v).is_integer()]
        if fractional:
            raise ConfigError(f"k_sats sweep values must be integers, "
                              f"got {fractional[0]!r}")
        points = [int(v) for v in values]
        if min(points) < 1:
            raise ConfigError(f"k_sats sweep value must be >= 1, "
                              f"got {min(points)}")
        _check_budget(config, config.p_dbw, points, "[system] p_dbw")
        ensembles = [(ki, k, budget_for_policy(policy, config.power, k))
                     for ki, k in enumerate(points)]

    networks = _networks(config, out_dir, names)
    per_point = []  # {scheme: per-sample WSR} of each value, in order
    for extra_key, k, (per_sat, total) in ensembles:
        rates = _rates_for_schemes(
            _sample_batch(config, count, _STREAM_SWEEP, k_sats=k,
                          extra_key=extra_key),
            names, per_sat, total, config, *networks)
        # a budget vector gives one row per value, a scalar budget one
        per_point += [dict(zip(names, wsr)) for wsr in zip(
            *(rates[s].weighted_sum.reshape(-1, count) for s in names))]

    results = {s: [] for s in names}
    rows = []
    for value, wsr in zip(map(float, points), per_point):
        for scheme in names:
            mean, std = _mean_std(wsr[scheme])
            results[scheme].append((value, mean))
            rows.append([variable, value, policy, scheme, count, mean, std])

    hdr = _artifact_header("sweep", config,
                           f"variable={variable} policy={policy} "
                           "units: rates b/s")
    series = [(s, [v for v, _ in results[s]], [w for _, w in results[s]])
              for s in names]
    # the CSV's finite check comes first: the plot needs finite means
    gnn.write_files([
        gnn.csv_file(os.path.join(out_dir, "sweep.csv"), hdr,
                     ["variable", "value", "policy", "scheme", "n_samples",
                      "mean_wsr_bps", "std_wsr_bps"], rows),
        (os.path.join(out_dir, "sweep.svg"), svgplot.line_plot(
            series, title=f"WSR vs {variable} ({policy})", xlabel=variable,
            ylabel="mean WSR (b/s)"))])
    return results


def run_quant_compare(config: ExperimentConfig, out_dir: str, size=None):
    """Compare float inference with 8- and 16-bit fixed-point inference.

    Writes quant.csv (per-sample WSR for each arithmetic plus ratio columns)
    and quant_summary.csv.  Returns {"float": mean, "int8": mean, "int16":
    mean, "ratio8": ..., "ratio16": ...}.
    """
    count = _sample_count(size, config.quant_size)
    networks = _networks(config, out_dir, ["gnn_local"])
    h_batch = _sample_batch(config, count, _STREAM_QUANT)
    # float layers, then fixed-point ones with scales per graph
    layers = [gnn._dense] + [
        accel.quantized_dense(config.accel_config(bits=bits), config.m_users)
        for bits in (8, 16)]
    float_wsr, q8, q16 = (
        _rates_for_schemes(h_batch, ["gnn_local"], config.power,
                           config.k_sats * config.power, config, *networks,
                           dense)["gnn_local"].weighted_sum
        for dense in layers)

    rows = []
    for b in range(count):
        rows.append([b, float(float_wsr[b]), float(q8[b]), float(q16[b]),
                     float(q8[b] / float_wsr[b]),
                     float(q16[b] / float_wsr[b])])
    summary = {
        "float": float(float_wsr.mean()),
        "int8": float(q8.mean()),
        "int16": float(q16.mean()),
        "ratio8": float(q8.mean() / float_wsr.mean()),
        "ratio16": float(q16.mean() / float_wsr.mean()),
    }
    gnn.write_files([
        gnn.csv_file(os.path.join(out_dir, "quant.csv"),
                     _artifact_header("quant", config, "units: rates b/s"),
                     ["sample", "float_wsr_bps", "int8_wsr_bps",
                      "int16_wsr_bps", "int8_ratio", "int16_ratio"], rows),
        gnn.csv_file(os.path.join(out_dir, "quant_summary.csv"),
                     _artifact_header("quant_summary", config),
                     ["metric", "value"],
                     [[key, val] for key, val in summary.items()])])
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
    m_values = config.latency_m_list if m_list is None else tuple(m_list)
    _check_user_counts(m_values, "latency user counts")
    try:
        cfgs = [config.accel_config(bits=bits) for bits in bits_list]
    except ValueError as exc:
        raise ConfigError(f"value out of range: {exc}") from exc
    dims = gnn.scaled_dims(config.n_antennas, config.scale_factor,
                           wide_output=config.wide_output)
    totals = {}
    rows, lrows = [], []
    for bits, cfg in zip(bits_list, cfgs):
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
    gnn.write_files([
        gnn.csv_file(os.path.join(out_dir, "latency.csv"), hdr,
                     ["bits", "m_users", "total_cycles", "total_ms",
                      "ref_lo_ms", "ref_hi_ms"], rows),
        gnn.csv_file(os.path.join(out_dir, "latency_layers.csv"),
                     _artifact_header("latency_layers", config),
                     ["bits", "m_users", "layer", "rows", "cols",
                      "compute_cycles", "memory_cycles", "effective_cycles",
                      "bound"], lrows)])
    return totals


def run_train(config: ExperimentConfig, out_dir: str, pooled: bool = False):
    """Train a network and write model.ckpt plus history.csv.

    With pooled=True the K satellites are stacked into one transmitter with
    K*N antennas and the total budget, producing model_pooled.ckpt for the
    gnn_global scheme.
    """
    cfg = config.train_config()
    name = "model.ckpt"
    if pooled:
        sys = cfg.system
        cfg = dataclasses.replace(cfg, system=dataclasses.replace(
            sys, k_sats=1, n_antennas=sys.k_sats * sys.n_antennas,
            power=sys.k_sats * sys.power))
        name = "model_pooled.ckpt"
    result = train.train(cfg)
    # the history first: a non-finite rate in it leaves no checkpoint
    hist_path = os.path.join(out_dir,
                             "history_pooled.csv" if pooled
                             else "history.csv")
    train.write_history_csv(hist_path, result.history,
                            config_hash=config.config_hash())
    ckpt_path = os.path.join(out_dir, name)
    train.save_checkpoint(ckpt_path, result.params,
                          input_scale=result.input_scale)
    return result, ckpt_path
