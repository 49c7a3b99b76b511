"""The benchmark's three workloads and the checks on their outputs.

Every workload is a closed loop with one client: one operation starts only
after the previous one returned.  An operation is a ``leobeam`` command run
through ``leobeam.cli.main`` in this process, or one per-realization call
into ``leobeam.experiments.compute_beams``.  It fails on a nonzero exit, an
exception, or a failed output check.  All inputs derive from the seed, so
repeated commands within a run are same-seed reruns whose CSVs must match
byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import time
from collections import defaultdict

import numpy as np

CLASSICAL = ("mrt_local", "zf_local", "mmse_local", "zf_global",
             "mmse_global")
POWER_TOL = 1e-9          # relative error allowed on a power budget

# columns whose every value must be finite and positive, per artifact kind
POSITIVE_COLUMNS = {
    "history": ("train_wsr", "test_wsr"),
    "sweep": ("mean_wsr_bps",),
    "quant": ("float_wsr_bps", "int8_wsr_bps", "int16_wsr_bps"),
    "quant_summary": ("value",),
    "latency": ("total_cycles", "total_ms"),
    "latency_layers": ("effective_cycles",),
}


class Session:
    """Operations, failures and output checks of one benchmark run."""

    def __init__(self, lb, root: str, out_dir: str, seed: int, tracer=None):
        self.lb = lb
        self.desk = os.path.join(root, "configs", "desk.ini")
        self.out = out_dir
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: set[str] = set()
        self.csv_bytes = 0
        self.times = defaultdict(list)     # operation label -> seconds
        self._first: dict[str, bytes] = {}

    def untraced(self):
        """Context in which the harness's own calls record no spans."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()

    def config(self, seed=None, **overrides):
        """Desk config with run.seed (default: the run's seed) and [train]
        overrides."""
        extra = {("run", "seed"): str(self.seed if seed is None else seed)}
        extra.update({("train", key): str(value)
                      for key, value in overrides.items()})
        return self.lb.experiments.load_config(self.desk, extra)

    def directory(self, name: str) -> str:
        path = os.path.join(self.out, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")

    def cli(self, label: str, argv: list, out_dir: str, artifacts,
            config_hash: str):
        """Run one command and check the CSVs it writes.

        Returns (wall seconds, {file name: rows}), or None if it failed.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.lb.cli.main(argv)
        except (Exception, SystemExit) as exc:
            self.fail(label, f"raised {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - start
        if code != 0:
            self.fail(label, f"exit code {code}")
            return None
        tables, problems = {}, []
        for name, kind in artifacts:
            rows, found = self._check_csv(os.path.join(out_dir, name), kind,
                                          config_hash)
            tables[name] = rows
            problems += found
        if problems:
            self.fail(label, "; ".join(problems))
            return None
        self.times[label].append(wall)
        return wall, tables

    def _check_csv(self, path: str, kind: str, config_hash: str):
        name = os.path.basename(path)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            return [], [f"{name}: {exc}"]
        self.csv_bytes += len(data)
        problems = []
        if data != self._first.setdefault(path, data):
            problems.append(f"{name} differs from the same-seed first run")
        header, _, body = data.decode().partition("\n")
        expected = f"# leobeam {kind} v1 config_hash={config_hash}"
        if header != expected and not header.startswith(expected + " "):
            legacy = f"# {kind} v1 config_hash={config_hash} "
            if kind == "history" and header.startswith(legacy):
                self.notes.add("history.csv starts '# history v1', without "
                               "the 'leobeam' prefix the README documents")
            else:
                problems.append(f"{name}: header {header[:90]!r}, "
                                f"expected {expected!r}")
        rows = list(csv.DictReader(io.StringIO(body)))
        if not rows:
            problems.append(f"{name}: no data rows")
        for column in POSITIVE_COLUMNS[kind]:
            bad = [row[column] for row in rows
                   if not 0.0 < float(row[column]) < math.inf]
            if bad:
                problems.append(f"{name}: {len(bad)} values of {column} not "
                                f"finite and positive, e.g. {bad[0]}")
        return rows, problems

    def check_beams(self, beams, per_sat: float, total: float):
        """Problem with a BeamformerSet's power budget, or None."""
        w = beams.w
        if not np.all(np.isfinite(w)):
            return "non-finite beams"
        if beams.scope == "per_satellite":
            budget = per_sat
            power = np.sum(w.real ** 2 + w.imag ** 2, axis=(1, 2))
        else:
            budget = total
            power = np.sum(w.real ** 2 + w.imag ** 2)[None]
        if beams.power_budget != budget:
            return f"budget {beams.power_budget!r} W, asked {budget!r} W"
        error = float(np.max(np.abs(power - budget))) / budget
        if error > POWER_TOL:
            return f"power off its {beams.scope} budget by {error:.3e}"
        return None

    def beam_calls(self, label: str, schemes, realizations, config,
                   gnn_ctx=None, rate: bool = False):
        """One operation per realization: beams for every scheme, timed.

        Budgets are those of the `fixed` policy.  With rate=True each
        scheme's weighted sum rate is evaluated too, as the sweep loop does
        per sample.  The times of the calls that pass go to times[label].
        """
        ex, bf = self.lb.experiments, self.lb.beamform
        per_sat, total = config.power, config.k_sats * config.power
        sigma2, bandwidth = config.sigma2, config.bandwidth_hz
        weights = np.asarray(config.weight_tuple)
        clock = time.perf_counter
        times = self.times[label]
        for h in realizations:
            self.attempted += 1
            start = clock()
            try:
                results = []
                for scheme in schemes:
                    beams = ex.compute_beams(scheme, h, per_sat, total,
                                             sigma2, gnn_ctx=gnn_ctx)
                    wsr = (bf.wsr(h, beams.w, sigma2, bandwidth=bandwidth,
                                  weights=weights).weighted_sum
                           if rate else 1.0)
                    results.append((beams, wsr))
            except Exception as exc:
                self.fail(label, f"raised {type(exc).__name__}: {exc}")
                continue
            elapsed = clock() - start
            problems = [self.check_beams(beams, per_sat, total)
                        or (None if 0.0 < wsr < math.inf
                            else f"weighted sum rate {wsr!r}")
                        for beams, wsr in results]
            problems = [p for p in problems if p]
            if problems:
                self.fail(label, problems[0])
            else:
                times.append(elapsed)


def _realizations(session: Session, config, count: int):
    """Seeded channel realizations, (count, K, M, N), for per-call loops."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([session.seed, 0x6265])))
    return session.lb.channel.sample_channel_batch(
        config.channel_params(), count, config.k_sats, config.m_users,
        config.n_antennas, rng)


def rate(work: float, times) -> float:
    """Work of one operation per second of its median time."""
    if not times:
        raise ValueError("no successful operation of a kind")
    return work / float(np.median(times))


class TrainDesk:
    """`leobeam train` on configs/desk.ini, one epoch per command."""

    name = "train_desk"
    epochs = 1

    def __init__(self, session: Session):
        self.s = session
        self.test_wsr = None

    def setup(self) -> None:
        self.config = self.s.config(epochs=self.epochs)
        self.dir = self.s.directory("train")

    def round(self) -> None:
        argv = ["train", "--config", self.s.desk, "--seed", str(self.s.seed),
                "--out", self.dir, "--epochs", str(self.epochs)]
        done = self.s.cli("train", argv, self.dir,
                          [("history.csv", "history")],
                          self.config.config_hash())
        if done:
            self.test_wsr = float(done[1]["history.csv"][-1]["test_wsr"])

    def finish(self) -> None:
        """Budgets of the trained network's beams on fresh realizations."""
        lb, s = self.s.lb, self.s
        s.attempted += 1
        try:
            ckpt = lb.train.load_checkpoint(
                os.path.join(self.dir, "model.ckpt"))
            sysp = self.config.system_params(input_scale=ckpt.input_scale)
            w = lb.train.infer_batch(ckpt.params,
                                     _realizations(s, self.config, 8), sysp)
        except Exception as exc:
            s.fail("trained-beam check", f"raised {type(exc).__name__}: {exc}")
            return
        for beams in w:
            problem = s.check_beams(
                lb.beamform.BeamformerSet(w=beams, power_budget=sysp.power),
                sysp.power, sysp.power * sysp.k_sats)
            if problem:
                s.fail("trained-beam check", problem)
                return

    def metrics(self) -> dict:
        times = self.s.times["train"]
        samples = self.epochs * self.config.samples_per_epoch
        return {
            "throughput_per_s": rate(samples, times),
            "ops_per_s": rate(1, times),
            "mean_wsr_bps": self.test_wsr,
            "report": [
                ("train_samples_per_s", rate(samples, times), "1/s",
                 "one-epoch commands, test evaluation included"),
                ("train_test_wsr_bps", self.test_wsr, "b/s",
                 "test WSR at the last epoch"),
                ("desk_200_epoch_s", 200 / self.epochs / rate(1, times), "s",
                 "extrapolated 200-epoch desk training; baseline 504 s"),
            ],
        }


class SweepClassical:
    """`leobeam sweep` over p_dbw and k_sats with the classical schemes."""

    name = "sweep_classical"
    size = 500              # samples per sweep point
    calls_per_round = 500   # per-realization evaluations per round
    sweeps = {"p_dbw": (("-10", "-5", "0", "5", "10"), "fixed"),
              "k_sats": (("1", "2", "3", "4"), "split")}

    def __init__(self, session: Session):
        self.s = session
        self.mean_wsr = {}

    def setup(self) -> None:
        self.config = self.s.config()
        self.h = _realizations(self.s, self.config, self.calls_per_round)
        self.dirs = {v: self.s.directory(f"sweep_{v}") for v in self.sweeps}

    def round(self) -> None:
        for variable, (values, policy) in self.sweeps.items():
            argv = ["sweep", "--config", self.s.desk, "--seed",
                    str(self.s.seed), "--out", self.dirs[variable],
                    "--variable", variable, "--values=" + ",".join(values),
                    "--policy", policy, "--schemes", ",".join(CLASSICAL),
                    "--size", str(self.size)]
            done = self.s.cli(f"sweep {variable}", argv, self.dirs[variable],
                              [("sweep.csv", "sweep")],
                              self.config.config_hash())
            if done:
                self.mean_wsr[variable] = [float(row["mean_wsr_bps"])
                                           for row in done[1]["sweep.csv"]]
        self.s.beam_calls("classical beams", CLASSICAL, self.h, self.config,
                          rate=True)

    def finish(self) -> None:
        pass

    def metrics(self) -> dict:
        # one round runs each sweep once: its evaluations per second of the
        # summed median command times
        evals = sum(len(values) for values, _ in self.sweeps.values()) \
            * len(CLASSICAL) * self.size
        round_s = sum(1 / rate(1, self.s.times[f"sweep {v}"])
                      for v in self.sweeps)
        calls = self.s.times["classical beams"]
        mean_wsr = float(np.mean(sum(self.mean_wsr.values(), [])))
        return {
            "throughput_per_s": evals / round_s,
            "ops_per_s": rate(1, calls),
            "mean_wsr_bps": mean_wsr,
            "report": [
                ("sweep_evals_per_s", evals / round_s, "1/s",
                 "realization x scheme x point over both sweep commands"),
                ("classical_calls_per_s", rate(1, calls), "1/s",
                 "realizations through the five classical schemes plus WSR"),
                ("sweep_mean_wsr_bps", mean_wsr, "b/s",
                 "mean over all sweep.csv rows"),
            ],
        }


class InferQuant:
    """Per-realization gnn_local beams, then `leobeam quant` and `latency`."""

    name = "infer_quant"
    calls_per_round = 1000
    quant_size = 200
    m_list = ("1", "2", "4", "8")
    # The set-up checkpoint: a short training run with desk.ini's own seed,
    # so every run evaluates the same network and --seed varies the
    # realizations it is evaluated on.
    setup_train = {"epochs": 2, "samples_per_epoch": 1000, "test_size": 200}

    def __init__(self, session: Session):
        self.s = session
        self.summary = None

    def setup(self) -> None:
        lb, s = self.s.lb, self.s
        self.config = s.config()
        self.dir = s.directory("infer")
        desk_seed = lb.experiments.load_config(s.desk).seed
        lb.experiments.run_train(s.config(seed=desk_seed, **self.setup_train),
                                 self.dir)
        self.ctx = lb.experiments.load_gnn_context(
            os.path.join(self.dir, "model.ckpt"))
        self.h = _realizations(s, self.config, self.calls_per_round)

    def round(self) -> None:
        s, cfg = self.s, self.config
        s.beam_calls("gnn_local beams", ("gnn_local",), self.h, cfg,
                     gnn_ctx=self.ctx)
        common = ["--config", s.desk, "--seed", str(s.seed), "--out",
                  self.dir]
        quant = s.cli("quant", ["quant", *common, "--size",
                                str(self.quant_size)], self.dir,
                      [("quant.csv", "quant"),
                       ("quant_summary.csv", "quant_summary")],
                      cfg.config_hash())
        if quant:
            self.summary = {row["metric"]: float(row["value"])
                            for row in quant[1]["quant_summary.csv"]}
        latency = s.cli("latency", ["latency", *common, "--m-list",
                                    ",".join(self.m_list)], self.dir,
                        [("latency.csv", "latency"),
                         ("latency_layers.csv", "latency_layers")],
                        cfg.config_hash())
        if latency:
            with s.untraced():
                problem = self._check_latency(latency[1]["latency.csv"])
            if problem:
                s.fail("latency", problem)

    def _check_latency(self, rows):
        """latency.csv totals against a fresh accel.latency_model."""
        lb, cfg = self.s.lb, self.config
        dims = lb.gnn.scaled_dims(cfg.n_antennas, cfg.scale_factor,
                                  wide_output=cfg.wide_output)
        for row in rows:
            bits, m = int(row["bits"]), int(row["m_users"])
            report = lb.accel.latency_model(dims, m, cfg.accel_config(bits))
            if (int(row["total_cycles"]) != report.total_cycles
                    or row["total_ms"] != repr(float(report.total_ms))):
                return (f"latency.csv bits={bits} M={m} reads "
                        f"{row['total_cycles']} cycles {row['total_ms']} ms, "
                        f"the model gives {report.total_cycles} cycles "
                        f"{report.total_ms!r} ms")
        return None

    def finish(self) -> None:
        """Budgets of quantized beams on a few of the per-call realizations."""
        lb, s, cfg = self.s.lb, self.s, self.config
        s.attempted += 1
        try:
            for bits in (8, 16):
                for h in self.h[:4]:
                    w = np.stack([lb.accel.quantized_forward(
                        self.ctx.params, h_k / self.ctx.input_scale, cfg.power,
                        cfg.accel_config(bits))[0] for h_k in h])
                    problem = s.check_beams(
                        lb.beamform.BeamformerSet(w=w, power_budget=cfg.power),
                        cfg.power, cfg.k_sats * cfg.power)
                    if problem:
                        s.fail("quantized-beam check", f"int{bits}: {problem}")
                        return
        except Exception as exc:
            s.fail("quantized-beam check",
                   f"raised {type(exc).__name__}: {exc}")

    def metrics(self) -> dict:
        quant, calls = self.s.times["quant"], self.s.times["gnn_local beams"]
        return {
            "throughput_per_s": rate(self.quant_size, quant),
            "ops_per_s": rate(1, calls),
            "mean_wsr_bps": self.summary["int8"],
            "report": [
                ("infer_calls_per_s", rate(1, calls), "1/s",
                 "gnn_local realizations, one per call"),
                ("quant_samples_per_s", rate(self.quant_size, quant), "1/s",
                 "realizations compared across float/int8/int16"),
                ("quant_int8_wsr_ratio", self.summary["ratio8"], "ratio",
                 "int8 mean WSR over float mean WSR"),
                ("quant_int8_wsr_bps", self.summary["int8"], "b/s",
                 "int8 mean WSR"),
            ],
        }


WORKLOADS = {w.name: w for w in (TrainDesk, SweepClassical, InferQuant)}
