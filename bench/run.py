"""leobeam benchmark: one workload, measured for a fixed time, outputs checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload train_desk --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics listed in BENCHMARK.json;
with --trace 1 it wraps the package's public functions in spans and prints
the per-layer metrics instead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
result, with the environment fingerprint, goes to .bench_out/results/ and a
traced run's spans to .bench_out/traces/.  See bench/README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
# Speeds are an operation's work per second of the median time of that
# kind of operation in the window; time percentiles are printed next to
# them.
OP_QUANTILES = (10, 25, 50, 75, 99)
# per-layer metrics derived from the config or from counts, not timed spans
COMPUTED = ("gnn.macs_per_forward", "accel.modeled_ms.", "accel.weight_bytes.",
            "accel.bias_bytes", "accel.sa_gemm.modeled_cycles_per_forward",
            "train.engine_gmacs_per_s", "accel.host_s_per_modeled_mac",
            "trace.overhead_s")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train_desk", "sweep_classical", "infer_quant"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_leobeam():
    """Import the package from this checkout's src/, never from elsewhere."""
    for need in ("src/leobeam/__init__.py", "configs/desk.ini",
                 "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die(f"{need} not found under {ROOT}; run from a full checkout")
    sys.path.insert(0, HERE)
    import env
    env.limit_blas_threads()
    sys.path.insert(0, SRC)
    import leobeam
    import leobeam.cli
    import leobeam.svgplot
    if not os.path.abspath(leobeam.__file__).startswith(SRC + os.sep):
        die(f"imported leobeam from {leobeam.__file__}, not from {SRC}")
    return leobeam


def computed_counts(lb, config) -> dict:
    """Counts that follow from the config alone; exact on every run."""
    dims = lb.gnn.scaled_dims(config.n_antennas, config.scale_factor,
                              wide_output=config.wide_output)
    plan = lb.gnn.layer_plan(dims)
    out = {"gnn.macs_per_forward": lb.gnn.mac_count(
        config.m_users, config.n_antennas, dims).total_hoisted}
    for bits in (8, 16):
        cfg = config.accel_config(bits=bits)
        for m in (1, 2, 4, 8):
            out[f"accel.modeled_ms.int{bits}_m{m}"] = \
                lb.accel.latency_model(dims, m, cfg).total_ms
        out[f"accel.weight_bytes.int{bits}"] = sum(
            lb.accel.layer_bytes(s.fan_in, s.fan_out, bits)["weights"]
            for s in plan)
    out["accel.bias_bytes"] = sum(
        lb.accel.layer_bytes(s.fan_in, s.fan_out, 8)["bias"] for s in plan)
    return out


def layer_metrics(tracer, session, computed: dict, k_sats: int,
                  traced_throughput: float) -> dict:
    """Per-layer metrics from a traced run's spans and counts."""
    summary = tracer.summary()
    fn, counts = summary["functions"], tracer.counts
    m = {f"{mod}.self_s": own for mod, own in summary["modules"].items()}
    for name in ("channel.sample_channel_batch", "train.adam_step",
                 "train.infer_beamformers", "train.infer_batch",
                 "beamform.mrt_local", "beamform.zf_local",
                 "beamform.mmse_local", "beamform.zf_global",
                 "beamform.mmse_global", "beamform.wsr",
                 "accel.quantized_forward", "accel.quantize",
                 "accel.sa_gemm", "accel.latency_model", "cli.main"):
        m[f"{name}.calls"] = fn[name]["calls"]
        m[f"{name}.busy_s"] = fn[name]["busy_s"]
    for name in ("train.save_checkpoint", "train.load_checkpoint",
                 "svgplot.line_plot"):
        m[f"{name}.busy_s"] = fn[name]["busy_s"]
    for name in ("train.train", "experiments.run_train",
                 "experiments.run_sweep", "experiments.run_quant_compare",
                 "experiments.run_latency", "cli.main"):
        m[f"{name}.self_s"] = fn[name]["self_s"]
    for name in ("channel.sample_channel_batch.samples",
                 "train.infer_batch.rows", "accel.sa_gemm.macs",
                 "cli.main.nonzero_exits"):
        m[name] = counts[name]
    m["beamform.singular_errors"] = counts["beamform.errors"]
    m["accel.capacity_errors"] = counts["accel.errors"]
    saves = fn["train.save_checkpoint"]["calls"]
    m["train.checkpoint_bytes"] = (counts["train.checkpoint_bytes"] / saves
                                   if saves else 0)
    m["experiments.compute_beams.calls"] = fn["experiments.compute_beams"][
        "calls"]
    m["experiments.csv_bytes"] = session.csv_bytes
    m.update(computed)
    forwards = fn["accel.quantized_forward"]["calls"]
    m["accel.sa_gemm.modeled_cycles_per_forward"] = (
        counts["accel.sa_gemm.modeled_cycles"] / forwards if forwards else 0)
    # computed rates: forward MACs only (backward passes are not counted)
    # per second of engine time; host seconds per MAC on the modeled array
    rows = (counts["train.train.forward_rows"]
            + counts["train.infer_batch.rows"]
            + fn["train.infer_beamformers"]["calls"])
    engine_s = (fn["train.train"]["self_s"] + fn["train.infer_batch"]["busy_s"]
                + fn["train.infer_beamformers"]["busy_s"])
    m["train.engine_gmacs_per_s"] = (
        computed["gnn.macs_per_forward"] * k_sats * rows / engine_s / 1e9
        if engine_s else 0)
    macs = counts["accel.sa_gemm.macs"]
    m["accel.host_s_per_modeled_mac"] = (
        fn["accel.quantized_forward"]["busy_s"] / macs if macs else 0)
    m["trace.throughput_per_s"] = traced_throughput
    m["trace.spans"] = len(tracer)
    m["trace.overhead_s"] = len(tracer) * tracer.span_cost()
    return m


def untraced_reference(workload: str, seed: int, fingerprint: dict):
    """Newest untraced result of the same workload, seed and fingerprint."""
    folder = os.path.join(OUT, "results")
    best = None
    for name in os.listdir(folder):
        with open(os.path.join(folder, name)) as fh:
            res = json.load(fh)
        if (res["workload"], res["seed"], res["trace"],
                res["fingerprint"]) == (workload, seed, 0, fingerprint):
            if best is None or res["finished"] > best["finished"]:
                best = res
    return best


def main() -> int:
    args = parse_args()
    lb = load_leobeam()
    import env
    import numpy as np
    import spans
    from workloads import WORKLOADS, Session

    logging.basicConfig(level=logging.WARNING)
    import_s = time.perf_counter() - _START
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    fingerprint = env.fingerprint(ROOT, os.path.join(SRC, "leobeam"))

    run_dir = os.path.join(
        OUT, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    session = Session(lb, ROOT, run_dir, args.seed)
    computed = computed_counts(lb, session.config())
    if args.trace:
        session.tracer = spans.Tracer(lb)
    workload = WORKLOADS[args.workload](session)

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)

    start = time.perf_counter()
    deadline = start + args.seconds
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        workload.round()
        rounds += 1
    window_s = time.perf_counter() - start
    with session.untraced():
        workload.finish()
    if session.tracer:
        session.tracer.close()

    try:
        result = workload.metrics()
    except (TypeError, ValueError) as exc:
        for line in session.failures[:20]:
            print(f"failed: {line}", file=sys.stderr)
        die(f"no metrics: every operation of a kind failed ({exc})")
    setup_s = import_s + statistics.median(setups)
    report = [("setup_s", setup_s, "s",
               f"imports {import_s:.3f} s + median of {SETUP_REPEATS} "
               f"set-ups {[round(s, 4) for s in setups]}")]
    if args.trace:
        metrics = layer_metrics(session.tracer, session, computed,
                                workload.config.k_sats,
                                result["throughput_per_s"])
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"setup_s": setup_s, "peak_rss_mb": rss_mb,
                   "throughput_per_s": result["throughput_per_s"],
                   "ops_per_s": result["ops_per_s"],
                   "mean_wsr_bps": result["mean_wsr_bps"]}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        die(f"metrics missing from this run: {missing}")
    failed = len(session.failures)
    correct = failed == 0

    print(f"leobeam benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={rounds} "
          f"window={window_s:.2f} s")
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    for name, value, unit, note in report + result["report"]:
        print(f"  {name} = {value!r} {unit}  ({note})")
    op_stats = {label: {"n": len(times), **{
        f"p{q}_ms": float(np.percentile(times, q)) * 1e3
        for q in OP_QUANTILES}} for label, times in session.times.items()}
    for label, stats in op_stats.items():
        print(f"  operation '{label}': " + " ".join(
            f"{k}={v:.6g}" for k, v in stats.items()))
    print(f"  error_rate = {failed}/{session.attempted} = "
          f"{failed / session.attempted!r}")
    for note in sorted(session.notes):
        print(f"  known deviation: {note}")
    for line in session.failures[:20]:
        print(f"  FAILED {line}")
    units = {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        tag = "  [computed]" if m["name"].startswith(COMPUTED) else ""
        print(f"  {m['name']} = {metrics[m['name']]!r} {m['unit']}{tag}")

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    finished = time.time()
    if args.trace:
        trace_path = os.path.join(OUT, "traces",
                                  f"{args.workload}-seed{args.seed}.npz")
        session.tracer.write(trace_path)
        print(f"  spans: {len(session.tracer)} written to {trace_path}; "
              f"they add about {metrics['trace.overhead_s']:.3f} s, "
              f"{metrics['trace.overhead_s'] / window_s:.2%} of the window")
        ref = untraced_reference(args.workload, args.seed, fingerprint)
        if ref:
            base, traced = (ref["metrics"]["throughput_per_s"],
                            result["throughput_per_s"])
            print(f"  tracing overhead: {1 - traced / base:.1%} lower "
                  f"throughput_per_s traced ({traced!r}) than untraced "
                  f"({base!r}, same seed)")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "finished": finished, "fingerprint": fingerprint,
              "correct": correct, "attempted": session.attempted,
              "failed": failed, "failures": session.failures,
              "notes": sorted(session.notes), "rounds": rounds,
              "report": [list(r) for r in report + result["report"]],
              "operations": op_stats,
              "metrics": metrics}
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{int(finished * 1000)}.json")
    with open(os.path.join(OUT, "results", name), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    print(json.dumps({
        "correct": correct, "attempted": session.attempted, "failed": failed,
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
