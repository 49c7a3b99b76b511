"""Command line front end.

Subcommands: train, eval, sweep, quant, latency.  Exit codes: 0 success,
2 configuration problem, 3 numeric failure (non-finite beams, or a
non-finite number bound for a CSV, included), 4 missing or unusable input
artifact (absent, truncated, malformed, or fit for other antennas).  Each
failure prints one line to stderr; `main` turns numpy's floating-point
warnings off, since they would precede it.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from . import accel, beamform, experiments, gnn, train


def _add_shared(parser, repeated: bool) -> None:
    # On subparsers the defaults are SUPPRESS so a flag given after the
    # subcommand overrides one given before it, and an absent flag leaves
    # the value the root parser already put in the namespace.
    miss = argparse.SUPPRESS
    parser.add_argument("--config", metavar="FILE",
                        default=miss if repeated else None,
                        help="INI config file (defaults apply when omitted)")
    parser.add_argument("--seed", type=int,
                        default=miss if repeated else None,
                        help="override run.seed")
    parser.add_argument("--out", metavar="DIR",
                        default=miss if repeated else None,
                        help="output directory (precedence: this flag, "
                             "run.out_dir, $LEOBEAM_OUT_DIR, ./leobeam_out)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        default=miss if repeated else False,
                        help="debug logging")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="leobeam",
        description="Multi-satellite downlink beamforming simulator")
    _add_shared(p, repeated=False)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train the beamforming network")
    _add_shared(t, repeated=True)
    t.add_argument("--epochs", type=int, help="override train.epochs")
    t.add_argument("--pooled", action="store_true",
                   help="train on the stacked single-transmitter system "
                        "(produces model_pooled.ckpt for gnn_global)")

    e = sub.add_parser("eval", help="evaluate schemes on a seeded ensemble")
    _add_shared(e, repeated=True)
    e.add_argument("--schemes", help="comma list overriding run.schemes")
    e.add_argument("--size", type=int, help="override run.eval_size")

    s = sub.add_parser("sweep", help="sweep transmit power or satellite "
                                     "count")
    _add_shared(s, repeated=True)
    s.add_argument("--variable", choices=("p_dbw", "k_sats"), required=True)
    s.add_argument("--values", required=True,
                   help="comma separated sweep values")
    s.add_argument("--policy", choices=("fixed", "split", "pooled"),
                   default="fixed")
    s.add_argument("--schemes", help="comma list overriding run.schemes")
    s.add_argument("--size", type=int, help="samples per sweep point")

    q = sub.add_parser("quant", help="compare float and fixed-point "
                                     "inference")
    _add_shared(q, repeated=True)
    q.add_argument("--size", type=int, help="override run.quant_size")

    lat = sub.add_parser("latency", help="tabulate modeled inference "
                                         "latency")
    _add_shared(lat, repeated=True)
    lat.add_argument("--m-list", dest="m_list",
                     help="comma list of user counts")
    lat.add_argument("--bits", help="comma list of bit widths (default 8,16)")
    return p


def _parse_list(text, kind: str, flag: str):
    """A comma list flag read with the config's casters (ConfigError, so
    exit 2, on a bad entry); None when the flag is absent."""
    if text is None:
        return None
    return experiments.parse_setting(text, f"tuple[{kind}, ...]", flag)


@np.errstate(all="ignore")
def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        overrides = {}
        if args.seed is not None:
            overrides[("run", "seed")] = str(args.seed)
        if getattr(args, "epochs", None) is not None:
            overrides[("train", "epochs")] = str(args.epochs)
        config = experiments.load_config(args.config, overrides or None)
        out_dir = experiments.resolve_out_dir(config, args.out)

        if args.command == "train":
            result, path = experiments.run_train(config, out_dir,
                                                 pooled=args.pooled)
            tag = " (early stop)" if result.stopped_early else ""
            print(f"trained {len(result.history)} epochs{tag}; best test "
                  f"WSR {result.best_test_wsr!r} b/s at epoch "
                  f"{result.best_epoch}")
            print(f"checkpoint: {path}")
        elif args.command == "eval":
            schemes = _parse_list(args.schemes, "str", "--schemes")
            summary = experiments.run_eval(config, out_dir, schemes=schemes,
                                           size=args.size)
            for scheme, (mean, std) in summary.items():
                print(f"{scheme:12s} mean WSR {mean:.6e} b/s  "
                      f"std {std:.3e}")
            print(f"artifacts: {out_dir}/eval.csv, eval_summary.csv")
        elif args.command == "sweep":
            values = _parse_list(args.values, "float", "--values")
            schemes = _parse_list(args.schemes, "str", "--schemes")
            experiments.run_sweep(config, out_dir, args.variable, values,
                                  policy=args.policy, schemes=schemes,
                                  size=args.size)
            print(f"artifacts: {out_dir}/sweep.csv, sweep.svg")
        elif args.command == "quant":
            summary = experiments.run_quant_compare(config, out_dir,
                                                    size=args.size)
            print(f"float  mean WSR {summary['float']:.6e} b/s")
            print(f"int8   mean WSR {summary['int8']:.6e} b/s "
                  f"(ratio {summary['ratio8']:.4f})")
            print(f"int16  mean WSR {summary['int16']:.6e} b/s "
                  f"(ratio {summary['ratio16']:.4f})")
            print(f"artifacts: {out_dir}/quant.csv, quant_summary.csv")
        elif args.command == "latency":
            m_list = _parse_list(args.m_list, "int", "--m-list")
            bits = _parse_list(args.bits, "int", "--bits") or (8, 16)
            totals = experiments.run_latency(config, out_dir, m_list=m_list,
                                             bits_list=bits)
            for (b, m), ms in sorted(totals.items()):
                print(f"{b:2d}-bit  M={m:<3d} {ms:.4f} ms")
            print(f"artifacts: {out_dir}/latency.csv, latency_layers.csv")
        return 0
    except experiments.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (train.TrainingDivergedError, gnn.GnnNumericError,
            accel.CapacityError, beamform.SingularChannelError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except experiments.MissingArtifactError as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return 4
    except gnn.ArtifactError as exc:
        print(f"unreadable artifact: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
