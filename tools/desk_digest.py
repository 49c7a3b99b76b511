"""SHA-256 digests of every desk-scale artifact the CLI writes.

Runs, through `leobeam.cli.main` into a temporary directory and on
`configs/desk.ini --seed 7`: `train --epochs 2` and `train --pooled
--epochs 1`, then with those checkpoints `eval --schemes
gnn_global,mmse_global`, `eval` (with `gnn_local`), a `p_dbw` sweep over
-10..10 dB (with `gnn_local`), the same sweep under the `pooled` policy
with `gnn_global` and `mmse_global`, a `k_sats` sweep over 1..4 under the
`split` policy, `quant` and `latency`.  Prints one `sha256  path` line per
artifact, paths relative to the run directory.
Two checkouts that print the same lines write byte-identical artifacts on
this machine, so comparing a change against its parent is one `diff`:

    PYTHONPATH=src python tools/desk_digest.py > change.txt
    PYTHONPATH=../parent/src python tools/desk_digest.py > parent.txt
    diff parent.txt change.txt

Needs only the standard library and `leobeam`, imported from the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from leobeam import cli

DESK = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs",
    "desk.ini"))

POOLED = ["--schemes", "gnn_global,mmse_global"]
POWERS = ["--variable", "p_dbw", "--values=-10,-5,0,5,10"]

# (subcommand and its own flags, subdirectory its CSV and SVG artifacts move
# to so that a later run of the same subcommand keeps them; None: they stay)
RUNS = [
    (["train", "--epochs", "2"], None),
    (["train", "--pooled", "--epochs", "1"], None),
    (["eval", *POOLED], "eval_pooled"),
    (["eval"], None),
    (["sweep", *POWERS], "p_dbw"),
    (["sweep", *POWERS, "--policy", "pooled", *POOLED], "p_dbw_pooled"),
    (["sweep", "--variable", "k_sats", "--values=1,2,3,4", "--policy",
      "split"], "k_sats"),
    (["quant"], None),
    (["latency"], None),
]
ARTIFACTS = {"eval": ("eval.csv", "eval_summary.csv"),
             "sweep": ("sweep.csv", "sweep.svg")}


def _run(argv) -> None:
    # the commands' own stdout would interleave with the digests
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"leobeam {' '.join(argv)} exited {code}")


def run_all(out: str) -> None:
    shared = ["--config", DESK, "--seed", "7", "--out", out]
    for (command, *extra), subdir in RUNS:
        _run([command, *shared, *extra])
        if subdir is not None:
            os.makedirs(os.path.join(out, subdir))
            for name in ARTIFACTS[command]:
                os.replace(os.path.join(out, name),
                           os.path.join(out, subdir, name))


def digests(root: str):
    """(sha256, relative path) of every file under root, sorted by path."""
    out = []
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out.append((hashlib.sha256(fh.read()).hexdigest(),
                            os.path.relpath(path, root)))
    return sorted(out, key=lambda pair: pair[1])


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="desk_digest_") as out:
        run_all(out)
        for digest, path in digests(out):
            print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
