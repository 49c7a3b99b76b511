"""Summarize or compare sets of benchmark results.

    python3 bench/compare.py RESULTS            # spread of one set
    python3 bench/compare.py BASE NEW           # NEW against BASE

RESULTS, BASE and NEW are result files or directories of them, as written
by bench/run.py to .bench_out/results/.  For each workload and metric it
prints the median, the quartiles and the spread, (q3 - q1) / median, next to
the metric's bound from BENCHMARK.json.  Against a base it prints the change
of the median as a share of the base median, positive when better, and
calls it a regression when it is worse by more than the bound; a metric
whose base spread exceeds its bound is reported as unresolved.  Results
whose environment fingerprints differ are refused: numbers from different
Python/numpy/BLAS/CPU builds are not comparable.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> list[dict]:
    files = ([os.path.join(path, n) for n in sorted(os.listdir(path))
              if n.endswith(".json")] if os.path.isdir(path) else [path])
    out = []
    for name in files:
        with open(name) as fh:
            out.append(json.load(fh))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def table(results: list[dict]) -> dict:
    """{(workload, trace): {metric: [values]}}."""
    groups: dict = {}
    for res in results:
        metrics = groups.setdefault((res["workload"], res["trace"]), {})
        for name, value in res["metrics"].items():
            metrics.setdefault(name, []).append(float(value))
    return groups


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(path) for path in argv]
    envs = {json.dumps(r["fingerprint"]["env"], sort_keys=True)
            for results in sets for r in results}
    if len(envs) != 1:
        print("refused: the results come from different environments:",
              file=sys.stderr)
        for env in sorted(envs):
            print("  " + env, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for results in sets:
        bad = [r for r in results if not r["correct"]]
        print(f"{len(results)} results, {len(bad)} not correct; code "
              + ", ".join(sorted({r["fingerprint"]["code"]["src_sha256"]
                                  for r in results})))
    base = table(sets[0])
    new = table(sets[-1]) if len(sets) == 2 else None
    worst = 0
    for key in sorted(base):
        print(f"\n{key[0]} (trace={key[1]})")
        for name, values in base[key].items():
            meta = declared.get(name, {})
            bound = meta.get("bound")
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            line = (f"  {name:44s} n={len(values):2d} median={median:.6g} "
                    f"q1={q1:.6g} q3={q3:.6g} spread={spread:.2%}")
            if bound is not None:
                line += f" bound={bound:.0%}"
            if new is None:
                if bound is not None and name != "setup_s" and spread > bound:
                    line += "  SPREAD OVER BOUND"
                    worst = 1
                print(line)
                continue
            other = new.get(key, {}).get(name)
            if not other:
                print(line + "  (absent from NEW)")
                continue
            _, new_median, _ = quartiles(other)
            sign = 1 if meta.get("better") == "higher" else -1
            change = sign * (new_median - median) / median if median else 0.0
            verdict = ""
            if bound is not None:
                if spread > bound:
                    verdict = "unresolved (base spread over bound)"
                elif change < -bound:
                    verdict = "REGRESSION"
                    worst = 1
                else:
                    verdict = "within bound"
            print(f"{line} new={new_median:.6g} change={change:+.2%} "
                  f"{verdict}")
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
