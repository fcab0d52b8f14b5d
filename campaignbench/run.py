"""Campaign benchmark: cold batches of three slices of the evaluation.

Run from the repository root::

    python3 campaignbench/run.py --workload {stencil,overlap,ml} \\
        --seed N --seconds S --trace {0,1}

Each batch is one fresh interpreter (``batch.py``) that runs the
workload's whole spec list once, serially, into an empty result cache.
The run repeats batches, each with a spec order drawn from ``--seed``,
while the next one still fits in ``--seconds`` (at least one), then
reports medians (and the largest peak memory).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced batches and
prints the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The last stdout line is the JSON result; the run
record (batches, host calibration, metrics) goes to
``.campaignbench/run-<workload>-trace<t>.json``.  See README.md.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".campaignbench"
#: A batch that outlives this is killed and the run fails.
BATCH_TIMEOUT_S = 170


def calibrate():
    """Best of three timings of a fixed pure-Python loop [s].

    Host context recorded next to the results, not a gated metric:
    dividing a host-time metric by it lets two hosts compare as ratios.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best


def run_batch(workload, seed, trace):
    """One batch in a fresh interpreter; returns its JSON record."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "batch.py"), "--workload", workload,
           "--seed", str(seed)] + (["--trace"] if trace else [])
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=BATCH_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"batch {workload} seed {seed} exited "
                 f"{proc.returncode} without a result")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"no repro source tree under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    calibration_s = calibrate()
    rng = random.Random(args.seed)
    untraced, traced = [], []
    while True:
        t0 = time.monotonic()
        # Pairs of batches run one shuffled order and its reverse, so
        # every point runs once early and once late (peak memory depends
        # on the order).
        batch_seed = (rng.randrange(2 ** 30) * 2 if len(untraced) % 2 == 0
                      else batch_seed + 1)
        untraced.append(run_batch(args.workload, batch_seed, False))
        if args.trace:
            traced.append(run_batch(args.workload, batch_seed, True))
        now = time.monotonic()
        if now - start + (now - t0) > args.seconds:
            break

    batches = untraced + traced
    digests = {b["digest"] for b in batches}
    attempted = sum(b["points"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    correct = (failed == 0 and len(digests) == 1
               and all(b["digest_ok"] for b in batches))

    def median(records, key):
        return statistics.median(r[key] for r in records)

    if args.trace:
        layered = [b for b in traced if "layers" in b]
        if not layered:
            sys.exit("no traced batch completed; see the errors above")
        values = {k: statistics.median(b["layers"][k] for b in layered)
                  for k in layered[0]["layers"]}
        values["trace.overhead_ratio"] = (median(traced, "wall_s")
                                          / median(untraced, "wall_s"))
    else:
        values = {k: median(untraced, k) for k in ("wall_s", "setup_s")}
        values["peak_rss_mb"] = max(b["peak_rss_mb"] for b in untraced)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"metrics not measured: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    print(f"campaignbench {args.workload}: seed {args.seed}, "
          f"{len(untraced)} untraced + {len(traced)} traced batch(es), "
          f"{attempted} points")
    print(f"host calibration_s {calibration_s:.4f} s (pure-Python loop, "
          f"best of 3; context, not gated)")
    if not args.trace:
        for key in ("wall_s", "setup_s", "peak_rss_mb"):
            q1, q3 = quartiles([b[key] for b in untraced])
            stat = "max" if key == "peak_rss_mb" else "median"
            print(f"{key:<12} {metrics[key]['value']:12.4f} "
                  f"{metrics[key]['unit']:<3} {stat} [q1 {q1:.4f}, "
                  f"q3 {q3:.4f}] of {len(untraced)}")
    else:
        for name, m in metrics.items():
            print(f"{name:<26} {m['value']:16.6f} {m['unit']}")
    print(f"failed_frac  {failed / attempted:12.4f} ratio ({failed} of "
          f"{attempted} points failed)")
    verdict = "expected" if correct else "MISMATCH"
    print(f"digest {' '.join(sorted(map(str, digests)))} over "
          f"{len(batches)} batch seeds: {verdict}")

    WORK.mkdir(exist_ok=True)
    record = dict(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  calibration_s=calibration_s, failed_frac=failed / attempted,
                  untraced=untraced,
                  traced=[{k: v for k, v in b.items() if k != "layers"}
                          for b in traced],
                  metrics=metrics)
    (WORK / f"run-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
