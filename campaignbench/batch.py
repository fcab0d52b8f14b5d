"""One cold batch of a campaign-benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per batch; it also runs by hand from
the repository root::

    python3 campaignbench/batch.py --workload stencil --seed 3 [--trace]

The batch builds the workload's spec list, shuffles its submission
order with ``--seed`` (seeds 2m and 2m+1 give one order and its
reverse), and runs it through ``repro.exec.run_specs`` with
the serial executor and a new, empty ``ResultCache``, so every point
simulates and writes its cache entry.  Results merge by submission
index; they are put back in canonical order before the digests are
taken, so the digests must not depend on the seed.  Every point is
checked (its in-process verification and its digest against
``expected.json``).  With ``--trace`` the layer entry points are wrapped
(``tracing.py``), the per-layer metrics are added and the spans are
written to ``.campaignbench/trace-<workload>.json``.  ``--record``
writes this batch's digests to ``expected.json`` instead of checking
them.  The last stdout line is one JSON object.
"""

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".campaignbench"
EXPECTED = HERE / "expected.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() when the parent started "
                             "this process (default: now)")
    args = parser.parse_args(argv)
    spawned_at = (args.spawned_at if args.spawned_at is not None
                  else time.monotonic())

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"repro imported from {repro.__file__}, not from {src}")
    import repro.exec
    from repro.exec import ResultCache, canonical_digest
    from workloads import build_specs, point_ok

    trace = None
    if args.trace:
        import tracing

        trace = tracing.Trace()
        tracing.install(trace)

    specs = build_specs(args.workload)
    order = list(range(len(specs)))
    random.Random(args.seed // 2).shuffle(order)
    if args.seed % 2:
        order.reverse()
    cache_dir = WORK / f"cache-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    marks = {}

    def on_event(event):
        if event.kind == "start":
            marks["dispatch"] = time.monotonic()

    error = None
    try:
        report = repro.exec.run_specs(
            [specs[i] for i in order], executor="serial",
            cache=ResultCache(cache_dir), on_event=on_event)
    except Exception:  # a raising point fails the batch; keep going
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shutil.rmtree(cache_dir, ignore_errors=True)

    out = {"workload": args.workload, "seed": args.seed,
           "points": len(specs), "failed": len(specs), "digest": None,
           "digest_ok": False, "error": error,
           "setup_s": marks.get("dispatch", end) - spawned_at,
           "wall_s": end - marks.get("dispatch", end),
           "peak_rss_mb": peak_rss_mb}
    if error is None:
        results = [None] * len(specs)
        for pos, idx in enumerate(order):
            results[idx] = report.results[pos]
        digests = {s.label: canonical_digest(r)
                   for s, r in zip(specs, results)}
        out["digest"] = canonical_digest(results)
        if args.record:
            if len(digests) != len(specs) or not all(map(point_ok, results)):
                sys.exit("labels are not unique or a point failed its "
                         "check; not recording")
            _record(args.workload, out["digest"], digests)
        expected = json.loads(EXPECTED.read_text())[args.workload]
        out["failed"] = sum(
            1 for s, r in zip(specs, results)
            if not point_ok(r) or digests[s.label] != expected["points"]
            .get(s.label))
        out["digest_ok"] = out["digest"] == expected["digest"]
        if trace is not None:
            out["layers"] = trace.metrics()
            WORK.mkdir(exist_ok=True)
            dump = dict(workload=args.workload, seed=args.seed,
                        digest=out["digest"], **trace.dump())
            (WORK / f"trace-{args.workload}.json").write_text(
                json.dumps(dump) + "\n")
    print(json.dumps(out))


def _record(workload, digest, digests):
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    table[workload] = {"digest": digest, "points": digests}
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
