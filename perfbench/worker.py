"""One step of the benchmark in a fresh interpreter: a set-up or a pass.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|pass
                                [--trace 0|1]

`run.py` starts this with `src/` on PYTHONPATH, so the p2models under
test is the one in the checkout.  Set-up time runs from before the first
import of p2models to the end of the workload's ring construction.  A
pass then times the workload's operations, and after the timer stops
checks every output and the negative controls.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys

from probe import SpeedProbe

SETUP_PROBE_S = 0.005
PASS_PROBE_S = 0.02


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "pass"], required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    with SpeedProbe(SETUP_PROBE_S) as setup:
        import workloads
        wl = workloads.WORKLOADS[args.workload]
        ctx = wl.setup()
    out = {"setup_s": setup.reference_s, "setup_raw_s": setup.wall,
           "package": sys.modules["p2models"].__file__}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    rng = random.Random(args.seed)
    try:
        with SpeedProbe(PASS_PROBE_S) as timed:
            ops = wl.run(ctx, rng)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems = wl.check(ctx, ops)
    for name, recs in wl.controls(ctx, ops).items():
        if not wl.check(ctx, recs):
            problems.append((0, f"negative control {name} was not rejected"))
    attempted = sum(op.count for op in ops)
    failed = sum(op.count for op in ops if op.error is not None)
    wrong = sum(count for count, _ in problems)
    out.update({
        "wall_s": timed.reference_s,
        "wall_raw_s": timed.wall,
        "attempted": attempted,
        "failed": failed,
        "passed": max(0, attempted - failed - wrong),
        "correct": not problems,
        "problems": [msg for _, msg in problems[:10]],
        "errors": [op.error for op in ops if op.error is not None][:10],
        "peak_rss_mb": peak_kb / 1024,
    })
    if tracer is not None:
        # span times in reference seconds, like the pass's own time
        out["layer"] = tracer.metrics(timed.scale)
        out["spans"] = tracer.span_table(timed.scale)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
