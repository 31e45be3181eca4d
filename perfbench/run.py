"""p2models benchmark: one run of one workload, or a steadiness check.

Run from the root of a checkout:

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --steady 10 --seconds 30       # every workload
    python3 perfbench/run.py --steady 2 --workload ambient-p5 --trace 1

A run starts every step in a fresh interpreter (`worker.py`), one at a
time, on one thread, with P2MODELS_THREADS removed from the environment.
With `--trace 0` it times SETUP_SAMPLES set-ups, then whole timed passes
for as long as one more pass of the average length still ends within
`--seconds` (at least one pass), and prints the end-to-end metrics.  With
`--trace 1` it makes one untraced and one traced pass and prints the
per-layer metrics, the traced pass's wall time and the overhead of
tracing; the aggregated spans go to .bench_out/.  The last line of
standard output is the result as one JSON object.

`--steady N` makes N runs of each workload with seeds 1..N and prints
the median and quartiles of every metric, the spread against the bound
in BENCHMARK.json, and, for traced runs, whether the call counts were
identical.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ["battery", "ambient-p5", "witt-kernel-p3"]
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170          # a run ends within this, passes included


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("P2MODELS_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(workload, seed, mode, trace, deadline) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--trace", str(trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} step")
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} step of {workload} ran out of time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} step of {workload} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    if Path(out["package"]).resolve() != (SRC / "p2models" / "__init__.py").resolve():
        raise BenchError(f"imported p2models from {out['package']}, "
                         f"not from {SRC}")
    return out


def _summary(passes):
    return {"attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "correct": all(p["correct"] for p in passes)}


def _report_problems(passes):
    for p in passes:
        for msg in p["problems"] + p["errors"]:
            print(f"problem: {msg}", file=sys.stderr)


def run_once(workload, seed, seconds, trace) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        plain = call_worker(workload, seed, "pass", 0, deadline)
        traced = call_worker(workload, seed, "pass", 1, deadline)
        setups, passes = [], [plain, traced]
        metrics = dict(traced["layer"])
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{workload}-seed{seed}.json", "w") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "untraced_wall_s": plain["wall_s"],
                       "traced_wall_s": traced["wall_s"],
                       "spans": traced["spans"]}, fh, indent=1)
        units = {name: unit
                 for name, unit, _ in tracing.per_layer_metric_names()}
    else:
        setups = [call_worker(workload, seed, "setup", 0, deadline)
                  for _ in range(SETUP_SAMPLES)]
        passes = []
        start = time.monotonic()
        # whole passes only: another starts while one more of the average
        # length still ends within --seconds
        while not passes or (time.monotonic() - start) * (
                len(passes) + 1) / len(passes) <= seconds:
            passes.append(call_worker(workload, seed, "pass", 0, deadline))
        setups += passes
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "ops_per_s": statistics.median(
                p["passed"] / p["wall_s"] for p in passes),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        units = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
                 "peak_rss_mb": "MB"}
    _report_problems(passes)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({
            "workload": workload, "seed": seed, "trace": trace,
            "setup_s": [s["setup_s"] for s in setups],
            "setup_raw_s": [s["setup_raw_s"] for s in setups],
            "wall_s": [p["wall_s"] for p in passes],
            "wall_raw_s": [p["wall_raw_s"] for p in passes]}) + "\n")
    result = _summary(passes)
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in metrics.items()}
    return result


# ---------------------------------------------------------------------------
# steadiness check
# ---------------------------------------------------------------------------

def steady(workloads, runs, seconds, trace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    ok = True
    for wl in workloads:
        results = []
        for seed in range(1, runs + 1):
            t0 = time.monotonic()
            res = run_once(wl, seed, seconds, trace)
            results.append(res)
            print(f"{wl} seed {seed}: {time.monotonic() - t0:.1f} s, "
                  f"attempted {res['attempted']}, failed {res['failed']}, "
                  f"correct {res['correct']}", flush=True)
        names = set(results[0]["metrics"])
        if names != set(bounds):
            print(f"  metrics {sorted(names ^ set(bounds))} differ from "
                  "BENCHMARK.json")
            ok = False
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"== {wl}: {runs} runs, failed share {sorted(shares)}, "
              f"all correct {all(r['correct'] for r in results)}")
        ok &= len(shares) == 1 and all(r["correct"] for r in results)
        if trace:
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if k.endswith(".calls")} for r in results]
            same = all(c == counts[0] for c in counts)
            print(f"  *.calls identical across runs: {same}")
            ok &= same
            for name in ("trace.wall_s", "trace.overhead_s"):
                vals = [r["metrics"][name]["value"] for r in results]
                print(f"  {name:24s} median {statistics.median(vals):.4f}")
            continue
        for name in sorted(names):
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = vals[0]
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            # the spread of setup_s has no limit, only its median's drift
            over = bound is not None and name != "setup_s" and spread > bound
            ok &= not over
            print(f"  {name:12s} median {med:.4f} {unit:4s} q1 {q1:.4f} "
                  f"q3 {q3:.4f} spread {spread:.3f} bound {bound}"
                  + ("  OVER" if over else ""))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="N",
                    help="N runs of each workload; print medians and spread")
    args = ap.parse_args(argv)
    if not (SRC / "p2models" / "__init__.py").is_file():
        print(f"error: no p2models package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.steady:
            wls = [args.workload] if args.workload else WORKLOADS
            return steady(wls, args.steady, args.seconds, args.trace)
        if not args.workload:
            ap.error("--workload is required without --steady")
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
