#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads bulk-get small-ops --seeds 1-10

Runs perfbench/run.py once per seed and workload, then reports, for every
end-to-end metric, the median of the runs and the spread: the distance
between the first and third quartile (Python's statistics.quantiles with
n=4) as a share of the median, against the metric's bound in
BENCHMARK.json. The table goes to stdout; every run's result and the
spreads are written to .perfbench/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["bulk-get", "small-ops", "localfs-mixed"])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    worst = 0.0
    for wl in args.workloads:
        runs = []
        for s in seeds(args.seeds):
            report, res = run_once(wl, s, seconds, 0)
            if not res["correct"] or res["failed"]:
                sys.exit(f"{wl} seed {s}: incorrect result {json.dumps(res)}\n{json.dumps(report)}")
            runs.append({"seed": s, "result": res, "fingerprint": report["fingerprint"],
                         "op_p99_us": report["untraced"]["op_p99_us"],
                         "class_profile": report["class_profile"]})
            print(f"  {wl} seed {s}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        table = {}
        print(f"{wl}: {len(runs)} runs of {seconds:g} s")
        print(f"  {'metric':18} {'median':>12} {'spread':>8} {'bound':>6} {'/3':>6}")
        for name in sorted(bounds):
            med, sp = spread([r["result"]["metrics"][name]["value"] for r in runs])
            table[name] = {"median": med, "spread": sp, "bound": bounds[name]}
            flag = "" if sp < bounds[name] / 3 else "  <-- above a third of its bound"
            worst = max(worst, sp / bounds[name])
            print(f"  {name:18} {med:12.5g} {sp:8.4f} {bounds[name]:6.3f} {bounds[name] / 3:6.3f}{flag}")
        p99 = [r["op_p99_us"]["value"] for r in runs if r["op_p99_us"]["reported"]]
        if len(p99) == len(runs):
            med, sp = spread(p99)
            table["op_p99_ms (per-layer)"] = {"median": med / 1e3, "spread": sp}
            print(f"  {'op_p99_ms':18} {med / 1e3:12.5g} {sp:8.4f}  (per-layer: no bound)")
        (out_dir / f"spread-{wl}.json").write_text(json.dumps({"runs": runs, "spread": table}, indent=1))
    print(f"worst spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()
