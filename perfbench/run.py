#!/usr/bin/env python3
"""Build and run the appliance benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bulk-get --seed 1 --seconds 10 --trace 0

The benchmark is compiled from this checkout's sources on every run
(incrementally, with a build cache kept in .perfbench/ at the checkout
root), so it always measures the code beside it. Everything the build and
the run write stays under .perfbench/. The last line of stdout is the JSON
result; see perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ["bulk-get", "small-ops", "localfs-mixed"]


def build_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=str(STATE / "gocache"),
        GOPATH=str(STATE / "gopath"),
        GOMODCACHE=str(STATE / "gopath" / "pkg" / "mod"),
        GOTMPDIR=str(STATE / "tmp"),
        XDG_CONFIG_HOME=str(STATE / "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOTELEMETRY="off",
        GOENV="off",
        GOPROXY="off",
    )
    return env


def build():
    for d in ("gocache", "gopath", "tmp", "config", "bin"):
        (STATE / d).mkdir(parents=True, exist_ok=True)
    out = STATE / "bin" / "perfbench"
    proc = subprocess.run(
        ["go", "build", "-o", str(out), "."],
        cwd=HERE,
        env=build_env(),
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=850,
    )
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--localfs-dir", help="LocalFS data directory for manual runs "
                    "(default: .perfbench/work in the checkout)")
    args = ap.parse_args()
    if not (ROOT / "go.mod").is_file():
        sys.exit("perfbench: no appliance sources beside the benchmark (go.mod missing)")

    binary = build()
    work = Path(args.localfs_dir).resolve() / "perfbench-work" if args.localfs_dir else STATE / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [
                str(binary),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--workdir", str(work),
            ],
            cwd=ROOT,
            timeout=170,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
