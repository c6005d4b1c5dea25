#!/usr/bin/env python3
"""Build and run the eunomia benchmark from a source checkout.

One run:

    python3 perfbench/run.py --workload geo3-sim --seed 1 --seconds 20 --trace 0

builds perfbench/ and cmd/eunomia-server into .bench_build/ (Go build
cache included, so nothing is written outside the checkout), runs one
workload and passes its output through: report lines starting with '#',
then one JSON result line.

Steadiness (K seeded runs of one workload, with quartiles and spread):

    python3 perfbench/run.py --steady 10 --workload tcp2-http --seconds 20 --save a.json
    python3 perfbench/run.py --compare a.json b.json
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BIN = BUILD / "bin"


def go_env():
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        env[var] = str(BUILD / sub)
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    env.update(GOENV="off", GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off",
               GOFLAGS="-mod=mod", GOTELEMETRY="off", CGO_ENABLED="0")
    return env


def build(env):
    """Build both binaries; exit non-zero without a result on failure."""
    if not (ROOT / "go.mod").is_file():
        sys.exit("perfbench: no go.mod at %s; run from a source checkout" % ROOT)
    steps = (
        (HERE, ["go", "build", "-o", str(BIN / "perfbench"), "."]),
        (ROOT, ["go", "build", "-o", str(BIN / "eunomia-server"), "./cmd/eunomia-server"]),
    )
    for cwd, cmd in steps:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit("perfbench: build failed: %s" % " ".join(cmd))


def run_once(env, workload, seed, seconds, trace, capture):
    cmd = [str(BIN / "perfbench"), "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds), "-trace", str(trace),
           "-work", str(BUILD / "work"), "-server", str(BIN / "eunomia-server")]
    if not capture:
        child = subprocess.Popen(cmd, cwd=ROOT, env=env)
        # Pass a termination on, so the workload still stops its servers.
        signal.signal(signal.SIGTERM, lambda *_: child.terminate())
        return child.wait()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("perfbench: %s seed %d failed" % (workload, seed))
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    # Keep why operations failed: a failure in a steadiness set is a
    # finding, and the run's report is otherwise not kept.
    res["reasons"] = [l for l in lines if l.startswith("#   failed")]
    return res


def bounds():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def spread(values):
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steady(env, args):
    runs = []
    for i in range(args.steady):
        seed = args.seed + i
        res = run_once(env, args.workload, seed, args.seconds, args.trace, True)
        runs.append(res)
        vals = " ".join("%s=%.4g" % (k, v["value"]) for k, v in sorted(res["metrics"].items()))
        print("seed %d: attempted=%d failed=%d %s" % (seed, res["attempted"], res["failed"], vals), flush=True)
        for line in res["reasons"]:
            print("   " + line, flush=True)
    table = {}
    for name in runs[0]["metrics"]:
        table[name] = [r["metrics"][name]["value"] for r in runs]
    bnd = bounds()
    print("%-34s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, values in sorted(table.items()):
        med, q1, q3, sp = spread(values)
        b = bnd.get(name)
        flag = "" if b is None or sp <= b / 3 else "  > bound/3"
        print("%-34s %12.5g %12.5g %12.5g %8.4f %6s%s" % (name, med, q1, q3, sp, b, flag))
    if args.save:
        Path(args.save).write_text(json.dumps({"workload": args.workload, "values": table}))


def compare(paths):
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    bnd = bounds()
    print("%-34s %12s %12s %9s %6s" % ("metric", "median A", "median B", "B vs A", "bound"))
    for name in sorted(a["values"]):
        ma, mb = statistics.median(a["values"][name]), statistics.median(b["values"][name])
        change = (mb - ma) / ma if ma else 0.0
        print("%-34s %12.5g %12.5g %+8.2f%% %6s" % (name, ma, mb, 100 * change, bnd.get(name)))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--steady", type=int, metavar="K", help="run K seeds from --seed and report spreads")
    ap.add_argument("--save", help="with --steady: write the values to this file")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two --save files")
    args = ap.parse_args()
    if args.compare:
        compare(args.compare)
        return
    if not args.workload:
        ap.error("--workload is required")
    env = go_env()
    build(env)
    if args.steady:
        steady(env, args)
        return
    sys.exit(run_once(env, args.workload, args.seed, args.seconds, args.trace, False))


if __name__ == "__main__":
    main()
