#!/usr/bin/env python3
"""Runs one workload of the tsdtw benchmark and prints its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the two benchmark binaries from
source (into $CARGO_TARGET_DIR, default .bench_build), then runs the
workload in a process of its own:

  --trace 0  the untraced binary; prints the end-to-end metrics.
  --trace 1  the untraced binary, then the traced one, each measuring
             half the time; prints the per-layer metrics of the traced run
             plus trace.overhead_frac, and writes the traced run's span
             table (count, total and self time per span) to
             <target dir>/perfbench/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Build logs and run details go to
standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("nn-classify", "subseq-search", "align")
BINARIES = (("tsdtw-perfbench", "perfbench"), ("tsdtw-perfbench-traced", "perfbench-traced"))
# One workload process may take this long; the whole run must stay
# within 180 s.
RUN_TIMEOUT_S = 80

# End-to-end metric -> unit; each is a key of the untraced binary's
# summary except ok_frac, which is derived here.
END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    """Builds both binaries; separate -p invocations keep the trace
    feature out of the untraced one."""
    paths = {}
    for package, binary in BINARIES:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", MANIFEST, "-p", package, "--target-dir", target_dir]
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail(f"building {package} failed")
        paths[binary] = os.path.join(target_dir, "release", binary)
    return paths


def run_binary(path, args, seconds, out_dir):
    cmd = [path, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(path)} exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{os.path.basename(path)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{os.path.basename(path)} printed no summary")
    return json.loads(lines[-1])


def describe(s):
    print(f"perfbench: {s['workload']} seed={s['seed']} traced={s['traced']} "
          f"closed loop, 1 client; {s['passes']} passes x {s['distinct']} inputs "
          f"after 1 warm-up pass; {s['ok']}/{s['attempted']} ok; "
          f"tail = p{s['tail_percentile']:.2f} of {s['tail_samples']} per-input samples; "
          f"wall-clock {s['wall_ops_per_s']:.2f} ops/s; "
          f"setup fastest of {s['setup_reps']}; figures {s['figures']}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out_dir = os.path.join(target_dir, "perfbench")
    bins = build(target_dir)

    # Work is fixed by the seconds a binary is given (whole passes), so
    # both runs of a traced invocation do the same work.
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain = run_binary(bins["perfbench"], args, seconds, out_dir)
    describe(plain)
    runs = [plain]
    if args.trace:
        traced = run_binary(bins["perfbench-traced"], args, seconds, out_dir)
        describe(traced)
        runs.append(traced)
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in traced["per_layer"].items()}
        overhead = 1.0 - traced["ops_per_s"] / plain["ops_per_s"]
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
        table = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.txt")
        with open(table, "a") as f:
            f.write(f"trace.overhead_frac {overhead:.4f} "
                    f"(traced {traced['ops_per_s']:.3f} ops/s, "
                    f"untraced {plain['ops_per_s']:.3f} ops/s)\n")
    else:
        plain["ok_frac"] = plain["ok"] / plain["attempted"]
        metrics = {name: {"value": plain[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["attempted"] - r["ok"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
