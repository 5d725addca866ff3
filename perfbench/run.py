#!/usr/bin/env python3
"""Redy benchmark: builds perfbench from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: socket_ycsb_b, faster_ycsb_b, migrate_ycsb_a, fleet_campaign
(BENCHMARK.json says why each is there). The C++ driver is configured
and built in Release mode into $CARGO_TARGET_DIR (default .bench_build)
on first use; later runs only rebuild what changed.

Output: every record the run produced (name, layer, metric, value,
unit) as text, the full record set plus the machine it ran on in
.bench_out/, and as the last line one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0, and
its per-layer metrics with --trace 1 (0 for a layer the workload does
not run). With --trace 1 the spans go to .bench_out/trace-*.json
(Perfetto / chrome://tracing).

Exit status: 0 when every output check passed; 1 when a check failed
(the result line then says "correct": false); another non-zero status,
without a result line, when the build or the run failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """SHA-256 over the sources the driver is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out_dir = os.path.join(ROOT, ".bench_out")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 3
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"perfbench exited with {run.returncode}")
        return 5
    rec = json.loads(lines[-1])
    rec["machine"].update({
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    })
    path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(rec, f, indent=1)

    for r in rec["records"]:
        print(f"{r['name']:15} {r['layer']:14} {r['metric']:36} "
              f"{r['value']:>16.9g} {r['unit']}")
    for e in rec["errors"]:
        print(f"CHECK FAILED: {e}")
    print("machine: " + json.dumps(rec["machine"], sort_keys=True))

    by_name = {r["metric"]: r for r in rec["records"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        r = by_name.get(m["name"])
        if r is None:
            if not args.trace:
                log(f"end-to-end metric {m['name']} missing")
                return 6
            r = {"value": 0, "unit": m["unit"]}  # layer not run here
        if r["unit"] != m["unit"]:
            log(f"{m['name']} is in {r['unit']}, BENCHMARK.json says "
                f"{m['unit']}")
            return 6
        metrics[m["name"]] = {"value": r["value"], "unit": m["unit"]}
    print(json.dumps({"correct": rec["correct"],
                      "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": metrics}))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
