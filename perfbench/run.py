#!/usr/bin/env python3
"""Runs one workload of the rpminer benchmark and prints its result.

    python3 perfbench/run.py --workload mine-sparse --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the rpminer libraries, the rpminer
CLI and the rpmbench program from source into .bench_build/, writes the
workload's seeded inputs, runs the measurement in its own process, checks
the schedule-invariant counters against any earlier run of the same code
and seed, and prints the full report line followed by the result line:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

Exits 1 when a correctness check or a counter-drift check failed (the
result line is still printed) and 2 when nothing could be measured.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
WORKLOADS = ("mine-sparse", "mine-dense", "serve-mixed", "window-slide")
# Fraction of the paper-sized generator each workload's data uses.
SCALE = {"mine-sparse": 1.0, "mine-dense": 1.0, "serve-mixed": 0.25,
         "window-slide": 1.0}
RUN_TIMEOUT_S = 160


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds rpmbench and rpminer; returns paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("rpminer sources not found at %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "-j4", "--target",
                  "rpmbench", "rpminer"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(step))
    return (os.path.join(CMAKE_DIR, "rpmbench"),
            os.path.join(CMAKE_DIR, "rpm", "rpminer"))


def source_digest():
    """Identity of the code under test: a digest of src/ and perfbench/."""
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
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_drift(report, digest, args):
    """Compares the schedule-invariant counters with the first run of the
    same code, workload, seed, length and mode (the serve schedule's size
    follows the length); returns the differing keys."""
    store = os.path.join(BUILD, "drift", digest)
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-seed%d-%gs-trace%d.json" %
                        (args.workload, args.seed, args.seconds, args.trace))
    current = report.get("invariants", {})
    if not os.path.isfile(path):
        with open(path + ".tmp", "w") as f:
            json.dump(current, f, sort_keys=True)
        os.replace(path + ".tmp", path)
        return []
    with open(path) as f:
        recorded = json.load(f)
    return sorted(k for k in set(recorded) | set(current)
                  if recorded.get(k) != current.get(k))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    rpmbench, rpminer = build()
    digest = source_digest()

    inputs = os.path.join(BUILD, "inputs", "%s-seed%d" % (args.workload,
                                                           args.seed))
    shutil.rmtree(inputs, ignore_errors=True)
    os.makedirs(inputs)
    try:
        if subprocess.call([rpmbench, "gen", "--workload", args.workload,
                            "--seed", str(args.seed), "--dir", inputs]) != 0:
            die("input generation failed")
        try:
            run = subprocess.run(
                [rpmbench, "run", "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--inputs", inputs,
                 "--rpminer", rpminer],
                stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("measurement exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        die("measurement failed (exit %d)" % run.returncode)
    try:
        report = json.loads(lines[-1])
    except ValueError:
        die("measurement printed no report line")

    drift = check_drift(report, digest, args)
    if drift:
        report["correct"] = False
        report["failed"] = report["failed"] + 1
        report["errors"].append("schedule-invariant counters drifted from "
                                "an earlier run of this code and seed: " +
                                ", ".join(drift))
    report["header"].update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "scale": SCALE[args.workload], "git_commit": git_commit(),
        "source_digest": digest})
    for error in report["errors"]:
        print("perfbench: " + error, file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()
