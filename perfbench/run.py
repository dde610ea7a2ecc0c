#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Untimed steps come first: build the
perfbench binary (perfbench/CMakeLists.txt, into .bench_build/) and make
sure the dataset cache in .bench_build/data is warm. Then the binary runs
the workload; it never builds a dataset itself and fails if the cache is
missing. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics (0 for a layer the workload does not exercise). The
exit code is non-zero when an answer check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
DATA = os.path.join(BUILD, "data")
# Sources that decide the cached datasets' contents.
DATASET_SOURCES = ("src/corpus", "src/index", "src/util")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd):
    """Runs an untimed step, sending its output to stderr. Temporary
    files (the compiler's) stay inside the build directory."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    done = subprocess.run(cmd, cwd=REPO, stdout=sys.stderr, stderr=sys.stderr,
                          env=dict(os.environ, TMPDIR=tmp))
    if done.returncode != 0:
        fail("step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("the Sparta sources (src/) are not in this checkout")
    build_dir = os.path.join(BUILD, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    # Two compile jobs keep the build's memory small on a shared host.
    run_quiet(["cmake", "--build", build_dir, "-j", "2"])


def dataset_stamp():
    digest = hashlib.sha256()
    for top in DATASET_SOURCES:
        for root, dirs, files in os.walk(os.path.join(REPO, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def warm_cache():
    """Builds the dataset cache unless it was built from these sources."""
    stamp_path = os.path.join(DATA, "STAMP")
    stamp = dataset_stamp()
    if os.path.isfile(stamp_path):
        with open(stamp_path) as f:
            if f.read().strip() == stamp:
                return
    shutil.rmtree(DATA, ignore_errors=True)
    run_quiet([BINARY, "prepare", "--data", DATA])
    with open(stamp_path, "w") as f:
        f.write(stamp + "\n")


def select_metrics(spec, emitted, trace):
    """Keeps the declared metrics of this mode, checking names and units."""
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(emitted) - set(declared))
    if unknown:
        fail("undeclared metrics: " + ", ".join(unknown))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in emitted:
            if not trace:
                fail("missing end-to-end metric " + name)
            metrics[name] = {"value": 0, "unit": unit}
            continue
        if emitted[name]["unit"] != unit:
            fail("metric %s has unit %s, declared %s"
                 % (name, emitted[name]["unit"], unit))
        metrics[name] = emitted[name]
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    build()
    warm_cache()

    cmd = [BINARY, "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--data", DATA]
    done = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    if done.returncode != 0:
        fail("perfbench exited with code %d" % done.returncode,
             done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no result")
    raw = json.loads(lines[-1])

    for name in raw["datasets"]:
        print("dataset: " + name)
    for problem in raw["problems"]:
        print("problem: " + problem)
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": select_metrics(spec, raw["metrics"], args.trace),
    }
    print(json.dumps(result))
    sys.exit(0 if raw["correct"] else 1)


if __name__ == "__main__":
    main()
