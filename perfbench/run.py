#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark into
.bench_build/ (RelWithDebInfo, the repository's default build type); later
calls let CMake confirm the build is current. Build output goes to stderr.
The benchmark's stdout is passed through, so its last line is the result
JSON, and the exit code is the benchmark's.

--selftest runs every workload at its smallest size and checks that each
metric named in BENCHMARK.json is printed with its unit, that no op
failed, and that two runs with one seed print identical count metrics and
digests while another seed changes the input digest.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("strong_lb", "ratio_sweep", "session_stream", "theorem1")
RUN_TIMEOUT_S = 170
TIME_UNITS = ("us", "ms", "s")


def build():
    """Configures once, then builds; exits non-zero on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("run.py: no library sources next to perfbench/; "
                 "run it from a full checkout")
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))


def run_benchmark(workload, seed, seconds, trace, capture=False):
    """Runs the binary once; --spawn-ns lets it count its own launch."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--trace", str(trace), "--spawn-ns"]
    sys.stdout.flush()
    spawn_ns = time.monotonic_ns()
    return subprocess.run(cmd + [str(spawn_ns)], timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None,
                          text=True)


def parse_run(proc):
    """Returns (info, result): the key=value line before the result JSON."""
    lines = proc.stdout.strip().splitlines()
    info = dict(token.split("=", 1) for token in lines[-2].split()[1:])
    return info, json.loads(lines[-1])


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        runs = {}
        for key, seed, trace in (("e2e", 1, 0), ("a", 1, 1), ("b", 1, 1),
                                 ("c", 2, 1)):
            proc = run_benchmark(workload, seed, 1, trace, capture=True)
            if proc.returncode != 0:
                problems.append("%s %s: exit %d" %
                                (workload, key, proc.returncode))
                continue
            info, result = parse_run(proc)
            runs[key] = (info, result)
            if result["failed"] != 0 or not result["correct"]:
                problems.append("%s %s: failed ops" % (workload, key))
            units = {n: m["unit"] for n, m in result["metrics"].items()}
            if units != expected[trace]:
                problems.append("%s %s: metric names or units differ from "
                                "BENCHMARK.json" % (workload, key))
        if len(runs) != 4:
            continue

        def counts(key):
            return {n: m["value"] for n, m in runs[key][1]["metrics"].items()
                    if m["unit"] not in TIME_UNITS
                    and not n.startswith("trace.")}

        a_info, b_info, c_info = (runs[k][0] for k in ("a", "b", "c"))
        if counts("a") != counts("b"):
            problems.append("%s: count metrics differ under one seed" %
                            workload)
        for field in ("input_digest", "answer_digest"):
            if a_info[field] != b_info[field]:
                problems.append("%s: %s differs under one seed" %
                                (workload, field))
        if a_info["input_digest"] == c_info["input_digest"]:
            problems.append("%s: another seed left the inputs unchanged" %
                            workload)
        print("selftest: %s checked" % workload, file=sys.stderr)
    for problem in problems:
        print("selftest: " + problem, file=sys.stderr)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    build()
    try:
        if args.selftest:
            return selftest()
        return run_benchmark(args.workload, args.seed, args.seconds,
                             args.trace).returncode
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
