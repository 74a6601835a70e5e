#!/usr/bin/env python3
"""Repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the library, the real server and the
benchmark driver from source (perfbench/CMakeLists.txt, into
.bench_build/perfbench), runs the workload and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics: every end-to-end metric of BENCHMARK.json with --trace 0,
every per-layer metric with --trace 1.  The line before it records the
machine context (nproc, compiler, build type, load average, seed).

Exit status: 0 when every output was right, 1 when any was wrong, 2 and
up (without a result line) when the benchmark itself could not run.
Spans, per-item details and the effort ledger are written under
.bench_build/perfbench-out.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "perfbench-out")
DRIVER = os.path.join(BUILD_DIR, "gmm_perfbench")
DRIVER_TIMEOUT_S = 170
BUILD_JOBS = 3
BUILD_TYPE = "Release"


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(env):
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = max(1, min(BUILD_JOBS, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", BUILD_DIR, "--target", "gmm_perfbench",
         "-j", str(jobs)],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  env=env)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-40:]))
                fail(3, "build failed: " + " ".join(step))


def run_driver(cmd, env):
    """Runs the driver in its own process group, so a timeout also stops
    the server it spawned."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(4, f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    return proc.returncode, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join("src", "mapping", "pipeline.hpp")) and
            os.path.isfile(os.path.join("examples", "mapper_serve.cpp"))):
        fail(2, "run from the repository root: src/ and examples/ not found")
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as error:
        fail(2, f"cannot read BENCHMARK.json: {error}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(2, f"unknown workload '{args.workload}'")
    if args.seconds <= 0:
        fail(2, "--seconds must be positive")

    env = dict(os.environ)
    env["TMPDIR"] = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    build(env)

    version = subprocess.run([DRIVER, "--version"], capture_output=True,
                             text=True, env=env)
    toolchain = json.loads(version.stdout) if version.returncode == 0 else {}
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "compiler": toolchain.get("compiler"),
        "build_type": toolchain.get("build_type"),
        "loadavg_before": list(os.getloadavg()),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }

    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR]
    code, stdout = run_driver(cmd, env)
    lines = [line for line in stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(5, f"driver exited with {code} and printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(5, "driver result has unexpected keys")
    wanted = [m["name"] for m in
              bench["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        missing = sorted(set(wanted) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(wanted))
        fail(5, f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"extra {extra}")
    if code not in (0, 1) or (code == 0) != bool(result["correct"]):
        fail(5, f"driver exit status {code} contradicts its result")

    context["loadavg_after"] = list(os.getloadavg())
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({"context": context, "result": result}) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
