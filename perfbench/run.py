#!/usr/bin/env python3
"""Builds and runs the rwdt benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the rwdt library, rwdt_serve and the perf_rwdt
harness) in .bench_build/cmake; later calls rebuild incrementally. The
harness prints diagnostics on stderr and, as its last stdout line, the
metrics it measured; this script prints the result line with the metrics
of the run's mode as BENCHMARK.json declares them (end_to_end untraced,
per_layer traced) and exits with the harness's code. A per-layer metric
the workload does not measure reads 0 (the layer is bypassed); a missing
end-to-end metric, or one BENCHMARK.json does not declare, is a harness
bug and counts as a failure. Build output goes to .bench_build/build.log
and, when the build fails, to stderr; a failed build exits 1 without a
result line.
"""

import json
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(".bench_build", "cmake")
BUILD_LOG = os.path.join(".bench_build", "build.log")
HARNESS = os.path.join(BUILD_DIR, "perf_rwdt")
RUN_TIMEOUT_S = 175


def build():
    """Configures (first time) and builds the benchmark; True on success."""
    os.makedirs(".bench_build", exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perf_rwdt", "rwdt_serve"])
    with open(BUILD_LOG, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                log.flush()
                with open(BUILD_LOG) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("run.py: build failed (%s)\n" % " ".join(step))
                return False
    return True


def result_line(raw, spec, trace):
    """The benchmark's result object from the harness's `raw` one."""
    declared = spec["per_layer" if trace else "end_to_end"]
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    measured = raw["metrics"]
    problems = ["metric %s is not declared in BENCHMARK.json" % name
                for name in sorted(set(measured) - known)]
    metrics = {}
    for m in declared:
        if m["name"] not in measured and not trace:
            problems.append("end-to-end metric %s not measured" % m["name"])
        metrics[m["name"]] = {"value": measured.get(m["name"], 0),
                              "unit": m["unit"]}
    for problem in problems:
        sys.stderr.write("run.py: %s\n" % problem)
    return {"correct": raw["correct"] and not problems,
            "attempted": raw["attempted"] + len(problems),
            "failed": raw["failed"] + len(problems),
            "metrics": metrics}


def main(argv):
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        sys.stderr.write("run.py: run from the repository root\n")
        return 2
    try:
        if not build():
            return 1
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.stderr.write("run.py: build failed: %s\n" % err)
        return 1
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    trace = "--trace" in argv[:-1] and argv[argv.index("--trace") + 1] == "1"
    # Own process group: on a timeout the harness and every process it
    # started (rwdt_serve, child runs) are killed together.
    proc = subprocess.Popen([HARNESS] + argv, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.stderr.write("run.py: benchmark timed out\n")
        return 1
    lines = stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("run.py: the harness printed no result\n")
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = result_line(raw, spec, trace)
    print(json.dumps(result))
    return proc.returncode if result["correct"] else (proc.returncode or 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
