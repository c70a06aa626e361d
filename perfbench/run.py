#!/usr/bin/env python3
"""Repository benchmark: builds the harness from source and runs one workload.

One run:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

prints every metric by name with its unit, then one JSON result line
(`correct`, `attempted`, `failed`, `metrics`). `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a separate traced
run. Exits non-zero when an output is wrong or the harness fails.

Other modes:

    python3 perfbench/run.py --all [--seed n] [--seconds s]    every workload, untraced then traced;
                                                               also rewrites BENCHMARK.json
    python3 perfbench/run.py --spread N [--workload name]      N seeds per workload; prints the
                                                               quartile spread of each end-to-end metric
    python3 perfbench/run.py --selftest                        checks of the harness's own helpers

Workload settings, rates, limits, metric definitions and provenance live in
perfbench/workloads.json.
The harness is built with CMake into .bench_build/perfbench under the checkout root.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170


def load_config():
    with open(os.path.join(BENCH_DIR, "workloads.json")) as f:
        return json.load(f)


def benchmark_manifest(config):
    """BENCHMARK.json: command, paths, run length, workloads and metric bounds."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": config["run_seconds"],
        "workloads": [{"name": name, "why": w["why"]} for name, w in config["workloads"].items()],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better", "bound")} for m in config["end_to_end"]],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")} for m in config["per_layer"]],
    }


def build():
    """Configure and build the harness; serialised by a lock so concurrent runs share one build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "plssvm", "core", "csvm.hpp")):
        sys.exit("perfbench: the plssvm sources (src/plssvm) are missing from this checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not os.path.isfile(os.path.join(BUILD_DIR, "Makefile")):
            configure += ["-G", "Ninja"]
        jobs = str(os.cpu_count() or 1)
        for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                sys.exit("perfbench: build failed: " + " ".join(cmd))


def harness_args(config, workload, seed, seconds, trace, workdir):
    if workload not in config["workloads"]:
        sys.exit("perfbench: unknown workload '%s' (have: %s)" % (workload, ", ".join(config["workloads"])))
    settings = dict(config["settings"], **config["workloads"][workload]["settings"])
    settings["flops_per_feature"] = config["flops_per_feature"]["value"]
    args = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
    for key, value in settings.items():
        args += ["--" + key, ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    return args


def run_one(config, workload, seed, seconds, trace):
    """Run the harness once; returns (exit code, result dict or None)."""
    workdir = os.path.join(WORK_DIR, "%s-%d-%d" % (workload, seed, os.getpid()))
    try:
        done = subprocess.run(harness_args(config, workload, seed, seconds, trace, workdir),
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        spans = os.path.join(workdir, "spans.jsonl")
        if os.path.isfile(spans):
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            shutil.move(spans, os.path.join(out_dir, "spans-%s-%d.jsonl" % (workload, seed)))
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s did not finish within %d s\n" % (workload, RUN_TIMEOUT_S))
        return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return done.returncode or 1, None
    result = json.loads(lines[-1])
    wanted = config["per_layer"] if trace else config["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            sys.stderr.write("perfbench: metric %s missing or not finite\n" % m["name"])
            return 1, None
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    result["metrics"] = metrics
    return done.returncode, result


def print_metrics(workload, result):
    for name, m in result["metrics"].items():
        print("%-14s %-30s %16.6g %s" % (workload, name, m["value"], m["unit"]))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--spread", type=int, metavar="N")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    config = load_config()
    seconds = args.seconds or config["run_seconds"]
    build()

    if args.selftest:
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")]).returncode

    if args.all:
        status = 0
        for name in config["workloads"]:
            for trace in (0, 1):
                code, result = run_one(config, name, args.seed, seconds, trace)
                if result is None:
                    return code or 1
                print_metrics(name, result)
                status = status or code or (0 if result["correct"] else 1)
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_manifest(config), f, indent=2)
            f.write("\n")
        return status

    if args.spread:
        names = [args.workload] if args.workload else list(config["workloads"])
        for name in names:
            series = {}
            for seed in range(1, args.spread + 1):
                code, result = run_one(config, name, seed, seconds, 0)
                if code != 0 or result is None:
                    return code or 1
                for metric, m in result["metrics"].items():
                    series.setdefault(metric, []).append(m["value"])
            for m in config["end_to_end"]:
                values = series[m["name"]]
                print("%-14s %-16s median %12.6g  spread %6.3f  (bound %.2f)  values %s"
                      % (name, m["name"], statistics.median(values), spread(values), m["bound"],
                         " ".join("%.4g" % v for v in values)))
        return 0

    if not args.workload:
        parser.error("--workload is required")
    code, result = run_one(config, args.workload, args.seed, seconds, args.trace)
    if result is None:
        return code or 1
    print_metrics(args.workload, result)
    print(json.dumps(result))
    return code or (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
