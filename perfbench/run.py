#!/usr/bin/env python3
"""The repository benchmark: one command for the ingest, verify and loopback
workloads.

    python3 perfbench/run.py --workload ingest|verify|loopback|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run builds the SPIDeR sources and
the benchmark driver into .bench_build/ (perfbench/CMakeLists.txt); later
runs reuse that build.  This script prints every metric by name with its
unit and sample count and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.

BENCHMARK.json is the one list of metric names and units: the driver
reports names, values and sample counts, and this script checks the names
against BENCHMARK.json, attaches the units, and checks that
perfbench/layers.json explains exactly BENCHMARK.json's workloads and
metrics.  Exits non-zero on a build failure, a wrong answer or a metric set
that does not match.  --workload all runs every workload in turn and ends
with one JSON object holding each workload's result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
DRIVER_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "spider_perfbench", "spider_node",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                # A failed configure must not leave a cache that skips it next time.
                shutil.rmtree(BUILD, ignore_errors=True)
                sys.stderr.write(f"perfbench: build failed ({' '.join(step)}); see {log_path}\n")
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-20:]))
                return False
    return True


def load_spec():
    """BENCHMARK.json, after checking that layers.json explains exactly its
    workloads and metrics; raises ValueError naming any difference."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    for key in ["workloads", "end_to_end", "per_layer"]:
        differ = {entry["name"] for entry in spec[key]} ^ set(layers[key])
        if differ:
            raise ValueError(f"layers.json {key} differ from BENCHMARK.json: {sorted(differ)}")
    return spec


def attach_units(spec, trace, measured):
    """The contract's {"name": {"value", "unit"}} from the driver's
    {"name": {"value", "samples"}}, and the printed lines.  Every
    end-to-end metric must be measured; a per-layer metric the workload
    never touches reads 0.  Raises ValueError on a name BENCHMARK.json does
    not list or a missing end-to-end metric."""
    listed = spec["per_layer" if trace else "end_to_end"]
    unknown = set(measured) - {m["name"] for m in listed}
    if unknown:
        raise ValueError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    metrics, lines = {}, []
    for m in listed:
        entry = measured.get(m["name"])
        if entry is None:
            if not trace:
                raise ValueError(f"end-to-end metric not measured: {m['name']}")
            entry = {"value": 0, "samples": 0}
        metrics[m["name"]] = {"value": entry["value"], "unit": m["unit"]}
        lines.append((m["name"], entry["value"], m["unit"], entry["samples"]))
    return metrics, lines


def format_line(workload, section, name, value, unit, samples):
    return f"perfbench {workload} {section} {name:<44} {value:16.6g} {unit:<6} (n={samples})\n"


def run(workload, spec, args):
    """Runs one workload; returns (exit code, its output, its result)."""
    work_dir = os.path.join(BUILD_ROOT, f"work-{os.getpid()}")
    command = [os.path.join(BUILD, "spider_perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--node-binary", os.path.join(BUILD, "spider_node"),
               "--work-dir", work_dir]
    # Its own session, so a timeout can stop the driver and every node it
    # started in one signal.
    driver = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: os.killpg(driver.pid, signal.SIGKILL))
    try:
        out, _ = driver.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.stderr.write(f"perfbench: {workload} did not finish in {DRIVER_TIMEOUT_S} s\n")
        return 1, "", None
    shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    try:
        raw = json.loads(lines[-1])
    except ValueError as e:
        sys.stderr.write(out)
        sys.stderr.write(f"perfbench: no result from the driver (exit {driver.returncode}): {e}\n")
        return driver.returncode or 1, "", None
    try:
        metrics, metric_lines = attach_units(spec, args.trace, raw["metrics"])
        named = sorted(raw["named"].items())
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        sys.stderr.write(out)
        sys.stderr.write(f"perfbench: {e}\n")
        return 1, "", None
    section = "layer" if args.trace else "e2e  "
    text = "".join(line + "\n" for line in lines[:-1])
    text += "".join(format_line(workload, section, *line) for line in metric_lines)
    text += "".join(format_line(workload, "named", name, entry["value"], entry["unit"],
                                entry["samples"])
                    for name, entry in named)
    result = {key: raw[key] for key in ["correct", "attempted", "failed"]}
    result["metrics"] = metrics
    return driver.returncode, text + json.dumps(result) + "\n", result


def main():
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 1
    if args.workload != "all":
        code, out, _ = run(args.workload, spec, args)
        sys.stdout.write(out)
        return code
    status, results = 0, {}
    for workload in workloads:
        code, out, result = run(workload, spec, args)
        # Every line but each workload's own JSON result; one combined
        # object ends the output.
        sys.stdout.write("".join(out.splitlines(keepends=True)[:-1]))
        status = status or code
        results[workload] = result
    sys.stdout.write(json.dumps(results) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
