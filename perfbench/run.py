#!/usr/bin/env python3
"""Graffix end-to-end benchmark: builds perfbench/ against the checkout's
src/ and runs one workload, or measures how steady the workloads are.

One run (the form BENCHMARK.json's command takes):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

prints the workload's report and, as its last line, one JSON object with
"correct", "attempted", "failed" and "metrics": every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1 (a
layer the workload does not exercise reads 0). The exit code is non-zero
when an output check failed or the run was invalid.

Steadiness:

    python3 perfbench/run.py --steady [--runs 10] [--workloads grid,serve-read]

runs each workload --runs times with seeds --seed, --seed + 1, ...,
alternating the workload order between rounds, and prints each end-to-end
metric's median, quartiles and spread (quartile distance over median)
against its bound.

The build, span files of traced runs and steadiness records go to
$CARGO_TARGET_DIR (default .bench_build) under the checkout root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not (ROOT / "src" / "core" / "experiment.hpp").is_file():
        sys.exit("perfbench: no library sources (src/) beside perfbench/ in this checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-6000:])
                sys.exit("perfbench: build failed: " + " ".join(step))
    return out / "perfbench"


def conform(result, spec, trace):
    """The result with exactly BENCHMARK.json's metrics for this kind of run."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in wanted})
    if unknown:
        raise ValueError("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    metrics = {}
    for m in wanted:
        value = got.get(m["name"])
        if value is None:
            if not trace:
                raise ValueError("end-to-end metric not measured: " + m["name"])
            value = {"value": 0.0, "unit": m["unit"]}  # layer not exercised
        if value["unit"] != m["unit"]:
            raise ValueError(f"{m['name']}: unit {value['unit']} is not {m['unit']}")
        metrics[m["name"]] = {"value": value["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run_workload(binary, spec, workload, seed, seconds, trace):
    """Runs one workload: (exit code, report text, result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", str(build_dir() / f"trace-{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", None
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode or 1, proc.stdout, None
    return proc.returncode, "\n".join(lines[:-1]), conform(json.loads(lines[-1]), spec, trace)


def steady(binary, spec, workloads, runs, seconds, first_seed):
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    records = []
    for i in range(runs):
        seed = first_seed + i
        for w in workloads if i % 2 == 0 else workloads[::-1]:
            started = time.monotonic()
            code, text, result = run_workload(binary, spec, w, seed, seconds, False)
            took = time.monotonic() - started
            if result is None or code != 0 or not result["correct"]:
                print(f"{w:12} seed {seed:3}: FAILED (exit {code})\n{text}", flush=True)
                continue
            records.append({"workload": w, "seed": seed, "wall_s": took, **result})
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"{w:12} seed {seed:3} {took:6.1f} s  " +
                  "  ".join(f"{n} {m['value']:.5g}" for n, m in result["metrics"].items()),
                  flush=True)

    print(f"\n{'workload':12} {'metric':12} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            v = values[w][m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ("steady" if spread < m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "TOO WIDE")
            print(f"{w:12} {m['name']:12} {len(v):3} {med:12.5g} {q1:12.5g} {q3:12.5g}"
                  f" {100 * spread:7.2f}% {100 * m['bound']:5.0f}%  {verdict}")
    out = build_dir() / f"steady-{int(time.time())}.json"
    out.write_text(json.dumps(records, indent=1))
    print(f"\nrecords: {out}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of BENCHMARK.json's workloads: " + ", ".join(names))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()
    if not args.steady and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.steady:
        steady(binary, spec, args.workloads.split(","), args.runs, args.seconds, args.seed)
        return 0
    code, text, result = run_workload(binary, spec, args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    if text:
        print(text, flush=True)
    if result is None:
        print(f"perfbench: {args.workload} gave no result (exit {code})", file=sys.stderr)
        return code
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
