#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload rhmc_2p1 --seed 1 --seconds 4 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  The benchmark is built with dune
into .bench_build/; spans, counters and private kernel caches go to
.bench_out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --smoke runs the
benchmark's own checks at tiny problem sizes instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"  # bench.exe writes spans, counters and caches here
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
REFERENCE = os.path.join("perfbench", "reference.txt")
WORKLOADS = ("rhmc_2p1", "wilson_cg")
# Each of these overrides what the benchmark sets on purpose (the kernel
# cache directory, the VM executor, the worker counts).
GUARDED_ENV = ("REPRO_JIT_CACHE", "REPRO_VM_SUPERINSN", "REPRO_VM_DOMAINS", "REPRO_MULTI_DOMAINS")
RUN_TIMEOUT_S = 170


def note(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def clean_env():
    env = dict(os.environ)
    for var in GUARDED_ENV:
        if var in env:
            note(f"unsetting {var}={env[var]!r}: it would override what is measured")
            del env[var]
    env["DUNE_CACHE"] = "disabled"
    return env


def build(env):
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            note(f"{needed} not found: run from the root of a source checkout")
            sys.exit(2)
    if shutil.which("dune") is None:
        note("dune not found on PATH")
        sys.exit(2)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/bench.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0:
        note("build failed")
        sys.exit(2)


def run_bench(env, args):
    """Run bench.exe; return (human lines, parsed result) or exit non-zero."""
    try:
        r = subprocess.run(
            [EXE] + args,
            env=env,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        note(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        note(f"benchmark exited with code {r.returncode}")
        sys.exit(1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(r.stdout)
        note("benchmark printed no result line")
        sys.exit(1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        note(f"malformed result keys {sorted(result)}")
        sys.exit(1)
    return lines[:-1], result


def smoke(env):
    """The benchmark's own checks, at tiny sizes:
    every metric BENCHMARK.json names is printed with its unit; traced
    and untraced runs agree on their counters; a corrupted reference
    value makes operations fail; the corpus replay ends on Passes.run's
    kernel."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []

    def check_metrics(kind, workload, result):
        for m in spec[kind]:
            got = result["metrics"].get(m["name"])
            if got is None:
                problems.append(f"{workload}: {m['name']} not printed")
            elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                problems.append(f"{workload}: {m['name']} printed as {got}, unit should be {m['unit']}")
        extra = set(result["metrics"]) - {m["name"] for m in spec[kind]}
        if extra:
            problems.append(f"{workload}: metrics not in BENCHMARK.json {kind}: {sorted(extra)}")

    base = ["--size", "tiny", "--seed", "1", "--seconds", "1"]
    for w in WORKLOADS:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            lines, result = run_bench(env, base + ["--workload", w, "--trace", trace])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{w} --trace {trace}: not correct: {result['failed']} failed")
            check_metrics(kind, w, result)
            if trace == "1":
                text = "\n".join(lines)
                if "corpus replay: final kernels equal Passes.run for 4/4" not in text:
                    problems.append(f"{w}: corpus replay did not end on Passes.run's kernels")
                if "traced and untraced counters agree" not in text:
                    problems.append(f"{w}: traced and untraced counters were not compared")

    # One reference value corrupted: the operations it covers must fail.
    corrupt = os.path.join(OUT_DIR, "reference-corrupt.txt")
    with open(REFERENCE) as f:
        ref = f.read().splitlines()
    target = "wilson_cg tiny 1 1 "
    hit = [i for i, l in enumerate(ref) if l.startswith(target)]
    if not hit:
        problems.append("reference has no wilson_cg tiny entry for input set 1")
    else:
        fields = ref[hit[0]].split()
        fields[-1] = "%016x" % (int(fields[-1], 16) ^ 1)
        ref[hit[0]] = " ".join(fields)
        with open(corrupt, "w") as f:
            f.write("\n".join(ref) + "\n")
        _, result = run_bench(
            env, base + ["--workload", "wilson_cg", "--trace", "0", "--reference", corrupt]
        )
        if result["correct"] or result["failed"] == 0:
            problems.append("a corrupted reference value did not raise error_rate above 0")
        else:
            note(f"corrupted reference: {result['failed']}/{result['attempted']} operations failed, as expected")

    for p in problems:
        note(f"SMOKE FAIL: {p}")
    if problems:
        sys.exit(1)
    note("smoke checks passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=4)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--smoke", action="store_true", help="run the benchmark's own checks and exit")
    a = ap.parse_args()
    if not a.smoke and a.workload is None:
        ap.error("--workload is required")
    env = clean_env()
    build(env)
    os.makedirs(OUT_DIR, exist_ok=True)
    if a.smoke:
        smoke(env)
        return
    lines, result = run_bench(
        env,
        ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
         "--trace", a.trace, "--size", a.size, "--reference", REFERENCE],
    )
    for l in lines:
        print(l)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
