#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload impute-n325 --seed 1 --seconds 20 --trace 0

The last line of standard output is the driver's JSON result. The build
lives in .bench_build/ at the repository root; checkpoints and trace files
go to .bench_build/out/.

serve-n36 first trains and saves the weights it serves, in a separate
process (pristi_perfbench --prepare 1), so that the measured process's memory
high-water mark covers only set-up and serving.

Steadiness mode repeats one workload with seeds seed, seed+1, ... and prints
each metric's median, quartiles, interquartile share and (max - min)/median,
next to the bound BENCHMARK.json fixes for it. With --sets k it makes k such
sets one after the other, with the same seeds, and prints how far each set's
median moved from the first set's:

    python3 perfbench/run.py --workload serve-n36 --seed 1 --seconds 20 --repeat 10 --sets 2
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD_DIR, "pristi_perfbench")
WORKLOADS = ("impute-n325", "serve-n36", "train-n36")
# One run, preparation included, must end within 180 s; keep a margin.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def cpu_count():
    return len(os.sched_getaffinity(0))


def pool_threads(workload):
    """Pool size pinned through PRISTI_THREADS (it counts the calling thread).

    serve-n36 runs its model on one thread. With three, a solo request's
    latency on a shared host swung with how late the pool's workers woke
    for each parallel region: ten runs had a p50 interquartile share of
    0.44 (see README.md, "Host noise"). Its one load-generator thread makes
    two threads in all, within the CPUs.
    """
    return 1 if workload == "serve-n36" else min(4, cpu_count())


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found under {ROOT}/src")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "pristi_perfbench", "-j", str(min(4, cpu_count()))])
    for step in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def run_binary(workload, seed, seconds, trace, timeout, prepare=False):
    """Returns (exit code, stdout lines). Exit code None on timeout."""
    os.makedirs(OUT_DIR, exist_ok=True)
    # Library knobs from the caller's environment would change what is
    # measured; only the pinned pool size is passed on.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRISTI_")}
    env["PRISTI_THREADS"] = str(pool_threads(workload))
    command = [BINARY, "--workload", workload, "--out-dir", OUT_DIR]
    if prepare:
        command += ["--prepare", "1"]
    else:
        command += ["--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} timed out")
        return None, []
    return proc.returncode, proc.stdout.splitlines()


def run_once(workload, seed, seconds, trace):
    """Runs serve-n36's preparation step, if needed, then the workload."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if workload == "serve-n36":
        code, _ = run_binary(workload, seed, seconds, trace, RUN_TIMEOUT_S,
                             prepare=True)
        if code != 0:
            log(f"{workload} preparation failed (exit {code})")
            return code, []
    return run_binary(workload, seed, seconds, trace,
                      deadline - time.monotonic())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_end_to_end():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return {m["name"]: m for m in json.load(f).get("end_to_end", [])}
    except (OSError, ValueError):
        return {}


def verdict(iqr, spread, bound):
    """Judges one set of runs of a metric against its bound."""
    if bound is None:
        return "within a tenth" if spread <= 0.1 else "wider than a tenth"
    if iqr > bound:
        return "TOO NOISY"
    if spread > bound:
        return "RANGE OVER BOUND"
    return "steady" if iqr < bound / 3 else "within bound"


def run_set(args, index):
    """One set of args.repeat runs; returns ({metric: values}, {metric: unit})."""
    samples, units = {}, {}
    for i in range(args.repeat):
        seed = args.seed + i
        code, lines = run_once(args.workload, seed, args.seconds, args.trace)
        if code != 0 or not lines:
            log(f"set {index} seed {seed} failed (exit {code})")
            return None, None
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        log(f"set {index} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    return samples, units


def steadiness(args):
    """Repeats one workload in sets of consecutive seeds and prints spreads."""
    declared = load_end_to_end()
    sets = []
    summary = {}
    for index in range(args.sets):
        samples, units = run_set(args, index)
        if samples is None:
            return 1
        sets.append(samples)
        print(f"# {args.workload} set {index}: {args.repeat} runs, seeds "
              f"{args.seed}..{args.seed + args.repeat - 1}, "
              f"{args.seconds} s each, trace={args.trace}")
        print(f"# {'metric':34s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
              f"{'iqr/med':>8s} {'rng/med':>8s} {'bound':>6s}  verdict")
        for name, values in samples.items():
            median = statistics.median(values)
            q1, q3 = quartiles(values)
            iqr = (q3 - q1) / median if median else 0.0
            spread = (max(values) - min(values)) / median if median else 0.0
            bound = declared.get(name, {}).get("bound")
            print(f"# {name:34s} {median:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{iqr:8.4f} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}  "
                  f"{verdict(iqr, spread, bound)}")
            summary.setdefault(name, []).append(
                {"median": median, "q1": q1, "q3": q3, "iqr_share": iqr,
                 "range_share": spread, "unit": units[name]})
    if args.sets > 1:
        print(f"# median of each set against set 0 (worse: in the direction "
              f"BENCHMARK.json calls worse)")
        for name, per_set in summary.items():
            first = per_set[0]["median"]
            better = declared.get(name, {}).get("better", "lower")
            bound = declared.get(name, {}).get("bound")
            for index in range(1, len(per_set)):
                moved = (per_set[index]["median"] - first) / first if first else 0.0
                worse = moved if better == "lower" else -moved
                status = ("" if bound is None else
                          "SETS DISAGREE" if worse > bound else "agree")
                print(f"# {name:34s} set {index}: {moved:+8.4f} "
                      f"(worse by {max(worse, 0.0):.4f}, bound "
                      f"{'' if bound is None else bound})  {status}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "sets": summary}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="steadiness mode: run this many seeds in a row")
    parser.add_argument("--sets", type=int, default=1,
                        help="steadiness mode: repeat the whole set this "
                             "many times and compare the sets' medians")
    args = parser.parse_args()
    if not build():
        return 2
    if args.repeat > 1 or args.sets > 1:
        return steadiness(args)
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    if code is None:
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
