#!/usr/bin/env python3
"""Run sets of benchmark runs, interleaved, and store their results.

    python3 perfbench/run_set.py SET [SET ...] [--seeds 1-10]
                                 [--workloads a,b] [--trace]

SET is OUT_DIR, or OUT_DIR=CHECKOUT to run the benchmark of another
checkout (a parent commit, say); the default checkout is this one. Each
run's result and report lines are appended to OUT_DIR/runs.jsonl; traced
runs also copy their layers.json next to it, and a traced set ends with
the ledger pass (ledger.json). Summarize or compare sets with
perfbench/check_repeat.py.

The host's speed drifts over minutes, so runs are interleaved: for each
seed, every workload in turn, and for each workload every set in turn,
with the order of the sets rotating from seed to seed. Every workload of
every set then samples the same host states, and no side always runs
first. Two sets of one commit give its repeatability; a set of the
parent and one of the change give paired, alternating runs.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# b1_pp (the conv topology) compiles too slowly to serve as a workload.
LEDGER_MODELS = "b3_pp,b1_pp"


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_set(text):
    out_dir, _, checkout = text.partition("=")
    return os.path.abspath(out_dir), os.path.abspath(checkout or ROOT)


def build_root(checkout):
    return os.path.join(checkout,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_one(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed}: "
                         f"exit {proc.returncode}")
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "wall_s": wall, "result": json.loads(lines[-1]),
            "report": json.loads(lines[-2])["report"]}


def run_ledger(checkout, seed, out_dir):
    """Layer probes on the served model and the conv topology."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--ledger", LEDGER_MODELS, "--seed", str(seed)]
    if subprocess.run(cmd, cwd=checkout, stdout=sys.stderr).returncode != 0:
        raise SystemExit("ledger pass failed")
    shutil.copy(os.path.join(build_root(checkout), "out",
                             f"ledger-seed{seed}", "ledger.json"),
                os.path.join(out_dir, "ledger.json"))
    print(f"{out_dir}: ledger {LEDGER_MODELS} seed {seed}: done", flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="+", metavar="SET")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sets = [parse_set(s) for s in args.sets]
    if (os.path.isabs(os.environ.get("CARGO_TARGET_DIR", ""))
            and len({c for _, c in sets}) > 1):
        raise SystemExit("sets from several checkouts need a relative "
                         "CARGO_TARGET_DIR: an absolute one is shared")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    for out_dir, _ in sets:
        os.makedirs(out_dir, exist_ok=True)

    seeds = seed_list(args.seeds)
    for k, seed in enumerate(seeds):
        order = sets[k % len(sets):] + sets[:k % len(sets)]
        for name in names:
            for out_dir, checkout in order:
                row = run_one(checkout, name, seed, bench["run_seconds"],
                              args.trace)
                with open(os.path.join(out_dir, "runs.jsonl"), "a") as f:
                    f.write(json.dumps(row) + "\n")
                if args.trace:
                    shutil.copy(
                        os.path.join(build_root(checkout), "out",
                                     f"{name}-seed{seed}", "layers.json"),
                        os.path.join(out_dir, f"{name}-seed{seed}-layers.json"))
                valid = "" if row["report"]["valid"] else "  INVALID"
                print(f"{out_dir}: {name} seed {seed}: {row['wall_s']:.1f} s, "
                      f"correct={row['result']['correct']} "
                      f"failed={row['result']['failed']}{valid}", flush=True)
    if args.trace:
        for out_dir, checkout in sets:
            run_ledger(checkout, seeds[0], out_dir)


if __name__ == "__main__":
    main()
