#!/usr/bin/env python3
"""Check that benchmark run sets are steady and agree with each other.

    python3 perfbench/check_repeat.py SET_A [SET_B]

A set is a directory written by perfbench/run_set.py. For every
end-to-end metric of BENCHMARK.json on every workload this prints the
median of each set and its spread: the first-to-third quartile distance
as a share of the median, as statistics.quantiles(n=4) gives them. With
two sets it also prints how far B's median is from A's in the metric's
worse direction.

A row fails when a set's spread or B's distance from A exceeds the
metric's bound. The one exception is the spread of setup_s, which is
printed but not gated (marked "spread not gated"): a b3pp run sets up
once, because its set-up compiles the netlist once per party, so the
spread of setup_s over runs is the host's drift; its median is gated like
every other metric's. The exit status is 1 if any row fails, or if a run
gave a wrong answer or failed a request. Runs marked invalid (the load
generator ran late) are listed but do not fail the check.

Each workload ends with rows that are printed and never fail, marked
"(not gated)": the end-to-end timings every run reports outside the
gated metrics (latency, throughput, CPU per inference; README.md says
why they are not gated), the host's single-thread speed over the same
runs (host_ref_ms), which tells host drift apart from a change in the
program, and, where material is pooled, the share of requests served
from it (pool_hit_rate).
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPREAD_NOT_GATED = {"setup_s"}


def load_set(path):
    with open(os.path.join(path, "runs.jsonl")) as f:
        return [json.loads(line) for line in f if line.strip()]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def print_row(sets, workload, name, bound, lower_better, value):
    """One metric on one workload; returns False when the row fails.
    A bound of None prints the row without gating it."""
    bound_s = f"{bound:.2f}" if bound is not None else ""
    row = f"{workload:<12} {name:<22} {bound_s:>6}"
    fail = False
    gate_spread = bound is not None and name not in SPREAD_NOT_GATED
    medians, spreads = [], []
    for s in sets:
        vals = [value(r) for r in s if r["workload"] == workload]
        if len(vals) < 2:
            row += f" {'-':>12} {'-':>9}"
            medians.append(None)
            spreads.append(None)
            continue
        spreads.append(spread(vals))
        medians.append(statistics.median(vals))
        row += f" {medians[-1]:>12.5g} {spreads[-1]:>9.4f}"
        fail |= gate_spread and spreads[-1] > bound
    if len(sets) == 2 and None not in medians:
        a, b = medians
        worse = ((b - a) if lower_better else (a - b)) / a if a else 0.0
        row += f" {worse:>8.4f}"
        fail |= bound is not None and worse > bound
    # The benchmark aims for spreads under a third of the bound.
    wide = gate_spread and any(x is not None and x > bound / 3
                               for x in spreads)
    note = "  FAIL" if fail else "  wide" if wide else ""
    if bound is None:
        note += "  (not gated)"
    elif not gate_spread:
        note += "  (spread not gated)"
    print(row + note)
    return not fail


def main(argv):
    if not 1 <= len(argv) <= 2:
        raise SystemExit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = [[r for r in load_set(p) if r["trace"] == 0] for p in argv]
    ok = True
    for s, path in zip(sets, argv):
        for r in s:
            res, rep = r["result"], r["report"]
            if not res["correct"] or res["failed"] or not rep["valid"]:
                print(f"{path}: {r['workload']} seed {r['seed']}: correct="
                      f"{res['correct']} failed={res['failed']} "
                      f"valid={rep['valid']} (late p99 "
                      f"{rep['late_p99_ms']:.2f} ms)")
            ok &= res["correct"] and not res["failed"]

    header = f"{'workload':<12} {'metric':<22} {'bound':>6}"
    for i in range(len(sets)):
        header += f" {'median_' + 'AB'[i]:>12} {'spread_' + 'AB'[i]:>9}"
    if len(sets) == 2:
        header += f" {'B_worse':>8}"
    print(header)
    better = {m["name"]: m["better"] for m in bench["per_layer"]}
    ungated = next((list(r["report"]["ungated"]) for s in sets for r in s), [])
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            ok &= print_row(
                sets, w["name"], m["name"], m["bound"], m["better"] == "lower",
                lambda r, n=m["name"]: r["result"]["metrics"][n]["value"])
        for n in ungated:
            print_row(sets, w["name"], n, None, better[n] == "lower",
                      lambda r, n=n: r["report"]["ungated"][n]["value"])
        # When the host's own speed moved as much as a timing did, the
        # host drifted, not the program.
        print_row(sets, w["name"], "(host_ref_ms)", None, True,
                  lambda r: r["report"]["host_ref_ms"])
        if any(r["report"]["pool_hit_rate"] > 0
               for s in sets for r in s if r["workload"] == w["name"]):
            print_row(sets, w["name"], "(pool_hit_rate)", None, False,
                      lambda r: r["report"]["pool_hit_rate"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
