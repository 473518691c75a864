#!/usr/bin/env python3
"""Measure mayabench's run-to-run spread and drift, the way its bounds are checked.

Runs two sets of runs, one after the other. A set runs every workload in
BENCHMARK.json ten times, with seeds 1 to 10, untraced and one run at a
time. For each set and end-to-end metric it reports the median and the
interquartile range as a share of the median (statistics.quantiles with
n=4), and for each metric how much worse set B's median is than set A's.
It writes the host, every value, every output digest and these figures to
_mayabench/calibration.json, with the bound each metric's spread suggests:
max(floor, 3 x the largest spread of any workload), at most 0.25.

It exits 1 when a spread other than setup_s's exceeds its bound, when set
B is worse than set A by more than a bound, or when a seed gives different
output digests in the two sets.

Run from the repository root:

    python3 _mayabench/calibrate.py
"""

import json
import math
import os
import platform
import statistics
import subprocess
import sys

SEEDS = list(range(1, 11))
# The smallest bound each metric gets, whatever its measured spread.
FLOORS = {
    "throughput_per_s": 0.05,
    "latency_p50_ms": 0.10,
    "peak_rss_mib": 0.10,
}
MAX_BOUND = 0.25


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(command, workload, seed, seconds):
    """Runs one untraced run; returns its result object and output digest."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = [json.loads(l) for l in out.stdout.strip().splitlines()]
    result = lines[-1]
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{out.stderr}")
    digest = next(l["digest"] for l in lines if "digest" in l)
    return result, digest


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, old, new):
    """How much worse new is than old, as a share of old."""
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def measure_set(bench, label, failures):
    """Runs every workload once per seed; returns the set's record."""
    workloads = {}
    for w in bench["workloads"]:
        name = w["name"]
        values = {m["name"]: [] for m in bench["end_to_end"]}
        digests = {}
        for seed in SEEDS:
            result, digests[str(seed)] = run(bench["command"], name, seed, bench["run_seconds"])
            for m in values:
                values[m].append(result["metrics"][m]["value"])
        stats = {}
        for m in bench["end_to_end"]:
            vs = values[m["name"]]
            med, s = statistics.median(vs), spread(vs)
            stats[m["name"]] = {"median": med, "iqr_frac": round(s, 4), "values": vs}
            flag = "" if s < m["bound"] / 3 else "  <-- spread above a third of the bound"
            print(f"set {label} {name:14s} {m['name']:18s} median {med:14.6g} {m['unit']:5s} "
                  f"iqr/median {s:7.4f}  bound {m['bound']:.3f}{flag}", flush=True)
            if m["name"] != "setup_s" and s > m["bound"]:
                failures.append(f"set {label} {name} {m['name']}: spread {s:.4f}, bound {m['bound']}")
        workloads[name] = {"metrics": stats, "digests": digests}
    return workloads


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []
    sets = {label: measure_set(bench, label, failures) for label in ("A", "B")}

    drift = {}
    largest = {m["name"]: 0.0 for m in bench["end_to_end"]}
    for w in bench["workloads"]:
        name = w["name"]
        a, b = sets["A"][name], sets["B"][name]
        drift[name] = {}
        for m in bench["end_to_end"]:
            worse = worse_by(m, a["metrics"][m["name"]]["median"], b["metrics"][m["name"]]["median"])
            drift[name][m["name"]] = round(worse, 4)
            print(f"B vs A {name:14s} {m['name']:18s} worse by {worse:+.4f}  bound {m['bound']:.3f}")
            if worse > m["bound"]:
                failures.append(f"{name} {m['name']}: set B worse by {worse:.4f}, bound {m['bound']}")
            for s in sets.values():
                largest[m["name"]] = max(largest[m["name"]], s[name]["metrics"][m["name"]]["iqr_frac"])
        for seed, d in a["digests"].items():
            if b["digests"][seed] != d:
                failures.append(f"{name} seed {seed}: output digests differ between the sets")

    suggested = {m: min(MAX_BOUND, max(FLOORS.get(m, 0.0), math.ceil(300 * s) / 100))
                 for m, s in largest.items()}
    suggested["setup_s"] = MAX_BOUND
    print("suggested bounds:", json.dumps(suggested))

    report = {
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count()},
        "run_seconds": bench["run_seconds"],
        "seeds": SEEDS,
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "suggested_bounds": suggested,
        "sets": sets,
        "b_worse_than_a": drift,
        "failures": failures,
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calibration.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    if failures:
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main()
