#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark driver (perfbench/, compiling the program from src/),
runs one workload for one seed and prints every metric with its unit; the
last line of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload router64 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck [--workload W] [--seed N] [--seconds S]
    python3 perfbench/run.py --sweep 10 --seconds 30 --out FILE [--workload W]
    python3 perfbench/run.py --compare FIRST SECOND [--out FILE]

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (and writes the raw spans under the build directory).
--selfcheck runs each workload twice with one seed, plus once traced, and
lists every modeled metric or deterministic count that differs.
--sweep N runs seeds 1..N untraced plus seed 1 traced for each workload and
writes per-metric medians, quartiles and spreads.
--compare takes two sweep files and prints, per workload and end-to-end
metric, how much the second median is worse than the first, against the
metric's bound; with --out it writes both sets and that comparison (the
format of perfbench/baseline.json).
The build directory is $CARGO_TARGET_DIR if set, else .bench_build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_driver(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: driver timed out")
        sys.exit(1)
    if res.returncode != 0:
        log("perfbench: driver exited with", res.returncode)
        sys.exit(1)
    lines = res.stdout.strip().splitlines()
    if not lines:
        log("perfbench: driver printed nothing")
        sys.exit(1)
    return json.loads(lines[-1])


def select_metrics(report, wanted, section):
    """Returns the metrics named in BENCHMARK.json, or exits if any is
    missing or has another unit than declared."""
    got = report[section]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in got or got[name]["unit"] != unit:
            log("perfbench: metric %s (%s) missing from the driver output"
                % (name, unit))
            sys.exit(1)
        metrics[name] = {"value": got[name]["value"], "unit": unit}
    return metrics


def print_table(report, metrics, trace):
    print("workload %s  seed %s  %s run"
          % (report["workload"], report["seed"],
             "traced" if trace else "untraced"))
    for name, m in metrics.items():
        print("  %-48s %16.6f %s" % (name, m["value"], m["unit"]))
    attempted, failed = report["attempted"], report["failed"]
    print("  %-48s %16.9f (%d of %d operations failed)"
          % ("fail_ratio", failed / attempted if attempted else 1.0,
             failed, attempted))
    for f in report["failures"]:
        print("  failure: " + f)
    if trace:
        print("  spans (count, mean ns, self ns total):")
        for s in report["span_summary"]:
            mean = s["total_ns"] / s["count"] if s["count"] else 0
            print("    %-22s %10d %12.1f %16d"
                  % (s["name"], s["count"], mean, s["self_ns"]))
    print("  samples: %s" % json.dumps(report["notes"].get("samples", {})))


def selfcheck(binary, workloads, seed, seconds):
    for w in workloads:
        a = run_driver(binary, w, seed, seconds, False)
        b = run_driver(binary, w, seed, seconds, False)
        t = run_driver(binary, w, seed, seconds, True)
        for label, other in (("untraced rerun", b), ("traced run", t)):
            da, db = a["deterministic"], other["deterministic"]
            differ = sorted(k for k in set(da) | set(db)
                            if da.get(k) != db.get(k))
            print("%s seed %d vs %s: %d of %d deterministic values differ"
                  % (w, seed, label, len(differ), len(da)))
            for k in differ:
                print("  DIFFERS %-56s %s -> %s" % (k, da.get(k), db.get(k)))


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def sweep(binary, spec, workloads, runs, seconds, out):
    result = {"seconds": seconds, "seeds": list(range(1, runs + 1)),
              "workloads": {}}
    for w in workloads:
        reports = [run_driver(binary, w, seed, seconds, False)
                   for seed in range(1, runs + 1)]
        traced = run_driver(binary, w, 1, seconds, True)
        e2e = {}
        for m in spec["end_to_end"]:
            values = [r["end_to_end"][m["name"]]["value"] for r in reports]
            e2e[m["name"]] = dict(summarize(values), unit=m["unit"],
                                  bound=m["bound"])
            flag = "ok" if e2e[m["name"]]["spread"] <= m["bound"] else "WIDE"
            print("%-13s %-22s median %14.6g spread %.4f bound %.2f %s"
                  % (w, m["name"], e2e[m["name"]]["median"],
                     e2e[m["name"]]["spread"], m["bound"], flag), flush=True)
        result["workloads"][w] = {
            "failed": sum(r["failed"] for r in reports + [traced]),
            "attempted": sum(r["attempted"] for r in reports + [traced]),
            "end_to_end": e2e,
            "per_layer_seed1": {m["name"]: traced["per_layer"][m["name"]]["value"]
                                for m in spec["per_layer"]},
            "span_summary_seed1": traced["span_summary"],
        }
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


def compare(spec, first_path, second_path, out):
    """Returns True when every second median is within its metric's bound
    of the first."""
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    agreement, ok = {}, True
    for w in first["workloads"]:
        agreement[w] = {}
        for m in spec["end_to_end"]:
            a = first["workloads"][w]["end_to_end"][m["name"]]["median"]
            b = second["workloads"][w]["end_to_end"][m["name"]]["median"]
            change = (b - a) / a
            worse = -change if m["better"] == "higher" else change
            within = worse <= m["bound"]
            ok = ok and within
            agreement[w][m["name"]] = {"first": a, "second": b,
                                       "change": change, "bound": m["bound"]}
            print("%-13s %-24s %14.6g %14.6g change %+.4f bound %.2f %s"
                  % (w, m["name"], a, b, change, m["bound"],
                     "ok" if within else "WORSE"))
    if out:
        with open(out, "w") as f:
            json.dump({"sets": [first, second], "agreement": agreement}, f,
                      indent=1)
            f.write("\n")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--sweep", type=int, metavar="N")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    ap.add_argument("--out", help="sweep or comparison output file "
                    "(sweep default: <build dir>/sweep.json)")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.compare:
        sys.exit(0 if compare(spec, *args.compare, args.out) else 1)
    if args.sweep:
        sweep(build(), spec, [args.workload] if args.workload else names,
              args.sweep, args.seconds,
              args.out or os.path.join(build_dir(), "sweep.json"))
        return
    if args.selfcheck:
        binary = build()
        selfcheck(binary, [args.workload] if args.workload else names,
                  args.seed, args.seconds)
        return
    if args.workload not in names:
        log("perfbench: unknown workload %r (have %s)"
            % (args.workload, ", ".join(names)))
        sys.exit(2)

    binary = build()
    trace = args.trace == 1
    report = run_driver(binary, args.workload, args.seed, args.seconds, trace)
    if trace:
        metrics = select_metrics(report, spec["per_layer"], "per_layer")
    else:
        metrics = select_metrics(report, spec["end_to_end"], "end_to_end")
    print_table(report, metrics, trace)
    attempted, failed = int(report["attempted"]), int(report["failed"])
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
