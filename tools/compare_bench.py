#!/usr/bin/env python3
"""Summarize and compare BENCH_<name>.json files (Google Benchmark JSON).

Usage:
  compare_bench.py CURRENT.json                 # summary table
  compare_bench.py CURRENT.json BASELINE.json   # per-benchmark speedups
  compare_bench.py --check CURRENT.json         # validate (CI perf-smoke)
  compare_bench.py CURRENT.json --pair A B --min-speedup 5
      # assert mean(real_time of benchmarks starting with A)
      #      / mean(real_time of benchmarks starting with B) >= 5
  compare_bench.py CURRENT.json --counter-min A off_on_cpu_ratio 0.97
      # assert every benchmark starting with A reports that counter >= 0.97
  compare_bench.py CURRENT.json --counter-max A client_errors_per_iter 0
      # assert every benchmark starting with A reports that counter <= 0

--check fails (exit 1) when the file is missing, unparsable, or contains no
benchmarks — the CI perf-smoke step uses it to guarantee the benchmark both
ran and produced its JSON mirror. --require NAME_PREFIX (repeatable) fails
unless at least one benchmark with that name prefix is present, so a series
silently dropped from a sweep (e.g. the writers=1 mixed series) is a CI
failure too. --pair/--min-speedup additionally turn a performance
regression (e.g. the hash-join rescue disappearing) into a CI failure.
--counter-min gates a figure a benchmark computes itself, such as bench_obs's
median paired off/on CPU ratio; --counter-max is its upper-bound twin, such
as bench_server's lost responses per iteration.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        sys.exit(f"error: benchmark output '{path}' is missing")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: '{path}' is not valid JSON: {exc}")
    benches = [
        b
        for b in doc.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    ]
    if not benches:
        sys.exit(f"error: '{path}' contains no benchmark results")
    return benches


def fmt_time(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.2f} {unit}"
    return f"{ns:.0f} ns"


def time_ns(bench):
    unit = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[bench.get("time_unit", "ns")]
    return bench["real_time"] * unit


def summarize(benches):
    width = max(len(b["name"]) for b in benches)
    print(f"{'benchmark':<{width}}  {'real_time':>10}  notable counters")
    for b in benches:
        counters = []
        for key in (
            "rows_scanned_per_iter",
            "hash_join_probes_per_iter",
            "index_lookups_per_iter",
            "plan_replays_per_iter",
            "requests_per_iter",
            "completed_per_iter",
            "shed_per_iter",
            "deadline_expired_per_iter",
            "client_errors_per_iter",
        ):
            if key in b:
                counters.append(f"{key.replace('_per_iter', '')}={b[key]:.0f}")
        print(
            f"{b['name']:<{width}}  {fmt_time(time_ns(b)):>10}  "
            + " ".join(counters)
        )


def compare(current, baseline):
    base_by_name = {b["name"]: b for b in baseline}
    width = max(len(b["name"]) for b in current)
    print(f"{'benchmark':<{width}}  {'baseline':>10}  {'current':>10}  speedup")
    regressions = 0
    for b in current:
        base = base_by_name.get(b["name"])
        if base is None:
            continue
        cur_ns, base_ns = time_ns(b), time_ns(base)
        speedup = base_ns / cur_ns if cur_ns > 0 else float("inf")
        marker = "  <-- regression" if speedup < 0.9 else ""
        if speedup < 0.9:
            regressions += 1
        print(
            f"{b['name']:<{width}}  {fmt_time(base_ns):>10}  "
            f"{fmt_time(cur_ns):>10}  {speedup:5.2f}x{marker}"
        )
    return regressions


def pair_speedup(benches, slow_prefix, fast_prefix):
    slow = [time_ns(b) for b in benches if b["name"].startswith(slow_prefix)]
    fast = [time_ns(b) for b in benches if b["name"].startswith(fast_prefix)]
    if not slow or not fast:
        sys.exit(
            f"error: --pair found no benchmarks for "
            f"'{slow_prefix}' and/or '{fast_prefix}'"
        )
    return (sum(slow) / len(slow)) / (sum(fast) / len(fast))


def check_counter(benches, prefix, counter, bound, upper):
    flag, word, op = (
        ("--counter-max", "ceiling", ">") if upper
        else ("--counter-min", "floor", "<")
    )
    hits = [b for b in benches if b["name"].startswith(prefix)]
    if not hits:
        sys.exit(f"error: {flag} found no benchmarks for '{prefix}'")
    for b in hits:
        if counter not in b:
            sys.exit(f"error: '{b['name']}' reports no counter '{counter}'")
        print(f"{b['name']}: {counter} = {b[counter]:.3f} ({word} {bound})")
        if (b[counter] > bound) if upper else (b[counter] < bound):
            sys.exit(
                f"error: {b['name']}: {counter} {b[counter]:.3f} {op} "
                f"allowed {word} {bound}"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="BENCH_<name>.json to read")
    parser.add_argument("baseline", nargs="?", help="older JSON to compare to")
    parser.add_argument(
        "--check",
        action="store_true",
        help="only validate that the file exists and holds results",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME_PREFIX",
        help="fail unless a benchmark with this name prefix is present "
        "(repeatable)",
    )
    parser.add_argument(
        "--pair",
        nargs=2,
        metavar=("SLOW_PREFIX", "FAST_PREFIX"),
        help="benchmark-name prefixes to compare within the current file",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless the --pair speedup reaches this factor",
    )
    parser.add_argument(
        "--counter-min",
        nargs=3,
        action="append",
        default=[],
        metavar=("NAME_PREFIX", "COUNTER", "MIN"),
        help="fail unless every benchmark with this name prefix reports "
        "COUNTER >= MIN (repeatable)",
    )
    parser.add_argument(
        "--counter-max",
        nargs=3,
        action="append",
        default=[],
        metavar=("NAME_PREFIX", "COUNTER", "MAX"),
        help="fail unless every benchmark with this name prefix reports "
        "COUNTER <= MAX (repeatable)",
    )
    parser.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="with a baseline: exit 1 when any benchmark regressed >10%%",
    )
    args = parser.parse_args()

    benches = load(args.current)
    for prefix in args.require:
        hits = sum(1 for b in benches if b["name"].startswith(prefix))
        if hits == 0:
            sys.exit(
                f"error: '{args.current}' holds no benchmark named "
                f"'{prefix}*' (series missing from the sweep?)"
            )
        print(f"ok: '{prefix}*' present ({hits} result(s))")
    if args.check:
        print(f"ok: '{args.current}' holds {len(benches)} benchmark results")
    else:
        summarize(benches)

    if args.baseline:
        print()
        regressions = compare(benches, load(args.baseline))
        if regressions:
            print(f"{regressions} benchmark(s) regressed >10%")
            if args.fail_on_regression:
                sys.exit(1)

    if args.pair:
        speedup = pair_speedup(benches, args.pair[0], args.pair[1])
        need = args.min_speedup or 1.0
        print(f"pair speedup {args.pair[0]} / {args.pair[1]}: {speedup:.3f}x")
        if speedup < need:
            sys.exit(f"error: pair speedup {speedup:.3f}x < required {need}x")

    for prefix, counter, floor in args.counter_min:
        check_counter(benches, prefix, counter, float(floor), upper=False)
    for prefix, counter, ceiling in args.counter_max:
        check_counter(benches, prefix, counter, float(ceiling), upper=True)


if __name__ == "__main__":
    main()
