#!/usr/bin/env python3
"""Build and run the stage-resolved benchmark (bench/perf/nisqpp_bench).

Run from the repository root:

  python3 bench/perf/run.py --workload W --seed N --seconds T --trace 0|1
      One workload in this process. The last stdout line is the result
      JSON ({"correct", "attempted", "failed", "metrics"}); the exit code
      is non-zero when an output check failed.

  python3 bench/perf/run.py --all [--seed N] [--seconds T] [--trace 0|1]
                            [--out FILE]
      Every workload in its own child process. Prints one
      "workload metric value unit" line per metric, appends one JSON line
      per run to FILE (default .bench_build/perf/runs.jsonl) and exits
      non-zero when any check failed.

  python3 bench/perf/run.py compare A.jsonl B.jsonl
      Median and quartiles of each metric in each set of runs, and a
      verdict against the bounds in BENCHMARK.json.

  python3 bench/perf/run.py --list

The first call configures and builds the driver into .bench_build/perf;
later calls rebuild incrementally. Build output goes to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "perf"
BINARY = BUILD / "nisqpp_bench"


def build():
    """Configure once, then build incrementally; exits 1 on failure."""
    try:
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "nisqpp_bench", "-j", "4"],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"run.py: building the benchmark failed: {err}")


def commit():
    """Commit of the source tree, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--short=12", "HEAD"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def driver_args(workload, seed, seconds, trace):
    args = [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--trace-out", str(BUILD / f"trace-{workload}.json")]
    return args


def workload_names():
    out = subprocess.run([str(BINARY), "--list"], capture_output=True,
                         text=True, check=True)
    return [line.split()[0] for line in out.stdout.splitlines() if line]


def run_all(opts):
    """Each workload in its own child process; JSON lines to opts.out."""
    out_path = Path(opts.out) if opts.out else BUILD / "runs.jsonl"
    ok = True
    with open(out_path, "a", encoding="utf-8") as sink:
        for name in workload_names():
            proc = subprocess.run(
                driver_args(name, opts.seed, opts.seconds, opts.trace),
                capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            info = next((json.loads(l)["info"] for l in lines
                         if l.startswith('{"info"')), {})
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode != 0 or not result or not result["correct"]:
                ok = False
                sys.stderr.write(proc.stdout + proc.stderr)
            if not result:
                print(f"{name} error no-result -")
                continue
            for metric, m in result["metrics"].items():
                print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
            host = dict(info.get("host", {}), commit=commit())
            sink.write(json.dumps({
                "workload": name, "seed": opts.seed, "trace": opts.trace,
                "fingerprint": info.get("fingerprint"), "host": host,
                "result": result}) + "\n")
    print(f"runs appended to {out_path}")
    return 0 if ok else 1


def load_runs(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound, better):
    """REGRESSION when B's median is worse than A's by more than the
    bound; unresolved when A's own quartile spread exceeds the bound and
    B does not beat every A run."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = quartiles(b)[1]
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b_med - a_med) / a_med if a_med else 0.0
    if worse > bound:
        return "REGRESSION"
    spread = (a_q3 - a_q1) / abs(a_med) if a_med else 0.0
    beats_all = all(sign * (x - y) < 0 for x in b for y in a)
    if spread > bound and not beats_all:
        return "unresolved"
    return "ok"


def compare(path_a, path_b):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)

    hosts = {json.dumps({k: v for k, v in r["host"].items()
                         if k != "commit"}, sort_keys=True)
             for r in runs_a + runs_b}
    if len(hosts) > 1:
        print("WARNING: host fingerprints differ between runs:")
        for h in sorted(hosts):
            print(f"  {h}")

    failed = False
    pins_a = {(r["workload"], r["seed"]): r["fingerprint"] for r in runs_a}
    for r in runs_b:
        key = (r["workload"], r["seed"])
        if key in pins_a and pins_a[key] != r["fingerprint"]:
            print(f"FINGERPRINT DIFFERS {key[0]} seed {key[1]}: "
                  f"{pins_a[key]} vs {r['fingerprint']}")
            failed = True

    def collect(runs):
        table = {}
        for r in runs:
            for metric, m in r["result"]["metrics"].items():
                table.setdefault((r["workload"], metric), []).append(
                    m["value"])
        return table

    table_a, table_b = collect(runs_a), collect(runs_b)
    print(f"{'workload':24} {'metric':34} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'change':>8}  verdict")
    for key in sorted(set(table_a) & set(table_b)):
        a, b = table_a[key], table_b[key]
        a_q1, a_med, a_q3 = quartiles(a)
        b_q1, b_med, b_q3 = quartiles(b)
        change = (b_med - a_med) / a_med * 100 if a_med else 0.0
        metric = bounds.get(key[1])
        if metric:
            v = verdict(a, b, metric["bound"], metric["better"])
            failed |= v == "REGRESSION"
        else:
            v = "info"
        print(f"{key[0]:24} {key[1]:34} "
              f"{f'{a_med:.5g} [{a_q1:.5g}, {a_q3:.5g}]':>32} "
              f"{f'{b_med:.5g} [{b_q1:.5g}, {b_q3:.5g}]':>32} "
              f"{change:+7.2f}%  {v} (n={len(a)}/{len(b)})")
    return 1 if failed else 0


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare A.jsonl B.jsonl")
        return compare(sys.argv[2], sys.argv[3])

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    opts = parser.parse_args()

    build()
    if opts.list:
        os.execv(BINARY, [str(BINARY), "--list"])
    if opts.all:
        return run_all(opts)
    if not opts.workload:
        parser.error("--workload, --all or --list is required")
    sys.stdout.flush()
    os.execv(BINARY, driver_args(opts.workload, opts.seed, opts.seconds,
                                 opts.trace))


if __name__ == "__main__":
    sys.exit(main())
