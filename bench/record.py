"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/record.py --workload stm-power --seeds 11-20 --trace 0

For every metric prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, which is
the interquartile distance as a share of the median.  With --save the
summary is merged into baseline.json under the workload and trace mode.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run

BASELINE_PATH = run.BENCH_DIR / "baseline.json"


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stdout}"
                 f"{proc.stderr[-2000:]}")
    env = next(json.loads(line[4:]) for line in lines
               if line.startswith("env "))
    result = json.loads(lines[-1])
    # metrics printed but kept out of the result line (see run.py)
    for line in lines:
        name, _, rest = line.strip().partition(" ")
        if line.startswith("  ") and name not in result["metrics"]:
            try:
                value, unit = rest.split()
                result["metrics"][name] = {"value": float(value),
                                           "unit": unit, "printed": True}
            except ValueError:
                pass
    return result, env


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
            "in_result_line": not results[0]["metrics"][name].get("printed"),
        }
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", default="11-20", help="first-last")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", action="store_true")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    results = []
    for seed in seeds:
        result, env = one_run(args.workload, seed, args.seconds, args.trace)
        if not result["correct"]:
            sys.exit(f"{args.workload} seed {seed}: incorrect results")
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        print(f"{name:<58} median {s['median']:.5g} {s['unit']}  "
              f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.3f}")
    if args.save:
        data = (json.loads(BASELINE_PATH.read_text())
                if BASELINE_PATH.exists() else {})
        data["env"] = env
        data.setdefault("runs", {}).setdefault(args.workload, {})[
            f"trace{args.trace}"] = {"seconds": args.seconds,
                                     "seeds": seeds, "metrics": summary}
        BASELINE_PATH.write_text(json.dumps(data, indent=1, sort_keys=True)
                                 + "\n")


if __name__ == "__main__":
    main()
