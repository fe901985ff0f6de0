"""Trial-throughput benchmark for uavwpt.

    python3 bench/run.py --workload stm-power --seed 1 --seconds 50 --trace 0

Run from the repository root.  The package is imported from ./src, never
from an installed copy, so the benchmark always measures the checkout.

A workload is a one-parameter sweep in the shape of an acceptance
criterion.  A run repeats whole sweeps until --seconds have passed;
sweep r of seed s is exactly what `run_sweep` does for the config with
master seed s * SWEEP_STRIDE + r, so every run sees distinct inputs.
The in-process workloads drive the same (point, trial index) tasks in
the same order as `run_sweep(workers=1)`, timing each `run_trial` call;
sweep-pool calls `run_sweep(workers=2)` itself.  All workloads are
closed loops with one caller.

Timings are in reference seconds (see hostspeed.py): fixed calibration
chunks run between trials, and each stretch of trials is scaled by how
fast the host ran the chunks around it, so that the shared host's
changes of speed do not read as changes of the program.  The measured
figures are printed too, as raw.*, but kept out of the result line.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first
traced_sweeps(--seconds) sweeps untraced, then twice more with every
public layer function wrapped (see tracing.py), and prints the
per-layer metrics.  Every run checks its
sweeps against reference.json where that file has them, and always
replays sweep 0 of the recorded seeds as a canary.  The last stdout line
is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import array
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

DEFAULT_SEED = 1
HELD_OUT_SEED = 9
SWEEP_STRIDE = 1_000_000
SETUP_PROBES = 5
REL_TOL = 1e-9
# inherited, reported, and never set here: capping BLAS threads would
# hide the oversubscription sweep-pool exists to expose
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclasses.dataclass(frozen=True)
class Workload:
    param: str
    values: tuple
    objective: str
    trials: int                 # per point and sweep
    overrides: tuple = ()       # (field, value) pairs on ScenarioConfig()
    workers: int = 1
    reference: str = ""         # workload whose reference applies

    @property
    def tasks(self) -> int:
        return len(self.values) * self.trials


WORKLOADS = {
    # criterion-5 shape: the closed-form dual chain dominates
    "stm-power": Workload("pt_db", (0.0, 2.0, 4.0, 6.0, 8.0), "stm", 20),
    # criterion-6 shape, K = 30 and 45: long chains and SLSQP fallbacks
    "stm-groups": Workload("N", (6.0, 9.0), "stm", 20),
    # time mode: no STM root search or SQP; coefficient building dominates
    "ttm-demand": Workload("I_nats", (1.0, 10.0, 30.0), "ttm", 300,
                           overrides=(("pt_db", 2.0),)),
    # stm-groups inputs through the process pool of `uavwpt sweep`
    "sweep-pool": Workload("N", (6.0, 9.0), "stm", 20, workers=2,
                           reference="stm-groups"),
}


def load_uavwpt():
    """Import uavwpt from the checkout's src/, or exit with an error."""
    if not (ROOT / "src" / "uavwpt" / "__init__.py").is_file():
        sys.exit(f"bench: no uavwpt sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import uavwpt
    return uavwpt


class Sweeps:
    """Configs of every sweep of one workload and seed."""

    def __init__(self, uv, wl: Workload, seed: int):
        self.uv = uv
        self.wl = wl
        self.seed = seed
        self.base = dataclasses.replace(uv.ScenarioConfig(),
                                        **dict(wl.overrides)).validate()

    def config(self, r: int):
        return dataclasses.replace(self.base,
                                   seed=self.seed * SWEEP_STRIDE + r)

    def spec(self):
        return self.uv.SweepSpec(param=self.wl.param, values=self.wl.values,
                                 trials=self.wl.trials,
                                 objective=self.wl.objective)

    def points(self, r: int):
        from uavwpt.experiments import apply_sweep_value
        cfg = self.config(r)
        return [apply_sweep_value(cfg, self.wl.param, v)
                for v in self.wl.values]

    def warm_up(self):
        """One trial whose index lies outside every measured range."""
        self.uv.run_trial(self.points(0)[0], self.wl.trials,
                          self.wl.objective)

    def run(self, r: int, latencies=None, host=None):
        """Sweep r: per point (mean_ours, mean_baseline, exclusions).

        With `host` (a hostspeed.HostClock), calibration chunks run
        between trials, outside the trial timings."""
        if self.wl.workers > 1:
            results, _ = self.uv.run_sweep(self.config(r), self.spec(),
                                           workers=self.wl.workers)
            return [(a.mean_ours, a.mean_baseline, a.exclusions)
                    for a in results]
        run_trial = self.uv.run_trial
        clock = time.perf_counter
        out = []
        for pc in self.points(r):
            ours, base = [], []
            for t in range(self.wl.trials):
                t0 = clock()
                try:
                    res = run_trial(pc, t, self.wl.objective)
                except self.uv.UavWptError:
                    res = None
                dt = clock() - t0
                if latencies is not None:
                    latencies.append(dt)
                if host is not None:
                    host.tick(dt)
                if res is not None:
                    ours.append(res.ours)
                    base.append(res.baseline)
            out.append((_mean(ours), _mean(base),
                        self.wl.trials - len(ours)))
        return out


def _mean(values):
    return math.fsum(values) / len(values) if values else math.nan


def sweep_mismatches(got, expected, label: str):
    """Differences between one sweep's points and their reference."""
    if len(got) != len(expected):
        return [f"{label}: {len(got)} points, reference has {len(expected)}"]
    out = []
    for p, ((mo, mb, ex), (ro, rb, rex)) in enumerate(zip(got, expected)):
        if ex != rex:
            out.append(f"{label} point {p}: {ex} exclusions, reference {rex}")
        for name, v, ref in (("mean_ours", mo, ro), ("mean_baseline", mb, rb)):
            if not abs(v - ref) <= REL_TOL * abs(ref):
                out.append(f"{label} point {p}: {name} {v!r}, "
                           f"reference {ref!r}")
    return out


def sweep_invariants(got, wl: Workload, label: str):
    out = []
    for p, (mo, mb, ex) in enumerate(got):
        if ex == wl.trials:
            out.append(f"{label} point {p}: every trial failed")
        elif not (mo > 0.0 and mb > 0.0 and math.isfinite(mo + mb)):
            out.append(f"{label} point {p}: means {mo!r}, {mb!r} "
                       "not finite and positive")
    return out


def load_reference(name: str):
    data = json.loads(REFERENCE_PATH.read_text())
    return {int(seed): sweeps for seed, sweeps in data[name].items()}


class Checker:
    """Collects every correctness failure of one run."""

    def __init__(self, wl: Workload, reference):
        self.wl = wl
        self.reference = reference
        self.failures = []
        self.checked = 0

    def check(self, sweeps: Sweeps, r: int, got):
        label = f"seed {sweeps.seed} sweep {r}"
        self.failures += sweep_invariants(got, self.wl, label)
        expected = self.reference.get(sweeps.seed, [])
        if r < len(expected):
            self.failures += sweep_mismatches(got, expected[r], label)
            self.checked += 1

    def canary(self, uv, skip_seed: int):
        """Replay sweep 0 of every recorded seed (untimed)."""
        for seed in sorted(self.reference):
            if seed != skip_seed:
                sw = Sweeps(uv, self.wl, seed)
                self.check(sw, 0, sw.run(0))


def measure(sweeps: Sweeps, checker: Checker, seconds: float, count=None):
    """Run sweeps 0, 1, ... until `seconds` pass (or exactly `count`).

    Returns (results per sweep, per-trial latencies, wall seconds,
    usage as a dict).  Latencies, the wall seconds and the CPU seconds
    are in reference seconds (see hostspeed.py); "raw_wall_s" and
    "raw_cpu_s" are as measured.  None of them include the calibration
    chunks.  Latencies are single floats so that their storage barely
    moves peak_rss_mb even at many more trials per run.
    """
    import hostspeed  # not at module level: numpy belongs to setup_s
    results, latencies = [], array.array("f")
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    host = hostspeed.HostClock(latencies)
    t0 = time.perf_counter()
    r = 0
    while r < SWEEP_STRIDE:
        results.append(sweeps.run(r, latencies, host))
        host.split()
        r += 1
        if (r == count if count is not None
                else time.perf_counter() - t0 >= seconds):
            break
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    child_cpu = (kids1.ru_utime + kids1.ru_stime
                 - kids0.ru_utime - kids0.ru_stime)
    wall = host.wall
    usage = {
        "raw_wall_s": host.raw_wall, "raw_cpu_s": host.raw_cpu + child_cpu,
        "self_cpu_s": host.cpu,
        # pool workers run no chunks: scale their CPU by the run's mean
        # wall factor
        "child_cpu_s": child_cpu * wall / host.raw_wall,
        "child_invol_csw": kids1.ru_nivcsw - kids0.ru_nivcsw,
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
    }
    for r, got in enumerate(results):
        checker.check(sweeps, r, got)
    return results, latencies, wall, usage


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def setup_seconds(workload: str, seed: int):
    """Median setup time of SETUP_PROBES fresh processes, as measured."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples), samples


def probe_setup(workload: str, seed: int) -> float:
    """Import uavwpt, build the configs and run the warm-up trial."""
    t0 = time.perf_counter()
    uv = load_uavwpt()
    Sweeps(uv, WORKLOADS[workload], seed).warm_up()
    return time.perf_counter() - t0


def environment(uv):
    import numpy
    import scipy
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in
                ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unavailable"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "uavwpt": uv.__version__,
        "blas": blas, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(wl, results, latencies, wall, usage):
    trials = len(results) * wl.tasks
    failed = sum(ex for sweep in results for (_, _, ex) in sweep)
    done = trials - failed
    metrics = {
        "trials_per_s": (done / wall, "1/s"),
        "cpu_ms_per_trial": (1e3 * (usage["self_cpu_s"] + usage["child_cpu_s"])
                             / trials, "ms"),
        "peak_rss_mb": (usage["peak_rss_mb"], "MB"),
    }
    info = {
        "failed_share": (failed / trials, "ratio"),
        "raw.trials_per_s": (done / usage["raw_wall_s"], "1/s"),
        "raw.cpu_ms_per_trial": (1e3 * usage["raw_cpu_s"] / trials, "ms"),
    }
    if latencies:
        lat = sorted(latencies)
        metrics["trial_p90_ms"] = (1e3 * percentile(lat, 0.90), "ms")
        metrics["trial_p50_ms"] = (1e3 * percentile(lat, 0.50), "ms")
    return trials, failed, metrics, info


def run_untraced(uv, name, wl, seed, seconds, checker):
    sweeps = Sweeps(uv, wl, seed)
    sweeps.warm_up()
    results, latencies, wall, usage = measure(sweeps, checker, seconds)
    trials, failed, metrics, info = end_to_end(wl, results, latencies,
                                               wall, usage)
    setup, samples = setup_seconds(name, seed)
    # The host changes speed faster than a probe lasts: chunks run right
    # before or after each probe widened the spread between probes (0.15
    # measured, 0.24-0.30 calibrated, over 16 probes on the 2-vCPU VM).
    # The mean speed of the minute just measured is what the probes
    # share, so they get the run's own scale.
    metrics["setup_s"] = (setup * wall / usage["raw_wall_s"], "s")
    info["raw.setup_s"] = (setup, "s")
    print(f"{name} seed {seed}: {len(results)} sweeps x {wl.tasks} trials "
          f"in {usage['raw_wall_s']:.2f} s ({wall:.2f} reference s); "
          "setup samples " + " ".join(f"{s:.3f}" for s in samples))
    return trials, failed, metrics, info


def traced_sweeps(seconds: float) -> int:
    """Sweeps a traced run covers: about a fifth of --seconds untraced at
    the sizes above, so all three passes fit in the run."""
    return max(1, round(seconds / 5.0))


def run_traced(uv, name, wl, seed, seconds, checker):
    import tracing
    sweeps = Sweeps(uv, wl, seed)
    sweeps.warm_up()
    if wl.workers > 1:
        return run_pool_traced(uv, wl, sweeps, seconds, checker)
    # untraced reference pass, then the same sweeps traced twice; the
    # sweep count depends only on --seconds, so counts repeat across runs
    plain, _, wall0, _ = measure(sweeps, checker, 0.0, traced_sweeps(seconds))
    passes = []
    for _ in range(2):
        with tracing.traced(uv) as tracer:
            got, _, wall, usage = measure(sweeps, checker, 0.0, len(plain))
        if got != plain:
            checker.failures.append("traced results differ from untraced")
        passes.append((tracer, wall, wall / usage["raw_wall_s"]))
    trials = len(plain) * wl.tasks
    metrics, repeat = (tracing.layer_metrics(tracer, trials, scale)
                       for tracer, _, scale in passes)
    for key, (value, unit) in metrics.items():
        if unit != "ms" and repeat[key][0] != value:
            checker.failures.append(
                f"counter {key} did not repeat: {value!r} vs "
                f"{repeat[key][0]!r}")
    for key, (value, unit) in metrics.items():
        if unit == "ms":
            metrics[key] = (0.5 * (value + repeat[key][0]), unit)
    traced_wall = 0.5 * (passes[0][1] + passes[1][1])
    metrics["tracing.overhead_ms_per_trial"] = (
        1e3 * (traced_wall - wall0) / trials, "ms")
    metrics["tracing.overhead_share"] = (traced_wall / wall0 - 1.0, "ratio")
    failed = 3 * sum(ex for sweep in plain for (_, _, ex) in sweep)
    print(f"{name} seed {seed}: {len(plain)} sweeps x {wl.tasks} trials, "
          f"untraced {wall0:.2f} s, traced {passes[0][1]:.2f} s and "
          f"{passes[1][1]:.2f} s (reference s)")
    info = {key: metrics.pop(key) for key in tracing.TEXT_ONLY}
    return 3 * trials, failed, metrics, info


def run_pool_traced(uv, wl, sweeps, seconds, checker):
    """Pool layer numbers: worker spans never reach the parent, so these
    come from RUSAGE_CHILDREN and an in-process replay of the sweeps."""
    pooled, _, wall, usage = measure(sweeps, checker, seconds / 2.0)
    inproc = Sweeps(uv, dataclasses.replace(wl, workers=1), sweeps.seed)
    plain, _, wall1, _ = measure(inproc, checker, 0.0, len(pooled))
    for r, (a, b) in enumerate(zip(plain, pooled)):
        checker.failures += sweep_mismatches(a, b, f"in-process sweep {r}")
    trials = len(pooled) * wl.tasks
    print(f"sweep-pool seed {sweeps.seed}: {len(pooled)} sweeps x "
          f"{wl.tasks} trials, pool {wall:.2f} s, in-process {wall1:.2f} s")
    metrics = {
        "experiments.run_sweep.child_cpu_ms_per_trial":
            (1e3 * usage["child_cpu_s"] / trials, "ms"),
        "experiments.run_sweep.child_invol_ctx_switches_per_trial":
            (usage["child_invol_csw"] / trials, "count"),
        "experiments.run_sweep.scaling_efficiency":
            (wall1 / (wl.workers * wall), "ratio"),
    }
    failed = 2 * sum(ex for sweep in pooled for (_, _, ex) in sweep)
    return 2 * trials, failed, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.probe_setup:
        print(f"{probe_setup(args.workload, args.seed):.9f}")
        return 0

    uv = load_uavwpt()
    wl = WORKLOADS[args.workload]
    checker = Checker(wl, load_reference(wl.reference or args.workload))
    runner = run_traced if args.trace else run_untraced
    attempted, failed, metrics, info = runner(uv, args.workload, wl,
                                              args.seed, args.seconds,
                                              checker)
    checker.canary(uv, skip_seed=args.seed)

    for key, (value, unit) in {**metrics, **info}.items():
        print(f"  {key:<58} {value:.6g} {unit}")
    print(f"correctness: {checker.checked} sweeps matched reference.json "
          f"at {REL_TOL:g} relative; "
          + ("ok" if not checker.failures else
             f"{len(checker.failures)} FAILURES"))
    for line in checker.failures[:20]:
        print(f"  {line}")
    print("env " + json.dumps(environment(uv), sort_keys=True))
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if not checker.failures else 1


if __name__ == "__main__":
    sys.exit(main())
