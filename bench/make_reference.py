"""Regenerate reference.json from the library's own sweep.

    python3 bench/make_reference.py [workload ...]

For each in-process workload and each recorded seed (DEFAULT_SEED and
HELD_OUT_SEED), stores the first REFERENCE_SWEEPS sweeps as
`run_sweep(workers=1)` aggregates them: per point mean_ours,
mean_baseline and the exclusion count.  Named workloads are recomputed
and merged into the existing file; with no names, all are.  Run it only
at a commit whose results are known good, since every benchmark run is
checked against this file.
"""

import json
import sys

import run

REFERENCE_SWEEPS = 64


def main(names):
    uv = run.load_uavwpt()
    names = names or [n for n, wl in run.WORKLOADS.items()
                      if not wl.reference]
    data = (json.loads(run.REFERENCE_PATH.read_text())
            if run.REFERENCE_PATH.exists() else {})
    for name in names:
        wl = run.WORKLOADS[name]
        data[name] = {}
        for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
            sweeps = run.Sweeps(uv, wl, seed)
            rows = []
            for r in range(REFERENCE_SWEEPS):
                results, _ = uv.run_sweep(sweeps.config(r), sweeps.spec())
                rows.append([[a.mean_ours, a.mean_baseline, a.exclusions]
                             for a in results])
            data[name][str(seed)] = rows
            print(f"{name} seed {seed}: {len(rows)} sweeps", flush=True)
    run.REFERENCE_PATH.write_text(json.dumps(data, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
