"""Layer tracing for the benchmark, done entirely from outside uavwpt.

`traced(uv)` wraps every public function defined in the layer modules
(numerics, channel, geometry, stm, ttm, experiments) at each module
binding that refers to it, so calls between modules and within one
module both pass through a wrapper; on exit the originals are restored.

Each wrapper call is a span with a name, a start, an end and a parent
(the innermost enclosing span).  Spans are reduced as they close rather
than stored: a span's self time is its duration minus the durations of
its child spans, and the tracer keeps calls, total and self nanoseconds
per name.  Counts come from the same wrappers: calls per (function,
calling module), evaluations of the function handed to bisect_root, and
dual-chain evaluations per STM solve.
"""

import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

LAYER_MODULES = ("numerics", "channel", "geometry", "stm", "ttm",
                 "experiments")


class Tracer:
    def __init__(self):
        self.stats = {}            # name -> [calls, total_ns, self_ns]
        self.bound = {}            # (name, calling module) -> [calls]
        self.counts = Counter()
        self._stack = [[0]]        # child time of each open span

    def wrap(self, name: str, caller: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        bound = self.bound.setdefault((name, caller), [0])
        stack = self._stack
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            bound[0] += 1
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                stack[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]

        wrapper.__wrapped__ = fn
        return wrapper

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def self_ms(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] / 1e6

    def total_ms(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e6

    def calls_from(self, name: str, caller: str) -> int:
        return self.bound.get((name, caller), (0,))[0]


def _count_f_evals(tracer, fn, args, kwargs):
    f = args[0]

    def counted(x):
        tracer.counts["bisect_f_evals"] += 1
        return f(x)

    return fn(counted, *args[1:], **kwargs)


def _count_chain_evals(tracer, fn, args, kwargs):
    # one chain evaluation makes N lambert_w0 calls from uavwpt.stm
    before = tracer.calls_from("numerics.lambert_w0", "stm")
    try:
        return fn(*args, **kwargs)
    finally:
        made = tracer.calls_from("numerics.lambert_w0", "stm") - before
        tracer.counts["chain_evals"] += made / args[0].N


HOOKS = {
    "numerics.bisect_root": _count_f_evals,
    "stm.solve_stm": _count_chain_evals,
}


@contextmanager
def traced(uv):
    """Wrap the layer functions of the imported package `uv`."""
    names = {}
    for short in LAYER_MODULES:
        mod = sys.modules[f"{uv.__name__}.{short}"]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                names[obj] = f"{short}.{attr}"
    tracer = Tracer()
    patched = []
    modules = [m for key, m in sys.modules.items()
               if key == uv.__name__ or key.startswith(uv.__name__ + ".")]
    for mod in modules:
        caller = mod.__name__.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in names:
                setattr(mod, attr, tracer.wrap(names[obj], caller, obj))
                patched.append((mod, attr, obj))
    try:
        yield tracer
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)


# Layers that one gated workload bypasses entirely (the STM solver on
# ttm-demand, the TTM solver on stm-power), so their time reads exactly
# 0 there on every run.  Printed with the others, kept out of the result
# line.
TEXT_ONLY = ("stm.kkt_residuals.self_ms_per_trial",
             "stm.solve_stm.self_ms_per_trial",
             "stm.solve_stm_numeric.ms_per_call",
             "ttm.solve_ttm.self_ms_per_trial")


def _per(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Tracer, trials: int, scale: float = 1.0):
    """Per-layer metrics of one traced pass over `trials` trials; times
    are multiplied by `scale` (reference seconds per measured second)."""
    stm_solves = t.calls("stm.solve_stm")
    ttm_solves = t.calls("ttm.solve_ttm")
    fallbacks = t.calls("stm.solve_stm_numeric")
    bisects = t.calls("numerics.bisect_root")

    def per_trial_ms(name):
        return (scale * t.self_ms(name) / trials, "ms")

    return {
        "numerics.lambert_w0.calls_per_solve":
            (_per(t.calls("numerics.lambert_w0"), stm_solves + ttm_solves),
             "count"),
        "numerics.lambert_w0.self_ms_per_trial":
            per_trial_ms("numerics.lambert_w0"),
        "stm.chain_evals_per_solve":
            (_per(t.counts["chain_evals"], stm_solves), "count"),
        "numerics.bisect_root.calls_per_trial": (bisects / trials, "count"),
        "numerics.bisect_root.f_evals_per_call":
            (_per(t.counts["bisect_f_evals"], bisects), "count"),
        "numerics.bisect_root.self_ms_per_trial":
            per_trial_ms("numerics.bisect_root"),
        "stm.kkt_residuals.self_ms_per_trial":
            per_trial_ms("stm.kkt_residuals"),
        "stm.sum_throughput.calls_per_solve":
            (_per(t.calls("stm.sum_throughput"), stm_solves), "count"),
        "stm.solve_stm.self_ms_per_trial": per_trial_ms("stm.solve_stm"),
        "stm.solve_stm_numeric.share": (_per(fallbacks, stm_solves), "ratio"),
        "stm.solve_stm_numeric.ms_per_call":
            (scale * _per(t.total_ms("stm.solve_stm_numeric"), fallbacks),
             "ms"),
        "ttm.solve_ttm.self_ms_per_trial": per_trial_ms("ttm.solve_ttm"),
        "ttm.zeta_closed_form.calls_per_solve":
            (_per(t.calls("ttm.zeta_closed_form"), ttm_solves), "count"),
        "channel.group_coefficients.self_ms_per_trial":
            per_trial_ms("channel.group_coefficients"),
        "channel.uplink_gain.calls_per_trial":
            (t.calls("channel.uplink_gain") / trials, "count"),
        "geometry.singleton_plan.self_ms_per_trial":
            per_trial_ms("geometry.singleton_plan"),
        "experiments.generate_trial.self_ms_per_trial":
            per_trial_ms("experiments.generate_trial"),
    }
