import pytest
from hypothesis import HealthCheck, settings

from uavwpt import experiments

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

def fail_draws(monkeypatch, failing):
    """Make every draw of a trial index in `failing` run out of redraws
    (its members scattered onto their hover point); returns the trial
    indices drawn, in order."""
    real_rng, real_draw = experiments.trial_rng, experiments.generate_trial
    drawn = []

    def recorded_rng(seed, t):
        drawn.append(t)
        return real_rng(seed, t)

    def draw(config, rng):
        with monkeypatch.context() as m:
            if drawn[-1] in failing:
                m.setattr(experiments, "SCATTER_SPAN", (0.0, 0.05))
            return real_draw(config, rng)

    monkeypatch.setattr(experiments, "trial_rng", recorded_rng)
    monkeypatch.setattr(experiments, "generate_trial", draw)
    return drawn


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts and ends with `run_trial`'s store empty, the one
    state the package keeps between calls, so no test's outcome or
    counts depend on which tests ran before it."""
    experiments._DRAWS.clear()
    yield
    experiments._DRAWS.clear()
