import pytest
from hypothesis import HealthCheck, settings

from uavwpt import experiments, stm, ttm

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# what empties each memo the package keeps: the budget-price searches,
# run_trial's kept trial draws and the TTM hover denominators
_MEMOS = (stm._lead_price.cache_clear, experiments._DRAWS.clear,
          ttm._DENOMS.clear)


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts and ends with empty memos, so no test's outcome
    or counts depend on which tests ran before it."""
    for clear in _MEMOS:
        clear()
    yield
    for clear in _MEMOS:
        clear()
