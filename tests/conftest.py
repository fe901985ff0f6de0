import pytest
from hypothesis import HealthCheck, settings

from uavwpt import stm

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

_MEMOS = (stm._lead_price,)


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts and ends with empty memos, so no test's outcome
    or counts depend on which tests ran before it."""
    for memo in _MEMOS:
        memo.cache_clear()
    yield
    for memo in _MEMOS:
        memo.cache_clear()
