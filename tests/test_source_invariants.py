"""The package's source invariants: the patterns that the grep steps of
.github/workflows/tests.yml run over src/, here run over every Python
source under src/, so that Tier-1 holds them wherever it runs."""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CHANNEL, NUMERICS = "uavwpt/channel.py", "uavwpt/numerics.py"
EXPERIMENTS = "uavwpt/experiments.py"

# name: (pattern, whether a source file, by its path under src/, is
# searched), as the CI step of that name greps
INVARIANTS = {
    # run_trial's store is the one state kept between calls
    "no hash-keyed memo": (r"lru_cache|weakref", lambda name: True),
    # every flight coefficient comes from channel; atan matches atan2
    "one leg-average formula": (r"atan", lambda name: name != CHANNEL),
    # every W0 comes from numerics.lambert_w0
    "one Lambert W": (r"_W_MAX_ITER|_W_STEP_TOL|_INV_E",
                      lambda name: name != NUMERICS),
    # every price search calls numerics.bracketed_newton
    "one root finder": (r"(?i)def [a-z_]*(newton|halley|bisect)",
                        lambda name: name != NUMERICS),
    # _KeptPlan.solve calls stm._kept_throughput or ttm._kept_total
    "one sweep entry per solver": (
        r"\b(_check_(budget|price|times|demands)|_(stm|ttm)_allocation"
        r"|_information)\b", lambda name: name == EXPERIMENTS),
}


def test_sources_are_found():
    names = {p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")}
    assert {CHANNEL, NUMERICS, EXPERIMENTS} <= names


@pytest.mark.parametrize("name", list(INVARIANTS))
def test_source_invariant(name):
    pattern, searched = INVARIANTS[name]
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.relative_to(SRC).as_posix()
        if not searched(source):
            continue
        for n, line in enumerate(path.read_text(encoding="utf-8")
                                 .splitlines(), 1):
            if re.search(pattern, line):
                hits.append(f"{source}:{n}: {line.strip()}")
    assert not hits, f"{name}: " + "; ".join(hits)
