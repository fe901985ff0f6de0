"""Synthetic solver instances for the unit tests.

These bypass the geometry pipeline and build coefficient bundles
directly, so solver tests stay focused and fast: the solvers see a group
only through its aggregates a, b and gamma.
"""

import numpy as np

from uavwpt.channel import GroupCoefficients
from uavwpt.stm import StmProblem
from uavwpt.ttm import TtmProblem

ALTITUDE = 10.0
CAP = 1.0 / ALTITUDE**2


def synthetic_coeffs(rng, N, flight_dominant=True, gamma_range=(60.0, 600.0)):
    """Random positive coefficient bundle.

    flight_dominant=True draws b > a for every group (the UAV passes
    overhead inbound); False draws a > b (hovering is the better
    harvest, the start-hover solution structure).
    """
    a = rng.uniform(0.15 * CAP, 0.55 * CAP, N)
    if flight_dominant:
        b = np.minimum(a * rng.uniform(1.3, 2.4, N), CAP)
    else:
        b = a * rng.uniform(0.35, 0.85, N)
    gamma = rng.uniform(*gamma_range, N)
    return GroupCoefficients(
        a=tuple(float(v) for v in a),
        b=tuple(float(v) for v in b),
        gamma=tuple(float(v) for v in gamma),
    )


def stm_instance(seed, N=2, T=1000.0, v_max=10.0, flight_dominant=True):
    rng = np.random.default_rng(seed)
    coeffs = synthetic_coeffs(rng, N, flight_dominant)
    D = tuple(float(d) for d in rng.uniform(20.0, 30.0, N))
    return StmProblem(coeffs=coeffs, D=D, T=T, v_max=v_max)


def ttm_instance(seed, N=2, v_max=10.0, I_each=10.0, flight_dominant=True):
    rng = np.random.default_rng(seed)
    coeffs = synthetic_coeffs(rng, N, flight_dominant)
    D = tuple(float(d) for d in rng.uniform(20.0, 30.0, N))
    return TtmProblem(coeffs=coeffs, D=D, v_max=v_max, I=(I_each,) * N)
