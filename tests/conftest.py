import math

import numpy as np
import pytest

from cyclesync.dynamics import DEFAULT_QUARTIC, AgentParams
from cyclesync.fixtures import demo_flow_table
from cyclesync.networks import build_io_network, build_topology


def oracle_cf_cycle(x, p_low, p_high, drift):
    """Christiano-Fitzgerald asymmetric random-walk cycle, one weight at a time.

    c_t = B0 x_t + sum_{j=1}^{n-2-t} B_j x_{t+j} + Bt_{n-1-t} x_{n-1}
              + sum_{j=1}^{t-1} B_j x_{t-j} + Bt_t x_0,
    B_j = (sin(j b) - sin(j a)) / (pi j), B0 = (b - a) / pi, and each
    endpoint weight Bt_k = -B0/2 - sum_{j=1}^{k-1} B_j makes the weights of
    one observation sum to zero.
    """
    n = len(x)
    a, b = 2 * math.pi / p_high, 2 * math.pi / p_low
    weights = [(b - a) / math.pi]
    weights += [(math.sin(j * b) - math.sin(j * a)) / (math.pi * j) for j in range(1, n)]
    if drift:
        slope = (x[n - 1] - x[0]) / (n - 1)
        x = [x[t] - slope * t for t in range(n)]
    cycle = []
    for t in range(n):
        c = weights[0] * x[t]
        lead_sum = 0.0
        for j in range(1, n - 1 - t):
            c += weights[j] * x[t + j]
            lead_sum += weights[j]
        c += (-0.5 * weights[0] - lead_sum) * x[n - 1]
        lag_sum = 0.0
        for j in range(1, t):
            c += weights[j] * x[t - j]
            lag_sum += weights[j]
        c += (-0.5 * weights[0] - lag_sum) * x[0]
        cycle.append(c)
    return np.array(cycle)


@pytest.fixture(scope="session")
def cycle_params():
    return AgentParams.with_steady_state(-0.04, 0.4, 0.1, DEFAULT_QUARTIC)


@pytest.fixture(scope="session")
def two_clique_adj():
    # bridge between the third and fourth node
    return build_topology("two_clique", sizes=(3, 3), bridge=(2, 3))


@pytest.fixture(scope="session")
def demo_io_network():
    return build_io_network(demo_flow_table())


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[ACCEPTANCE] {name}: {report.outcome.upper()}")
