import math

import numpy as np
import pytest

from cyclesync.dynamics import DEFAULT_QUARTIC, AgentParams
from cyclesync.fixtures import demo_flow_table
from cyclesync.networks import (
    FINAL_DEMAND,
    FlowRecord,
    FlowTable,
    build_io_network,
    build_topology,
)


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


def paper_flow_table(seed: int) -> FlowTable:
    """Seeded synthetic flow table at the paper's dimension, 27 sectors x 17 countries.

    Within each country, scaled by a size drawn from [0.5, 1.5], every
    sector trades with itself and its neighbour in a chain and with about
    half of the others, at values spread over two decades.  Countries are
    joined in a ring and to two random partners each, by three small flows
    between random sectors per link.  Flows are symmetric, and final demand
    takes 30% of each sector's output.
    """
    rng = np.random.default_rng(seed)
    n_countries, n_sectors = 17, 27
    countries = [f"C{i:02d}" for i in range(n_countries)]
    sectors = [f"S{i:02d}" for i in range(n_sectors)]
    flows = {}

    def add(a, b, value):
        flows[a + b] = flows.get(a + b, 0.0) + value
        if a != b:
            flows[b + a] = flows.get(b + a, 0.0) + value

    for c in countries:
        size = rng.uniform(0.5, 1.5)
        for i in range(n_sectors):
            for j in range(i, n_sectors):
                if j <= i + 1 or rng.random() < 0.5:
                    add((sectors[i], c), (sectors[j], c), size * 10 ** rng.uniform(0.0, 2.0))
    links = {(k, (k + 1) % n_countries) for k in range(n_countries)}
    for k in range(n_countries):
        links |= {tuple(sorted((k, int(m)))) for m in rng.choice(n_countries, 2) if m != k}
    for k, m in sorted(links):
        for _ in range(3):
            add((sectors[rng.integers(n_sectors)], countries[k]),
                (sectors[rng.integers(n_sectors)], countries[m]), 10 ** rng.uniform(0.5, 1.5))
    output = {}
    for (s, c, _, _), value in flows.items():
        output[(s, c)] = output.get((s, c), 0.0) + value
    records = [FlowRecord(*key, value) for key, value in flows.items()]
    records += [FlowRecord(s, c, FINAL_DEMAND, c, 0.3 / 0.7 * total)
                for (s, c), total in output.items()]
    return FlowTable(records)


def hub_flow_table() -> FlowTable:
    """One country: a hub sector trading evenly with four identical leaf sectors.

    The leaves repeat the eigenvalue 0.8 of I - W three times.  Final demand
    takes different shares of hub and leaf output, so W is not reversible
    (its detailed-balance gap is 0.14 of the largest flow) and its modes come
    from ``np.linalg.eig``; the spectrum is real.
    """
    records = [FlowRecord("HUB", "X", "HUB", "X", 2.0),
               FlowRecord("HUB", "X", FINAL_DEMAND, "X", 6.0)]
    for leaf in ("L1", "L2", "L3", "L4"):
        records += [FlowRecord(leaf, "X", leaf, "X", 1.0),
                    FlowRecord(leaf, "X", "HUB", "X", 3.0),
                    FlowRecord("HUB", "X", leaf, "X", 3.0),
                    FlowRecord(leaf, "X", FINAL_DEMAND, "X", 1.0)]
    return FlowTable(records)


@pytest.fixture(scope="session")
def paper_io_network():
    return build_io_network(paper_flow_table(seed=0))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def singular_modes(monkeypatch):
    """``np.linalg.eig`` with its second eigenvector replaced by the first."""
    eig = np.linalg.eig

    def duplicated(matrix):
        lam, q = eig(matrix)
        q[:, 1] = q[:, 0]
        return lam, q

    monkeypatch.setattr(np.linalg, "eig", duplicated)


@pytest.fixture
def near_singular_modes(monkeypatch):
    """``np.linalg.eig`` with an eigenvector of a repeated eigenvalue tilted to
    within 1e-10 of another: still eigenvectors, but a nearly singular basis."""
    eig = np.linalg.eig

    def tilted(matrix):
        lam, q = eig(matrix)
        i, j = next((i, j) for i in range(lam.size) for j in range(i + 1, lam.size)
                    if abs(lam[i] - lam[j]) < 1e-9)
        q[:, j] = q[:, i] + 1e-10 * q[:, j]
        return lam, q

    monkeypatch.setattr(np.linalg, "eig", tilted)


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n[ACCEPTANCE] {name}: {report.outcome.upper()}")
