"""Interaction networks, their generalized Laplacians and centralities.

Two kinds of networks appear.  Abstract topologies (complete, star, chain,
two cliques joined by a bridge) carry uniform coupling: each node keeps
weight ``1 - eps`` on itself and spreads ``eps`` equally over its
neighbours.  Input-output networks are built from value-flow tables: each
sector row is its flow shares, and a final-demand node per country weights
domestic sectors by their output shares.

Every interaction matrix is row-stochastic.  The spectral object used
throughout is ``B = I - W``: its rows sum to zero, the eigenvalue 0 comes
with the constant eigenvector, and for uniform coupling on an undirected
graph its spectrum is ``eps`` times that of the degree-normalized graph
Laplacian (real, inside [0, 2]).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._format import read_table, write_table
from .errors import (
    ConfigError,
    DataError,
    Disconnected,
    IllConditioned,
    MissingFinalDemand,
    NumericalError,
    Reducible,
    ZeroOutput,
)

__all__ = [
    "Adjacency",
    "InteractionNetwork",
    "FlowRecord",
    "FlowTable",
    "SpectralDecomposition",
    "FINAL_DEMAND",
    "build_topology",
    "uniform_coupling",
    "build_io_network",
    "generalized_laplacian",
    "fiedler_vector",
    "eigenvector_centrality",
]

#: sector code marking final-demand destinations in flow tables
FINAL_DEMAND = "FinD"

_ROW_SUM_TOL = 1e-10
#: largest eigenvalue imaginary part for which the real-part approximation holds
_MAX_IMAGINARY = 0.2


def _node_groups(keys) -> dict:
    """Indices carrying each distinct key, keys in first-seen order.

    The one grouping of nodes (or records) by sector, country or block key.
    """
    members = {}
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
    return members


@dataclass(frozen=True)
class Adjacency:
    """Undirected, unweighted graph as a dense 0/1 matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError("adjacency must be square")
        if not np.array_equal(m, m.T):
            raise ConfigError("adjacency must be symmetric")
        if np.any(np.diag(m) != 0):
            raise ConfigError("self-loops are not allowed")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        return self.matrix.sum(axis=1)


def _check_outputs(outputs, n: int) -> np.ndarray:
    """``outputs`` as a float array; ConfigError unless it is (n,), finite and non-negative."""
    outputs = np.asarray(outputs, dtype=float)
    if outputs.shape != (n,):
        raise ConfigError(f"outputs must have shape ({n},), got {outputs.shape}")
    # comparisons are false for NaN, so the range is stated positively
    bad = np.flatnonzero(~((outputs >= 0) & (outputs < np.inf)))
    if bad.size:
        raise ConfigError(f"outputs must be finite and non-negative, "
                          f"got {outputs[bad[0]]} at node {bad[0]}")
    return outputs


@dataclass
class InteractionNetwork:
    """Row-stochastic interaction matrix with node metadata.

    ``outputs`` are steady-state output levels (currency units) used for
    size-weighted aggregation; abstract networks default to ones.
    """

    weights: np.ndarray
    labels: list = field(default_factory=list)
    sectors: list = field(default_factory=list)
    countries: list = field(default_factory=list)
    outputs: np.ndarray = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        self.weights = w
        n = w.shape[0]
        if w.ndim != 2 or w.shape[1] != n:
            raise ConfigError("weight matrix must be square")
        # comparisons are false for NaN, so each range check is stated positively
        if not np.all((w >= -1e-15) & (w <= 1.0 + 1e-12)):
            raise ConfigError("interaction weights must be finite and lie in [0, 1]")
        if np.max(np.abs(w.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
            raise ConfigError("every row of the interaction matrix must sum to 1")
        if not self.labels:
            self.labels = [str(i) for i in range(n)]
        if not self.sectors:
            self.sectors = [None] * n
        if not self.countries:
            self.countries = [None] * n
        if len(self.labels) != n or len(self.sectors) != n or len(self.countries) != n:
            raise ConfigError("metadata length must match the node count")
        self.outputs = np.ones(n) if self.outputs is None else _check_outputs(self.outputs, n)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class FlowRecord:
    source_sector: str
    source_country: str
    dest_sector: str
    dest_country: str
    value: float


@dataclass
class FlowTable:
    """Value flows between sector-country pairs and final demand.

    Names are non-empty and carry no leading or trailing whitespace, so
    ``from_csv``, which strips every cell, reads back what ``to_csv`` wrote.
    """

    records: list

    HEADER = ("source_sector", "source_country", "dest_sector", "dest_country", "value")

    def __post_init__(self):
        for k, r in enumerate(self.records):
            for name in self.HEADER[:4]:
                label = getattr(r, name)
                if not label:
                    raise DataError(f"flow record {k} {r}: empty {name}")
                if label != label.strip():
                    raise DataError(f"flow record {k} {r}: {name} {label!r} has "
                                    "leading or trailing whitespace")

    @classmethod
    def from_csv(cls, path) -> "FlowTable":
        records = []
        for lineno, row in read_table(path, cls.HEADER, DataError):
            try:
                value = float(row[4])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad value {row[4]!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite flow {row[4]!r}")
            if value < 0:
                raise DataError(f"{path}:{lineno}: negative flow {value}")
            names = [cell.strip() for cell in row[:4]]
            if not all(names):
                raise DataError(f"{path}:{lineno}: empty {cls.HEADER[names.index('')]}")
            records.append(FlowRecord(*names, value))
        return cls(records)

    def to_csv(self, path):
        write_table(path, self.HEADER,
                    *([getattr(r, name) for r in self.records] for name in self.HEADER))


@dataclass
class SpectralDecomposition:
    """Eigen decomposition of B = I - W (or of a normalized Laplacian).

    Eigenvalues are sorted ascending by real part; ``modes`` holds the real
    parts of the unit-norm right eigenvectors as columns, ``modes_inv`` the
    inverse of that matrix.  ``max_imag`` records the largest imaginary
    magnitude seen in eigenvalues or eigenvectors before it was dropped.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    modes: np.ndarray
    modes_inv: np.ndarray
    max_imag: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def build_topology(kind: str, n: int = None, *, sizes=None, bridge=None) -> Adjacency:
    """Build one of the named undirected topologies.

    ``complete``, ``star`` (node 0 is the hub) and ``chain`` take the node
    count ``n``.  ``two_clique`` takes the two clique ``sizes`` and the
    ``bridge`` pair of global node indices (defaults to the last node of the
    first clique and the first node of the second).
    """
    if kind == "two_clique":
        if sizes is None:
            sizes = (3, 3)
        if len(sizes) != 2:
            raise ConfigError(f"two_clique sizes must give 2 clique sizes, got {list(sizes)}")
        s1, s2 = sizes
        if s1 < 2 or s2 < 2:
            raise ConfigError("each clique needs at least 2 nodes")
        total = s1 + s2
        m = np.zeros((total, total))
        m[:s1, :s1] = m[s1:, s1:] = 1
        np.fill_diagonal(m, 0)
        if bridge is None:
            bridge = (s1 - 1, s1)
        if len(bridge) != 2:
            raise ConfigError(f"two_clique bridge must give 2 node indices, got {list(bridge)}")
        a, b = bridge
        if not (0 <= a < s1 <= b < total):
            raise ConfigError("bridge must connect one node from each clique")
        m[a, b] = m[b, a] = 1
        return Adjacency(m)

    if n is None or n < 2:
        raise ConfigError(f"topology {kind!r} needs at least 2 nodes")
    m = np.zeros((n, n))
    if kind == "complete":
        m[:] = 1
        np.fill_diagonal(m, 0)
    elif kind == "star":
        m[0, 1:] = 1
        m[1:, 0] = 1
    elif kind == "chain":
        idx = np.arange(n - 1)
        m[idx, idx + 1] = 1
        m[idx + 1, idx] = 1
    else:
        raise ConfigError(f"unknown topology kind {kind!r}")
    return Adjacency(m)


def uniform_coupling(adj: Adjacency, eps: float) -> InteractionNetwork:
    """Uniform coupling on a graph: self-weight 1 - eps, eps/k_i per neighbour."""
    if not 0.0 <= eps <= 1.0:
        raise ConfigError(f"coupling strength must lie in [0, 1], got {eps}")
    k = adj.degrees.astype(float)
    n = adj.n
    w = np.eye(n) * (1.0 - eps)
    if eps > 0:
        safe_k = np.where(k > 0, k, 1.0)
        w += eps * adj.matrix / safe_k[:, None]
        if np.any(k == 0):
            # isolated nodes keep full self-weight
            iso = np.flatnonzero(k == 0)
            w[iso, iso] = 1.0
    return InteractionNetwork(weights=w)


def build_io_network(flows: FlowTable) -> InteractionNetwork:
    """Row-normalized input-output network with one final-demand node per country.

    Sector rows are flow value shares of the sector's total output.  The
    final-demand row of country ``j`` puts weight O_ij / O_j on each domestic
    sector ``i`` (O_j the country's total sectoral output) and zero elsewhere.
    Node order: per country in order of first appearance, that country's
    sectors (global first-appearance order) followed by its final-demand node.
    """
    records = flows.records
    if any(r.source_sector == FINAL_DEMAND for r in records):
        raise DataError("final demand cannot be a flow source")
    countries = list(_node_groups([r.source_country for r in records]
                                  + [r.dest_country for r in records]))
    sectors = list(_node_groups([r.source_sector for r in records]
                                + [r.dest_sector for r in records
                                   if r.dest_sector != FINAL_DEMAND]))

    nodes = []
    for c in countries:
        nodes.extend((s, c) for s in sectors)
        nodes.append((FINAL_DEMAND, c))
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)

    ext = np.zeros((n, n))
    for r in records:
        ext[index[(r.source_sector, r.source_country)],
            index[(r.dest_sector, r.dest_country)]] += r.value

    outputs = ext.sum(axis=1)
    weights = np.zeros((n, n))
    for c in countries:
        find_row = index[(FINAL_DEMAND, c)]
        sector_ids = [index[(s, c)] for s in sectors]
        country_output = outputs[sector_ids].sum()
        for s, i in zip(sectors, sector_ids):
            if outputs[i] <= 0:
                raise ZeroOutput(f"sector {s!r} in {c!r} has no outgoing flow")
            weights[i] = ext[i] / outputs[i]
            weights[find_row, i] = outputs[i] / country_output
        final_inflow = ext[:, find_row].sum()
        if final_inflow <= 0:
            raise MissingFinalDemand(f"country {c!r} has no final-demand records")
        outputs[find_row] = final_inflow

    labels = [f"{s}|{c}" for s, c in nodes]
    return InteractionNetwork(weights=weights, labels=labels,
                              sectors=[s for s, _ in nodes],
                              countries=[c for _, c in nodes],
                              outputs=outputs)


def _reversible_centrality(net: InteractionNetwork):
    """The stationary distribution pi when W is reversible with respect to it,
    else None.

    W is reversible when its support is symmetric, it is irreducible and the
    flows pi_i W_ij satisfy detailed balance pi_i W_ij = pi_j W_ji to 1e-12
    relative to the largest flow.
    """
    links = net.weights > 0
    if not np.array_equal(links, links.T):
        return None
    try:
        pi = eigenvector_centrality(net)
    except Reducible:
        return None
    flows = pi[:, None] * net.weights
    if np.max(np.abs(flows - flows.T)) > 1e-12 * np.max(flows):
        return None
    return pi


def generalized_laplacian(net: InteractionNetwork) -> SpectralDecomposition:
    """Spectral decomposition of the coupling operator B = I - W.

    For a topology, ``generalized_laplacian(uniform_coupling(adj, eps))``
    gives B = eps * (I - A/k): the spectrum of the degree-normalized
    Laplacian scaled by eps, with the constant vector in the kernel.

    An exactly symmetric B is decomposed with ``eigh``.  So is a reversible
    W, one in detailed balance with its stationary distribution pi (uniform
    coupling on any undirected graph, IO tables with symmetric flows):
    with D = diag(pi), S = D^(1/2) B D^(-1/2) is symmetric, the modes are
    the columns of D^(-1/2) U for S's eigenvectors U, and their inverse is
    U^T D^(1/2) in closed form.  This keeps the basis well conditioned
    where an eigenvalue repeats.

    Other directed networks may have complex conjugate eigenvalue pairs.
    Each pair is represented by the two real columns (Re v, Im v) spanning
    its invariant plane, keeping the mode matrix real and invertible; the
    real parts of the eigenvalues are used downstream and the largest
    imaginary magnitude is recorded.  Imaginary parts beyond 0.2 abort
    rather than silently degrade the real-part approximation, and a
    singular mode matrix raises :class:`IllConditioned`.
    """
    b = np.eye(net.n) - net.weights
    symmetric = np.array_equal(b, b.T)
    pi = None if symmetric else _reversible_centrality(net)
    max_imag = 0.0
    if symmetric:
        lam_real, q_real = np.linalg.eigh(b)
    elif pi is not None:
        root = np.sqrt(pi)
        s = root[:, None] * b / root
        lam_real, u = np.linalg.eigh(0.5 * (s + s.T))
        q_real = u / root[:, None]
    else:
        lam, q = np.linalg.eig(b)
        order = np.argsort(lam.real, kind="stable")
        lam, q = lam[order], q[:, order]
        max_imag = float(np.abs(lam.imag).max(initial=0.0))
        if max_imag > _MAX_IMAGINARY:
            raise NumericalError(
                f"eigenvalue imaginary part {max_imag:.3g} exceeds "
                f"{_MAX_IMAGINARY}; the real-part approximation is unsafe"
            )
        lam_real = lam.real.copy()
        q_real = np.empty((net.n, net.n))
        col = 0
        while col < net.n:
            if abs(lam.imag[col]) <= 1e-12:
                q_real[:, col] = q[:, col].real
                col += 1
                continue
            if col + 1 >= net.n or abs(lam[col + 1] - np.conj(lam[col])) > 1e-9:
                raise NumericalError("unpaired complex eigenvalue")
            q_real[:, col] = q[:, col].real
            q_real[:, col + 1] = q[:, col].imag
            col += 2

    norms = np.linalg.norm(q_real, axis=0)
    if np.any(norms < 1e-12):
        raise NumericalError("a real eigenvector basis column collapsed")
    q_real = q_real / norms
    # deterministic sign: largest-magnitude component positive
    pivots = np.argmax(np.abs(q_real), axis=0)
    signs = np.where(q_real[pivots, np.arange(net.n)] < 0, -1.0, 1.0)
    q_real = q_real * signs

    # ascending on every path: eigh sorts, and eig's values were sorted above
    if net.n > 1 and lam_real[1] < 1e-10:
        raise Disconnected(
            f"second eigenvalue {lam_real[1]:.3g} vanishes: network disconnected"
        )
    if symmetric:
        q_inv = q_real.T
    elif pi is not None:
        q_inv = (u.T * root) * (norms * signs)[:, None]
    else:
        try:
            q_inv = np.linalg.inv(q_real)
        except np.linalg.LinAlgError:
            raise IllConditioned("eigenvector matrix is singular: the modes do not "
                                 "span the node space") from None
    return SpectralDecomposition(matrix=b, eigenvalues=lam_real,
                                 modes=q_real, modes_inv=q_inv,
                                 max_imag=max_imag)


def fiedler_vector(spec: SpectralDecomposition, outputs=None) -> np.ndarray:
    """Eigenvector of the second-smallest eigenvalue, sign-normalized.

    With ``outputs`` given, one per node, the component of the highest-output
    node is made positive; otherwise the first nonzero component is made
    positive.  Warns when the spectral gap above lambda_2 nearly vanishes;
    raises :class:`ConfigError` for a single node, which has no second
    eigenvector, and for ``outputs`` not of shape (N,), finite and
    non-negative.
    """
    if spec.n < 2:
        raise ConfigError("a network of one node has no Fiedler vector")
    lam = spec.eigenvalues
    if spec.n >= 3 and lam[2] - lam[1] < 1e-8:
        warnings.warn("near-degenerate lambda_2: Fiedler vector is ill-determined",
                      stacklevel=2)
    v = spec.modes[:, 1].copy()
    if outputs is not None:
        pivot = int(np.argmax(_check_outputs(outputs, spec.n)))
    else:
        pivot = int(np.flatnonzero(np.abs(v) > 1e-12)[0])
    if v[pivot] < 0:
        v = -v
    return v


def _reaches_all(links: np.ndarray) -> bool:
    """Whether every node is reachable from node 0 along ``links[i, j]`` edges."""
    seen = np.zeros(len(links), dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = links[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def eigenvector_centrality(net: InteractionNetwork) -> np.ndarray:
    """Stationary distribution of the row-stochastic interaction matrix.

    Raises :class:`Reducible` unless every node reaches node 0 and is
    reached from it along positive weights.  That makes the stationary
    distribution unique, periodic chains included, so it is solved directly
    from pi (I - W) = 0 with the first equation replaced by sum(pi) = 1.
    """
    w = net.weights
    links = w > 0
    if not (_reaches_all(links) and _reaches_all(links.T)):
        raise Reducible("not every node reaches every other along positive weights")
    system = np.eye(net.n) - w.T
    system[0] = 1.0
    rhs = np.zeros(net.n)
    rhs[0] = 1.0
    return np.linalg.solve(system, rhs)
