import random
import re

import numpy as np
import pytest

from cyclesync.errors import (
    ConfigError,
    DataError,
    Disconnected,
    IllConditioned,
    MissingFinalDemand,
    NumericalError,
    Reducible,
    ZeroOutput,
)
from cyclesync.fixtures import demo_flow_table
from cyclesync.networks import (
    FINAL_DEMAND,
    Adjacency,
    FlowRecord,
    FlowTable,
    InteractionNetwork,
    build_io_network,
    build_topology,
    eigenvector_centrality,
    fiedler_vector,
    generalized_laplacian,
    uniform_coupling,
)
from cyclesync.networks import _reversible_centrality

from conftest import hub_flow_table


# --------------------------------------------------------------------------
# oracle: the first-seen list scans that the shared grouping helper
# replaced, copied verbatim


def oracle_build_io_network(flows: FlowTable) -> InteractionNetwork:
    countries: list = []
    sectors: list = []
    for r in flows.records:
        if r.source_country not in countries:
            countries.append(r.source_country)
        if r.source_sector == FINAL_DEMAND:
            raise DataError("final demand cannot be a flow source")
        if r.source_sector not in sectors:
            sectors.append(r.source_sector)
    for r in flows.records:
        if r.dest_country not in countries:
            countries.append(r.dest_country)
        if r.dest_sector != FINAL_DEMAND and r.dest_sector not in sectors:
            sectors.append(r.dest_sector)

    nodes = []
    for c in countries:
        nodes.extend((s, c) for s in sectors)
        nodes.append((FINAL_DEMAND, c))
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)

    ext = np.zeros((n, n))
    for r in flows.records:
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


def shuffled_flow_table(seed, dest_only_sector=None):
    """Random flows in shuffled record order; every node has an outflow.

    ``dest_only_sector`` adds one flow into a sector that never sends one.
    """
    rng = random.Random(seed)
    countries = rng.sample(["DE", "FR", "IT", "JP", "US", "CN"], rng.randint(1, 4))
    sectors = rng.sample(["Agri", "Mining", "Manu", "Util", "Cons", "Serv"], rng.randint(1, 5))
    nodes = [(s, c) for c in countries for s in sectors]
    records = []
    for s, c in nodes:
        for ds, dc in rng.sample(nodes, rng.randint(0, len(nodes))):
            records.append(FlowRecord(s, c, ds, dc, rng.uniform(0.5, 10.0)))
        records.append(FlowRecord(s, c, FINAL_DEMAND, rng.choice(countries),
                                  rng.uniform(0.5, 10.0)))
        records.append(FlowRecord(s, c, FINAL_DEMAND, c, rng.uniform(0.5, 10.0)))
    if dest_only_sector is not None:
        s, c = rng.choice(nodes)
        records.append(FlowRecord(s, c, dest_only_sector, rng.choice(countries), 1.0))
    rng.shuffle(records)
    return FlowTable(records)


def assert_same_network(net, ref):
    assert net.labels == ref.labels
    assert net.sectors == ref.sectors
    assert net.countries == ref.countries
    np.testing.assert_array_equal(net.weights, ref.weights)
    np.testing.assert_array_equal(net.outputs, ref.outputs)


class TestTopologies:
    def test_star_degrees(self):
        adj = build_topology("star", 10)
        assert adj.degrees[0] == 9
        assert np.all(adj.degrees[1:] == 1)

    def test_chain_degrees(self):
        adj = build_topology("chain", 10)
        assert adj.degrees[0] == adj.degrees[-1] == 1
        assert np.all(adj.degrees[1:-1] == 2)

    def test_complete_degrees(self):
        adj = build_topology("complete", 6)
        assert np.all(adj.degrees == 5)

    def test_two_clique_with_first_node_bridge(self):
        adj = build_topology("two_clique", sizes=(3, 3), bridge=(0, 3))
        np.testing.assert_array_equal(adj.degrees, [3, 2, 2, 3, 2, 2])

    def test_two_clique_default_bridge(self):
        adj = build_topology("two_clique", sizes=(3, 3))
        np.testing.assert_array_equal(adj.degrees, [2, 2, 3, 3, 2, 2])

    def test_rejects_too_small(self):
        with pytest.raises(ConfigError):
            build_topology("star", 1)
        with pytest.raises(ConfigError):
            build_topology("two_clique", sizes=(1, 3))


class TestUniformCoupling:
    def test_two_node_pair(self):
        adj = build_topology("complete", 2)
        net = uniform_coupling(adj, 0.3)
        np.testing.assert_allclose(net.weights, [[0.7, 0.3], [0.3, 0.7]])

    def test_zero_coupling_is_identity(self):
        adj = build_topology("chain", 5)
        net = uniform_coupling(adj, 0.0)
        np.testing.assert_array_equal(net.weights, np.eye(5))

    def test_star_rows(self):
        adj = build_topology("star", 3)
        net = uniform_coupling(adj, 0.4)
        np.testing.assert_allclose(net.weights[0], [0.6, 0.2, 0.2])
        np.testing.assert_allclose(net.weights[1], [0.4, 0.6, 0.0])

    def test_rejects_out_of_range(self):
        adj = build_topology("complete", 3)
        with pytest.raises(ConfigError):
            uniform_coupling(adj, 1.5)

    def test_isolated_node_keeps_full_self_weight(self):
        # node 3 has no neighbour to spread eps over
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = m[1, 2] = m[2, 1] = 1
        w = uniform_coupling(Adjacency(m), 0.4).weights
        np.testing.assert_array_equal(w[3], [0.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(w[:3], [[0.6, 0.4, 0, 0], [0.2, 0.6, 0.2, 0],
                                           [0, 0.4, 0.6, 0]], rtol=0, atol=1e-15)

    def test_rows_stochastic_on_random_graphs(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 12))
            m = (rng.random((n, n)) < 0.5).astype(float)
            m = np.triu(m, 1)
            m = m + m.T
            # ensure connectivity by adding a chain backbone
            idx = np.arange(n - 1)
            m[idx, idx + 1] = 1
            m[idx + 1, idx] = 1
            from cyclesync.networks import Adjacency
            net = uniform_coupling(Adjacency(m), float(rng.uniform(0, 1)))
            np.testing.assert_allclose(net.weights.sum(axis=1), 1.0, atol=1e-10)


def single_country_table():
    return FlowTable([
        FlowRecord("A", "X", "B", "X", 30.0),
        FlowRecord("A", "X", "FinD", "X", 70.0),
        FlowRecord("B", "X", "A", "X", 20.0),
        FlowRecord("B", "X", "FinD", "X", 40.0),
    ])


class TestIoNetwork:
    def test_rows_sum_to_one(self, demo_io_network):
        np.testing.assert_allclose(demo_io_network.weights.sum(axis=1), 1.0,
                                   atol=1e-10)

    def test_sector_row_shares(self):
        net = build_io_network(single_country_table())
        i = net.labels.index("A|X")
        j = net.labels.index("B|X")
        f = net.labels.index("FinD|X")
        assert net.weights[i, j] == pytest.approx(0.3)
        assert net.weights[i, f] == pytest.approx(0.7)

    def test_final_demand_row_is_output_shares(self):
        net = build_io_network(single_country_table())
        f = net.labels.index("FinD|X")
        i = net.labels.index("A|X")
        j = net.labels.index("B|X")
        # outputs 100 and 60
        assert net.weights[f, i] == pytest.approx(100 / 160)
        assert net.weights[f, j] == pytest.approx(60 / 160)
        assert net.weights[f, f] == 0.0

    def test_final_demand_outputs_recorded(self):
        net = build_io_network(single_country_table())
        f = net.labels.index("FinD|X")
        assert net.outputs[f] == pytest.approx(110.0)

    def test_minimal_table_round_trips_through_csv(self, tmp_path):
        table = single_country_table()
        path = tmp_path / "flows.csv"
        table.to_csv(path)
        assert b"\r" not in path.read_bytes()         # LF line ends, like every table
        again = FlowTable.from_csv(path)
        net_a = build_io_network(table)
        net_b = build_io_network(again)
        np.testing.assert_allclose(net_a.weights, net_b.weights, atol=1e-12)

    def test_zero_output_rejected(self):
        table = FlowTable([
            FlowRecord("A", "X", "B", "X", 10.0),
            FlowRecord("A", "X", "FinD", "X", 10.0),
        ])
        with pytest.raises(ZeroOutput):
            build_io_network(table)

    def test_missing_final_demand_rejected(self):
        table = FlowTable([
            FlowRecord("A", "X", "B", "X", 10.0),
            FlowRecord("B", "X", "A", "X", 10.0),
        ])
        with pytest.raises(MissingFinalDemand):
            build_io_network(table)

    def test_bad_csv_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            FlowTable.from_csv(path)

    def test_non_utf8_bytes_are_a_data_error(self, tmp_path):
        path = tmp_path / "flows.csv"
        path.write_bytes(",".join(FlowTable.HEADER).encode() + b"\n"
                         b"A,X,FinD,X,1.0\n"
                         b"B\xe9,X,FinD,X,2.0\n")
        with pytest.raises(DataError, match=r"flows\.csv: not UTF-8 text \(byte 0xe9"):
            FlowTable.from_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flow_rejected(self, tmp_path, value):
        # a NaN flow used to pass the negativity check and reach the
        # centrality solve downstream
        path = tmp_path / "flows.csv"
        path.write_text(",".join(FlowTable.HEADER) + "\n"
                        "A,X,FinD,X,1.0\n"
                        f"B,X,FinD,X,{value}\n")
        with pytest.raises(DataError, match=r"flows\.csv:3: non-finite flow"):
            FlowTable.from_csv(path)

    @pytest.mark.parametrize("value, message", [
        ("ten", r"bad value 'ten'"),
        ("", r"bad value ''"),
        ("-1.5", r"negative flow -1\.5"),
    ], ids=["word", "empty", "negative"])
    def test_bad_or_negative_flow_reports_line(self, tmp_path, value, message):
        path = tmp_path / "flows.csv"
        path.write_text(",".join(FlowTable.HEADER) + "\n"
                        "A,X,FinD,X,1.0\n"
                        f"B,X,FinD,X,{value}\n")
        with pytest.raises(DataError, match=rf"flows\.csv:3: {message}$"):
            FlowTable.from_csv(path)

    @pytest.mark.parametrize("field", range(4))
    def test_empty_name_rejected(self, tmp_path, field):
        # an empty source sector used to build a node labelled "|X"
        cells = ["A", "X", "FinD", "X"]
        cells[field] = " "
        path = tmp_path / "flows.csv"
        path.write_text(",".join(FlowTable.HEADER) + "\n"
                        "B,X,FinD,X,1.0\n"
                        + ",".join(cells) + ",2.0\n")
        with pytest.raises(DataError,
                           match=rf"flows\.csv:3: empty {FlowTable.HEADER[field]}$"):
            FlowTable.from_csv(path)

    @pytest.mark.parametrize("seed", range(12))
    def test_node_order_matches_first_seen_scans(self, seed):
        table = shuffled_flow_table(seed)
        assert_same_network(build_io_network(table), oracle_build_io_network(table))

    def test_sector_first_seen_as_destination(self):
        # sources set the sector order before destinations do
        table = FlowTable([
            FlowRecord("B", "Y", "C", "X", 2.0),
            FlowRecord("C", "X", "A", "Y", 1.0),
            FlowRecord("A", "Y", "FinD", "X", 4.0),
            FlowRecord("C", "Y", "FinD", "Y", 3.0),
            FlowRecord("A", "X", "FinD", "Y", 3.0),
            FlowRecord("B", "X", "FinD", "X", 5.0),
        ])
        net = build_io_network(table)
        assert net.labels == ["B|Y", "C|Y", "A|Y", "FinD|Y", "B|X", "C|X", "A|X", "FinD|X"]
        assert_same_network(net, oracle_build_io_network(table))

    @pytest.mark.parametrize("seed", range(6))
    def test_destination_only_sector_names_the_same_node(self, seed):
        # a sector that never sends a flow has no output in any country; the
        # error names the first such node in node order
        table = shuffled_flow_table(seed, dest_only_sector="Dest")
        with pytest.raises(ZeroOutput) as expected:
            oracle_build_io_network(table)
        with pytest.raises(ZeroOutput, match=re.escape(str(expected.value))):
            build_io_network(table)

    def test_final_demand_source_rejected(self):
        table = FlowTable([FlowRecord("A", "X", "FinD", "X", 1.0),
                           FlowRecord("FinD", "X", "A", "X", 1.0)])
        with pytest.raises(DataError, match="final demand cannot be a flow source"):
            build_io_network(table)

    @pytest.mark.parametrize("field", range(4))
    def test_padded_name_rejected(self, field):
        names = ["A", "X", "FinD", "X"]
        names[field] = " Mining "
        with pytest.raises(DataError, match=f"{FlowTable.HEADER[field]} ' Mining '"):
            FlowTable([FlowRecord("B", "X", "FinD", "X", 1.0),
                       FlowRecord(*names, 5.0)])

    @pytest.mark.parametrize("field", range(4))
    def test_empty_record_name_rejected(self, field):
        # an empty source sector used to build a node labelled "|X"
        names = ["A", "X", "FinD", "X"]
        names[field] = ""
        with pytest.raises(DataError,
                           match=rf"flow record 1 .*: empty {FlowTable.HEADER[field]}$"):
            FlowTable([FlowRecord("B", "X", "FinD", "X", 1.0),
                       FlowRecord(*names, 2.0)])


class TestInteractionNetwork:
    @pytest.mark.parametrize("weights", [
        [[0.5, np.nan], [0.5, 0.5]],
        [[np.nan, np.nan], [0.5, 0.5]],
        [[1.0, 0.0], [np.inf, 0.0]],
    ])
    def test_non_finite_weight_rejected(self, weights):
        # NaN passed the range and row-sum comparisons and only surfaced
        # downstream, in the centrality
        with pytest.raises(ConfigError, match="finite"):
            InteractionNetwork(np.array(weights))

    def test_nan_output_rejected(self):
        for bad in (np.nan, np.inf, -np.inf, -1.0):
            with pytest.raises(ConfigError, match=rf"outputs must be finite and non-negative, "
                                                  rf"got {bad} at node 1$"):
                InteractionNetwork(np.eye(2), outputs=np.array([1.0, bad]))


def ring_flow_table(reverse=2.0):
    """One country, sectors A -> B -> C -> A with ``reverse`` flowing back.

    Every link runs both ways and final demand breaks detailed balance, so W
    is not reversible; at ``reverse`` 2.0 B has a complex pair with
    imaginary part 0.187, and the pair grows as ``reverse`` falls.
    """
    records = []
    for s, t in zip("ABC", "BCA"):
        records += [FlowRecord(s, "X", t, "X", 10.0), FlowRecord(t, "X", s, "X", reverse),
                    FlowRecord(s, "X", s, "X", 5.0), FlowRecord(s, "X", FINAL_DEMAND, "X", 20.0)]
    return FlowTable(records)


def oracle_eig_modes(b):
    """The column loop that built the eig branch's real basis, kept as
    reference, followed by generalized_laplacian's normalization and signs."""
    n = b.shape[0]
    lam, q = np.linalg.eig(b)
    order = np.argsort(lam.real, kind="stable")
    lam, q = lam[order], q[:, order]
    q_real = np.empty((n, n))
    col = 0
    while col < n:
        if abs(lam.imag[col]) <= 1e-12:
            q_real[:, col] = q[:, col].real
            col += 1
            continue
        assert col + 1 < n and abs(lam[col + 1] - np.conj(lam[col])) <= 1e-9, "unpaired"
        q_real[:, col] = q[:, col].real
        q_real[:, col + 1] = q[:, col].imag
        col += 2
    q_real = q_real / np.linalg.norm(q_real, axis=0)
    pivots = np.argmax(np.abs(q_real), axis=0)
    return q_real * np.where(q_real[pivots, np.arange(n)] < 0, -1.0, 1.0), lam


class TestComplexPairBasis:
    """The eig branch's one-expression real basis against the column loop."""

    def test_ring_table_modes_equal_the_column_loop(self):
        net = build_io_network(ring_flow_table())
        spec = generalized_laplacian(net)
        want, lam = oracle_eig_modes(spec.matrix)
        assert spec.max_imag == pytest.approx(0.187, abs=1e-3)
        assert np.count_nonzero(np.abs(lam.imag) > 1e-12) == 2
        np.testing.assert_array_equal(spec.modes.view(np.uint64), want.view(np.uint64))
        np.testing.assert_array_equal(spec.eigenvalues, lam.real)

    def test_ring_table_modes_block_diagonalize_b(self):
        # a pair's columns (Re v, Im v) span its invariant plane: B maps the
        # plane to itself with the real part on the diagonal and
        # determinant |lambda|^2
        spec = generalized_laplacian(build_io_network(ring_flow_table()))
        _, lam = oracle_eig_modes(spec.matrix)
        blocks = spec.modes_inv @ spec.matrix @ spec.modes
        np.testing.assert_allclose(np.diag(blocks), spec.eigenvalues, rtol=0, atol=1e-12)
        k = int(np.flatnonzero(lam.imag > 1e-12)[0])
        pair = blocks[k:k + 2, k:k + 2]
        assert np.linalg.det(pair) == pytest.approx(abs(lam[k]) ** 2, abs=1e-12)
        outside = blocks.copy()
        outside[k:k + 2, k:k + 2] = 0.0
        np.fill_diagonal(outside, 0.0)
        assert np.max(np.abs(outside)) <= 1e-12

    def test_ring_table_is_not_reversible(self):
        # the support is symmetric, but the flows break detailed balance
        net = build_io_network(ring_flow_table())
        links = net.weights > 0
        assert np.array_equal(links, links.T)
        assert _reversible_centrality(net) is None

    def test_imaginary_part_beyond_limit_rejected(self):
        with pytest.raises(NumericalError, match=r"imaginary part 0\.217 exceeds 0\.2"):
            generalized_laplacian(build_io_network(ring_flow_table(reverse=1.0)))

    def test_random_directed_networks_equal_the_column_loop(self):
        rng = np.random.default_rng(2024)
        complex_seen = 0
        for _ in range(300):
            n = int(rng.integers(3, 9))
            w = rng.random((n, n)) * (rng.random((n, n)) < 0.7) + np.eye(n)
            net = InteractionNetwork(weights=w / w.sum(axis=1, keepdims=True))
            if _reversible_centrality(net) is not None:
                continue        # a tree support, say: the eigh branch
            try:
                spec = generalized_laplacian(net)
            except (NumericalError, Disconnected):
                continue
            want, lam = oracle_eig_modes(spec.matrix)
            complex_seen += spec.max_imag > 1e-12
            np.testing.assert_array_equal(spec.modes.view(np.uint64), want.view(np.uint64))
        assert complex_seen >= 100

    def test_reducible_symmetric_support_is_disconnected(self):
        # two closed blocks: the support is symmetric but the chain is
        # reducible, so there is no reversible basis and eig finds 0 twice
        net = InteractionNetwork(weights=np.array([[.6, .4, 0, 0], [.2, .8, 0, 0],
                                                   [0, 0, .7, .3], [0, 0, .1, .9]]))
        with pytest.raises(Reducible):
            eigenvector_centrality(net)
        assert _reversible_centrality(net) is None
        with pytest.raises(Disconnected, match="second eigenvalue 0 vanishes"):
            generalized_laplacian(net)


class TestSpectra:
    def test_two_node_pair_eigensystem(self):
        adj = build_topology("complete", 2)
        spec = generalized_laplacian(uniform_coupling(adj, 1.0))
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(spec.modes[:, 0]),
                                   [1 / np.sqrt(2)] * 2, atol=1e-12)
        v2 = spec.modes[:, 1]
        assert v2[0] * v2[1] < 0
        np.testing.assert_allclose(np.abs(v2), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_complete_uniform_interaction_spectrum(self):
        # all-entries-1/N matrix: I - W has 0 and 1 with multiplicity N - 1
        from cyclesync.networks import InteractionNetwork
        n = 7
        net = InteractionNetwork(weights=np.full((n, n), 1.0 / n))
        spec = generalized_laplacian(net)
        np.testing.assert_allclose(spec.eigenvalues[0], 0.0, atol=1e-10)
        np.testing.assert_allclose(spec.eigenvalues[1:], 1.0, atol=1e-10)

    def test_rows_of_b_sum_to_zero(self, demo_io_network, two_clique_adj):
        for spec in (generalized_laplacian(demo_io_network),
                     generalized_laplacian(uniform_coupling(two_clique_adj, 0.3))):
            np.testing.assert_allclose(spec.matrix.sum(axis=1), 0.0, atol=1e-10)

    def test_kernel_vector_is_constant(self, demo_io_network):
        spec = generalized_laplacian(demo_io_network)
        v1 = spec.modes[:, 0]
        assert np.allclose(v1, v1[0], atol=1e-8)

    def test_undirected_spectra_bounded_on_random_graphs(self, rng):
        from cyclesync.networks import Adjacency
        for _ in range(100):
            n = int(rng.integers(3, 14))
            m = (rng.random((n, n)) < 0.4).astype(float)
            m = np.triu(m, 1)
            m = m + m.T
            idx = np.arange(n - 1)
            m[idx, idx + 1] = 1
            m[idx + 1, idx] = 1
            spec = generalized_laplacian(uniform_coupling(Adjacency(m), 1.0))
            assert spec.eigenvalues[0] == pytest.approx(0.0, abs=1e-8)
            assert spec.eigenvalues[-1] <= 2.0 + 1e-8
            assert np.all(np.diff(spec.eigenvalues) >= -1e-10)

    def test_eigen_reconstruction(self, demo_io_network):
        spec = generalized_laplacian(demo_io_network)
        assert spec.max_imag < 1e-10     # balanced flows keep the spectrum real
        recon = spec.modes @ np.diag(spec.eigenvalues) @ spec.modes_inv
        scale = np.max(np.abs(spec.matrix))
        assert np.max(np.abs(recon - spec.matrix)) / scale < 1e-8

    def test_disconnected_rejected(self):
        from cyclesync.networks import Adjacency
        m = np.zeros((4, 4))
        m[0, 1] = m[1, 0] = 1
        m[2, 3] = m[3, 2] = 1
        with pytest.raises(Disconnected):
            generalized_laplacian(uniform_coupling(Adjacency(m), 1.0))

    def test_singular_mode_matrix_rejected(self, singular_modes):
        # the hub network is not reversible, so its modes come from eig
        with pytest.raises(IllConditioned, match="singular"):
            generalized_laplacian(build_io_network(hub_flow_table()))

    def test_near_symmetric_weights_get_exact_eigenpairs(self):
        # a doubly stochastic W nudged off symmetry by 5e-7: eigh on B would
        # read one triangle only and miss the eigenpairs by about 6e-7
        w = np.array([[.5, .3, .2, 0], [.3, .4, .1, .2], [.2, .1, .3, .4], [0, .2, .4, .4]])
        w[0, 1] += 5e-7
        w[0, 2] -= 5e-7
        spec = generalized_laplacian(InteractionNetwork(weights=w))
        residual = spec.matrix @ spec.modes - spec.modes * spec.eigenvalues
        assert np.max(np.abs(residual)) <= 1e-12

    def test_repeated_eigenvalues_keep_reversible_modes_conditioned(self):
        # random connected graphs with three to five twin leaves on one node:
        # the twins repeat the eigenvalue eps, where eig may return nearly
        # parallel eigenvectors.  Uniform coupling on an undirected graph is
        # reversible, and its modes D^(-1/2) U, columns normalized, have a
        # condition number of at most pi_max / pi_min.
        from cyclesync.networks import Adjacency
        rng = np.random.default_rng(12345)
        for _ in range(300):
            n, twins = int(rng.integers(3, 10)), int(rng.integers(3, 6))
            m = np.zeros((n + twins, n + twins))
            core = np.triu(rng.random((n, n)) < 0.4, 1)
            m[:n, :n] = core + core.T
            idx = np.arange(n - 1)
            m[idx, idx + 1] = m[idx + 1, idx] = 1
            hub = int(rng.integers(n))
            m[hub, n:] = m[n:, hub] = 1
            net = uniform_coupling(Adjacency(m), float(rng.uniform(0.02, 1.0)))
            spec = generalized_laplacian(net)
            assert np.min(np.diff(spec.eigenvalues)) < 1e-9
            pi = eigenvector_centrality(net)
            assert np.linalg.cond(spec.modes) <= pi.max() / pi.min() * (1 + 1e-9)
            np.testing.assert_allclose(spec.modes @ spec.modes_inv, np.eye(net.n), atol=1e-12)
            recon = spec.modes @ np.diag(spec.eigenvalues) @ spec.modes_inv
            np.testing.assert_allclose(recon, spec.matrix, atol=1e-12)

    def test_two_clique_mode_pattern(self, two_clique_adj):
        spec = generalized_laplacian(uniform_coupling(two_clique_adj, 1.0))
        # the slow mode splits the cliques, bridge nodes least extreme
        row = spec.modes_inv[1]
        assert np.sign(row[0]) == np.sign(row[1]) == np.sign(row[2])
        assert np.sign(row[3]) == np.sign(row[4]) == np.sign(row[5])
        assert np.sign(row[0]) != np.sign(row[3])
        np.testing.assert_allclose(np.abs(row), [0.43, 0.43, 0.38, 0.38, 0.43, 0.43],
                                   atol=0.005)

    def test_star_collection_spectrum_shape(self):
        # 17 stars of 28 nodes joined at their hubs: a group of eigenvalues
        # near zero, a group near 1.5, and a middle band
        n_star, size = 17, 28
        total = n_star * size
        m = np.zeros((total, total))
        hubs = [k * size for k in range(n_star)]
        for k in range(n_star):
            hub = hubs[k]
            for leaf in range(hub + 1, hub + size):
                m[hub, leaf] = m[leaf, hub] = 1
        for a in hubs:
            for b in hubs:
                if a != b:
                    m[a, b] = 1
        from cyclesync.networks import Adjacency
        spec = generalized_laplacian(uniform_coupling(Adjacency(m), 1.0))
        lam = spec.eigenvalues
        low = np.sum(lam < 0.3)
        high = np.sum(lam > 1.4)
        middle = np.sum((lam > 0.7) & (lam < 1.2))
        assert low == n_star
        assert high >= n_star
        assert middle >= total / 2


class TestFiedler:
    def test_two_clique_sign_split(self, two_clique_adj):
        spec = generalized_laplacian(uniform_coupling(two_clique_adj, 1.0))
        v = fiedler_vector(spec)
        assert np.all(v[:3] * v[0] > 0)
        assert np.all(v[3:] * v[3] > 0)
        assert v[0] * v[3] < 0

    def test_two_node_vector(self):
        spec = generalized_laplacian(uniform_coupling(build_topology("complete", 2), 1.0))
        v = fiedler_vector(spec)
        np.testing.assert_allclose(np.abs(v), [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert v[0] * v[1] < 0

    def test_repeated_lambda_2_warns(self):
        # the complete graph repeats its nonzero eigenvalue: any vector of
        # that eigenspace would do
        spec = generalized_laplacian(uniform_coupling(build_topology("complete", 4), 0.5))
        with pytest.warns(UserWarning, match="near-degenerate lambda_2"):
            fiedler_vector(spec)

    def test_one_node_has_none(self):
        spec = generalized_laplacian(InteractionNetwork(weights=np.eye(1)))
        with pytest.raises(ConfigError, match="one node has no Fiedler vector"):
            fiedler_vector(spec)

    def test_output_sign_convention(self, demo_io_network):
        spec = generalized_laplacian(demo_io_network)
        v = fiedler_vector(spec, outputs=demo_io_network.outputs)
        assert v[int(np.argmax(demo_io_network.outputs))] > 0

    @pytest.mark.parametrize("shape", [(3,), (20,), (18, 1)])
    def test_outputs_must_give_one_value_per_node(self, demo_io_network, shape):
        spec = generalized_laplacian(demo_io_network)
        with pytest.raises(ConfigError, match=re.escape(f"shape (18,), got {shape}")):
            fiedler_vector(spec, outputs=np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_outputs_must_be_finite_and_non_negative(self, demo_io_network, bad):
        # a NaN would otherwise be the argmax pivot of the sign
        spec = generalized_laplacian(demo_io_network)
        outputs = np.ones(18)
        outputs[4] = bad
        with pytest.raises(ConfigError, match=rf"finite and non-negative, got {bad} at node 4$"):
            fiedler_vector(spec, outputs=outputs)

    def test_country_blocks_split_in_demo_network(self, demo_io_network):
        spec = generalized_laplacian(demo_io_network)
        v = fiedler_vector(spec, outputs=demo_io_network.outputs)
        countries = demo_io_network.countries
        means = {c: np.mean([v[i] for i, ci in enumerate(countries) if ci == c])
                 for c in set(countries)}
        signs = sorted(np.sign(m) for m in means.values())
        assert signs[0] == -1 and signs[-1] == 1


def oracle_power_iteration(w):
    """The power iteration that the direct solve replaced: from uniform, to 1e-12."""
    pi = np.full(len(w), 1.0 / len(w))
    for _ in range(100000):
        nxt = pi @ w
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - pi)) < 1e-12:
            return nxt
        pi = nxt
    raise AssertionError("power iteration did not converge")


class TestEigenvectorCentrality:
    def test_uniform_matrix_gives_uniform_weights(self):
        from cyclesync.networks import InteractionNetwork
        n = 9
        net = InteractionNetwork(weights=np.full((n, n), 1.0 / n))
        np.testing.assert_allclose(eigenvector_centrality(net),
                                   np.full(n, 1.0 / n), atol=1e-10)

    def test_two_node_hand_solution(self):
        from cyclesync.networks import InteractionNetwork
        net = InteractionNetwork(weights=np.array([[0.7, 0.3], [0.6, 0.4]]))
        pi = eigenvector_centrality(net)
        np.testing.assert_allclose(pi, [2 / 3, 1 / 3], atol=1e-10)

    @pytest.mark.parametrize("weights", [
        [[1.0, 0.0], [0.5, 0.5]],
        [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]],
    ])
    def test_reducible_matrix_rejected(self, weights):
        # a numerical solve may leave a tiny weight on the node nothing flows
        # into, so only the pattern of positive weights tells these apart
        with pytest.raises(Reducible):
            eigenvector_centrality(InteractionNetwork(np.array(weights)))

    def test_sums_to_one_and_positive(self, demo_io_network):
        pi = eigenvector_centrality(demo_io_network)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi > 0)

    def test_invariant_under_flow_scaling(self):
        table = demo_flow_table()
        scaled = FlowTable([FlowRecord(r.source_sector, r.source_country,
                                       r.dest_sector, r.dest_country,
                                       r.value * 37.5)
                            for r in table.records])
        pi_a = eigenvector_centrality(build_io_network(table))
        pi_b = eigenvector_centrality(build_io_network(scaled))
        np.testing.assert_allclose(pi_a, pi_b, atol=1e-10)

    def test_matches_power_iteration_on_demo_network(self, demo_io_network):
        np.testing.assert_allclose(eigenvector_centrality(demo_io_network),
                                   oracle_power_iteration(demo_io_network.weights),
                                   rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_power_iteration_on_random_matrices(self, seed):
        # a positive diagonal makes the chain aperiodic, a positive
        # ring i -> i + 1 makes it irreducible, and half the rest is zero
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 40))
        raw = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        raw[np.arange(n), np.arange(n)] += 0.1
        raw[np.arange(n), (np.arange(n) + 1) % n] += 0.1
        w = raw / raw.sum(axis=1, keepdims=True)
        pi = eigenvector_centrality(InteractionNetwork(w))
        np.testing.assert_allclose(pi, oracle_power_iteration(w), rtol=0, atol=1e-10)
        np.testing.assert_allclose(pi @ w, pi, rtol=0, atol=1e-14)

    def test_periodic_star_solved(self):
        # hub and leaves keep no weight on themselves: the chain has period
        # 2, where power iteration oscillates, but its stationary vector exists
        pi = eigenvector_centrality(uniform_coupling(build_topology("star", 4), 1.0))
        np.testing.assert_allclose(pi, [1 / 2, 1 / 6, 1 / 6, 1 / 6], rtol=0, atol=1e-12)
