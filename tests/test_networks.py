import random
import re

import numpy as np
import pytest

from cyclesync.errors import (
    ConfigError,
    DataError,
    Disconnected,
    MissingFinalDemand,
    ZeroOutput,
)
from cyclesync.fixtures import demo_flow_table
from cyclesync.networks import (
    FINAL_DEMAND,
    FlowRecord,
    FlowTable,
    InteractionNetwork,
    aggregate_nodes,
    build_io_network,
    build_topology,
    eigenvector_centrality,
    fiedler_vector,
    generalized_laplacian,
    uniform_coupling,
)


# --------------------------------------------------------------------------
# oracles: the first-seen list scans that the shared grouping helper
# replaced, copied verbatim (the per-node branch of aggregate_nodes as a
# function returning its blocks), and the block-pair loop of aggregate_nodes


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


def oracle_blocks(keys):
    order = []
    for key in keys:
        if key not in order:
            order.append(key)
    return [(key, [i for i, k in enumerate(keys) if k == key]) for key in order]


def oracle_aggregate_nodes(net: InteractionNetwork, keys) -> InteractionNetwork:
    """The block-pair double loop that the single bincount pass replaced."""
    blocks = oracle_blocks(keys)
    ext = net.outputs[:, None] * net.weights
    m = len(blocks)
    agg = np.zeros((m, m))
    outputs = np.zeros(m)
    for bi, (_, rows) in enumerate(blocks):
        outputs[bi] = net.outputs[list(rows)].sum()
        for bj, (_, cols) in enumerate(blocks):
            agg[bi, bj] = ext[np.ix_(rows, cols)].sum()
    row_tot = agg.sum(axis=1)
    if np.any(row_tot <= 0):
        raise ZeroOutput("an aggregated block has no outgoing flow")
    weights = agg / row_tot[:, None]

    def _common(values, members):
        vals = {values[i] for i in members}
        return vals.pop() if len(vals) == 1 else None

    return InteractionNetwork(
        weights=weights,
        labels=[str(key) for key, _ in blocks],
        sectors=[_common(net.sectors, mem) for _, mem in blocks],
        countries=[_common(net.countries, mem) for _, mem in blocks],
        outputs=outputs,
    )


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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flow_rejected(self, tmp_path, value):
        # a NaN flow used to pass the negativity check and stall the
        # centrality power iteration downstream
        path = tmp_path / "flows.csv"
        path.write_text(",".join(FlowTable.HEADER) + "\n"
                        "A,X,FinD,X,1.0\n"
                        f"B,X,FinD,X,{value}\n")
        with pytest.raises(DataError, match=r"flows\.csv:3: non-finite flow"):
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


class TestInteractionNetwork:
    @pytest.mark.parametrize("weights", [
        [[0.5, np.nan], [0.5, 0.5]],
        [[np.nan, np.nan], [0.5, 0.5]],
        [[1.0, 0.0], [np.inf, 0.0]],
    ])
    def test_non_finite_weight_rejected(self, weights):
        # NaN passed the range and row-sum comparisons and only surfaced as
        # a power-iteration NonConvergence downstream
        with pytest.raises(ConfigError, match="finite"):
            InteractionNetwork(np.array(weights))

    def test_nan_output_rejected(self):
        with pytest.raises(ConfigError, match="outputs"):
            InteractionNetwork(np.eye(2), outputs=np.array([1.0, np.nan]))


class TestAggregation:
    def test_identity_partition_is_noop(self, demo_io_network):
        net = demo_io_network
        agg = aggregate_nodes(net, list(range(net.n)))
        np.testing.assert_allclose(agg.weights, net.weights, atol=1e-12)
        np.testing.assert_allclose(agg.outputs, net.outputs)

    def test_aggregation_matches_direct_build(self):
        # building from a table where two sectors merge equals aggregating
        table = FlowTable([
            FlowRecord("A1", "X", "B", "X", 10.0),
            FlowRecord("A1", "X", "FinD", "X", 30.0),
            FlowRecord("A2", "X", "B", "X", 20.0),
            FlowRecord("A2", "X", "FinD", "X", 20.0),
            FlowRecord("B", "X", "A1", "X", 5.0),
            FlowRecord("B", "X", "A2", "X", 15.0),
            FlowRecord("B", "X", "FinD", "X", 40.0),
        ])
        fine = build_io_network(table)
        merged_table = FlowTable([
            FlowRecord("A", "X", "B", "X", 30.0),
            FlowRecord("A", "X", "FinD", "X", 50.0),
            FlowRecord("B", "X", "A", "X", 20.0),
            FlowRecord("B", "X", "FinD", "X", 40.0),
        ])
        coarse = build_io_network(merged_table)
        keys = ["A" if s in ("A1", "A2") else s for s in fine.sectors]
        agg = aggregate_nodes(fine, keys)
        order = [agg.labels.index(str(k)) for k in ("A", "B", "FinD")]
        np.testing.assert_allclose(agg.weights[np.ix_(order, order)],
                                   coarse.weights, atol=1e-10)

    def test_centrality_consistent_under_aggregation(self, demo_io_network):
        # centrality of country blocks matches centrality of the aggregated net
        net = demo_io_network
        fine = eigenvector_centrality(net)
        agg = aggregate_nodes(net, net.countries)
        coarse = eigenvector_centrality(agg)
        for bi, country in enumerate(agg.labels):
            member_sum = fine[[i for i, c in enumerate(net.countries)
                               if c == country]].sum()
            assert coarse[bi] == pytest.approx(member_sum, abs=5e-3)

    @pytest.mark.parametrize("seed", range(8))
    def test_per_node_keys_match_first_seen_scans(self, seed):
        # interleaved keys of mixed types: the same blocks in the same order
        # as the first-seen scans, and the same sums as the block-pair loop
        net = build_io_network(shuffled_flow_table(seed))
        rng = random.Random(seed)
        pool = rng.sample(["north", "south", 3, (1, "x"), None, "east"], rng.randint(1, 5))
        keys = [rng.choice(pool) for _ in range(net.n)]
        got, want = aggregate_nodes(net, keys), oracle_aggregate_nodes(net, keys)
        assert got.labels == want.labels
        assert got.sectors == want.sectors
        assert got.countries == want.countries
        np.testing.assert_allclose(got.weights, want.weights, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.outputs, want.outputs, rtol=1e-12, atol=0)

    def test_partition_length_checked(self, demo_io_network):
        with pytest.raises(ConfigError, match="one key per node"):
            aggregate_nodes(demo_io_network, [0] * (demo_io_network.n - 1))


class TestSpectra:
    def test_two_node_pair_eigensystem(self):
        adj = build_topology("complete", 2)
        spec = generalized_laplacian(adj)
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
                     generalized_laplacian(two_clique_adj, eps=0.3)):
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
            spec = generalized_laplacian(Adjacency(m))
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
            generalized_laplacian(Adjacency(m))

    def test_two_clique_mode_pattern(self, two_clique_adj):
        spec = generalized_laplacian(two_clique_adj)
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
        spec = generalized_laplacian(Adjacency(m))
        lam = spec.eigenvalues
        low = np.sum(lam < 0.3)
        high = np.sum(lam > 1.4)
        middle = np.sum((lam > 0.7) & (lam < 1.2))
        assert low == n_star
        assert high >= n_star
        assert middle >= total / 2


class TestFiedler:
    def test_two_clique_sign_split(self, two_clique_adj):
        spec = generalized_laplacian(two_clique_adj)
        v = fiedler_vector(spec)
        assert np.all(v[:3] * v[0] > 0)
        assert np.all(v[3:] * v[3] > 0)
        assert v[0] * v[3] < 0

    def test_two_node_vector(self):
        spec = generalized_laplacian(build_topology("complete", 2))
        v = fiedler_vector(spec)
        np.testing.assert_allclose(np.abs(v), [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert v[0] * v[1] < 0

    def test_output_sign_convention(self, demo_io_network):
        spec = generalized_laplacian(demo_io_network)
        v = fiedler_vector(spec, outputs=demo_io_network.outputs)
        assert v[int(np.argmax(demo_io_network.outputs))] > 0

    def test_country_blocks_split_in_demo_network(self, demo_io_network):
        spec = generalized_laplacian(demo_io_network)
        v = fiedler_vector(spec, outputs=demo_io_network.outputs)
        countries = demo_io_network.countries
        means = {c: np.mean([v[i] for i, ci in enumerate(countries) if ci == c])
                 for c in set(countries)}
        signs = sorted(np.sign(m) for m in means.values())
        assert signs[0] == -1 and signs[-1] == 1


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
