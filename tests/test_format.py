"""The one table writer against the per-class CSV writers it replaced.

Each ``oracle_*`` function below is one of the old writers, copied verbatim
(a method body takes its object as ``self``); ``ORACLE_FIGURES`` holds the
old row loops of the CLI figures, which fed ``oracle_write_figure``.  Every
table must come out byte-identical, except that ``FlowTable.to_csv`` now
ends its lines with LF where ``csv.writer`` wrote CRLF.
"""

import codecs
import csv
import io

import numpy as np
import pytest

from cyclesync import _format, cli
from cyclesync._format import fmt, write_table
from cyclesync.empirics import ScenarioRow, load_panel_csv, write_scenario_csv
from cyclesync.fixtures import demo_flow_table
from cyclesync.master_stability import MasterStabilityCurve, ShockResponse
from cyclesync.networks import FlowRecord, FlowTable
from cyclesync.phase import EntrainmentResult, SyncCentralityResult
from cyclesync.simulation import TrajectorySet

# --- the old writers ---------------------------------------------------------


def oracle_trajectory(self, path):
    """Long-format export: node,step,x,y."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node,step,x,y\n")
        for i, label in enumerate(self.labels):
            for t in range(self.steps):
                fh.write(f"{label},{t},{fmt(self.x[t, i])},{fmt(self.y[t, i])}\n")


def oracle_entrainment(self, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("eps,coherence,mean_correlation,entrained,spread\n")
        for i, eps in enumerate(self.eps_grid):
            fh.write(f"{fmt(eps)},{fmt(self.coherence[i])},"
                     f"{fmt(self.mean_correlation[i])},"
                     f"{int(self.entrained[i])},{fmt(self.spread[i])}\n")


def oracle_centrality(self, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("node,score,stderr\n")
        for label, score, se in zip(self.labels, self.scores, self.stderr):
            fh.write(f"{label},{fmt(score)},{fmt(se)}\n")


def oracle_msf(self, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("K,mu1,mu2\n")
        for k, m1, m2 in zip(self.k_grid, self.mu1, self.mu2):
            fh.write(f"{fmt(k)},{fmt(m1)},{fmt(m2)}\n")


def oracle_shock_response(self, path):
    """Long format: basis,node_or_mode,step,value (y components)."""
    n = self.nonlinear_y.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("basis,node_or_mode,step,value\n")
        for i in range(n):
            for t in range(self.xi.shape[0]):
                fh.write(f"node,{i},{t},{fmt(self.xi[t, 2 * i + 1])}\n")
        for i in range(n):
            for t in range(self.zeta.shape[0]):
                fh.write(f"mode,{i},{t},{fmt(self.zeta[t, 2 * i + 1])}\n")


def oracle_flow_table(self, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(self.HEADER)
        for r in self.records:
            writer.writerow([r.source_sector, r.source_country,
                             r.dest_sector, r.dest_country, fmt(r.value)])


def oracle_scenarios(rows, path):
    """Results table: dynamics,shock_type,sigma_u,group,mean_corr,sd_corr,n_seeds."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dynamics,shock_type,sigma_u,group,mean_corr,sd_corr,n_seeds\n")
        for r in rows:
            fh.write(f"{r.dynamics},{r.shock_type},{fmt(r.sigma_u)},{r.group},"
                     f"{fmt(r.mean_corr)},{fmt(r.sd_corr)},{r.n_seeds}\n")


def oracle_write_figure(path, rows):
    """Plot-ready long format: x, y, series label."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,series\n")
        for x, y, series in rows:
            fh.write(f"{fmt(x)},{fmt(y)},{series}\n")


def _sweep_rows(result):
    rows = []
    for k, eps in enumerate(result.eps_grid):
        rows.extend((eps, result.omegas[k, i], f"omega_node_{i}")
                    for i in range(result.omegas.shape[1]))
        rows.append((eps, result.coherence[k], "coherence"))
        rows.append((eps, result.mean_correlation[k], "mean_correlation"))
    return rows


def _msf_rows(curve):
    rows = [(k, m, "mu1") for k, m in zip(curve.k_grid, curve.mu1)]
    rows += [(k, m, "mu2") for k, m in zip(curve.k_grid, curve.mu2)]
    return rows


def _shock_rows(response):
    n = response.nonlinear_y.shape[1]           # the network's node count
    rows = [(t, response.nonlinear_y[t, i], f"nonlinear_node_{i}")
            for i in range(n) for t in range(response.nonlinear_y.shape[0])]
    rows += [(t, response.linear_y[t, i], f"linear_node_{i}")
             for i in range(n) for t in range(response.linear_y.shape[0])]
    return rows


#: result type -> the old writer of its table
ORACLE_WRITERS = {TrajectorySet: oracle_trajectory, EntrainmentResult: oracle_entrainment,
                  SyncCentralityResult: oracle_centrality, MasterStabilityCurve: oracle_msf,
                  ShockResponse: oracle_shock_response}

#: figure file -> (result type whose table the command also writes, old rows)
ORACLE_FIGURES = {
    "figure-simulate.csv": (TrajectorySet, lambda traj: [
        (t, traj.y[t, i], traj.labels[i]) for i in range(traj.n) for t in range(traj.steps)]),
    "figure-sweep-epsilon.csv": (EntrainmentResult, _sweep_rows),
    "figure-sync-centrality.csv": (SyncCentralityResult, lambda result: [
        (i, result.scores[i], result.labels[i]) for i in range(result.scores.size)]),
    "figure-msf.csv": (MasterStabilityCurve, _msf_rows),
    "figure-shock-response.csv": (ShockResponse, _shock_rows),
    "figure-scenarios.csv": (list, lambda rows: [
        (r.sigma_u, r.mean_corr, f"{r.dynamics}/{r.shock_type}/{r.group}") for r in rows]),
}

# --- inputs ------------------------------------------------------------------

SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, -1.5e300, 36.0, 1 / 3,
                    -7.0, 2.5e-8])

#: (rows, nodes) of each case; "empty" tables keep two nodes but no rows
CASES = {"special": (7, 3), "single": (1, 1), "empty": (0, 2)}


def floats(*shape, shift=0):
    """An array of the given shape cycling through SPECIAL from ``shift`` on."""
    return np.resize(np.roll(SPECIAL, -shift), shape)


def labels(n):
    return [f"n{i}|X" for i in range(n)]


def trajectory(rows, n):
    # the stocks replay from x_start through y, so the special values sit in y
    return TrajectorySet(y=floats(rows, n, shift=4), x_start=floats(n, shift=3),
                         delta=np.full(n, 0.1), labels=labels(n))


def entrainment(rows, n):
    return EntrainmentResult(eps_grid=floats(rows), omegas=floats(rows, n, shift=1),
                             coherence=floats(rows, shift=2),
                             mean_correlation=floats(rows, shift=3),
                             entrained=np.arange(rows) % 3 == 1, spread=floats(rows, shift=5))


def centrality(rows, n):
    return SyncCentralityResult(scores=floats(rows), raw_differences=floats(rows, shift=1),
                                stderr=floats(rows, shift=2), benchmark_frequency=0.17,
                                mean_frequencies=floats(rows, shift=3), labels=labels(rows))


def msf_curve(rows, n):
    return MasterStabilityCurve(k_grid=floats(rows), mu1=floats(rows, shift=1),
                                mu2=floats(rows, shift=2))


def shock_response(rows, n):
    return ShockResponse(tau=3, xi=floats(rows, 2 * n), zeta=floats(rows, 2 * n, shift=1),
                         nonlinear_y=floats(rows, n, shift=2), linear_y=floats(rows, n, shift=3),
                         orbit_y=floats(rows, shift=4), rmse=0.1, phase_shift=-0.0)


def scenario_rows(rows, n):
    return [ScenarioRow(dynamics=f"dyn{i % 2}", shock_type="sector", sigma_u=s,
                        group="within_country_sectors", mean_corr=m, sd_corr=d, n_seeds=i + 1)
            for i, (s, m, d) in enumerate(zip(floats(rows).tolist(),
                                              floats(rows, shift=1).tolist(),
                                              floats(rows, shift=2).tolist()))]


#: table -> (input builder, new writer, old writer)
TABLES = {
    "trajectory": (trajectory, TrajectorySet.to_csv, oracle_trajectory),
    "entrainment": (entrainment, EntrainmentResult.to_csv, oracle_entrainment),
    "centrality": (centrality, SyncCentralityResult.to_csv, oracle_centrality),
    "msf": (msf_curve, MasterStabilityCurve.to_csv, oracle_msf),
    "shock-response": (shock_response, ShockResponse.to_csv, oracle_shock_response),
    "scenarios": (scenario_rows, write_scenario_csv, oracle_scenarios),
}


class TestByteParity:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_table_matches_old_writer(self, table, case, tmp_path):
        build, new, old = TABLES[table]
        value = build(*CASES[case])
        new(value, tmp_path / "new.csv")
        old(value, tmp_path / "old.csv")
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "old.csv").read_bytes()
        if case == "empty":
            assert written.count(b"\n") == 1                # the header alone
        if case == "special":
            for cell in (b"nan", b"inf", b"-inf", b"-0.0", b"5e-324"):
                assert cell in written

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flow_table_matches_old_writer_but_for_line_ends(self, case, tmp_path):
        rows, _ = CASES[case]
        sectors = ["Mining, quarrying", 'Say "B"', "line\nbreak", "cr\rhere", "in  side", "A"]
        table = FlowTable([FlowRecord(sectors[i % len(sectors)], "X", "FinD", "X|Y", v)
                           for i, v in enumerate(floats(rows).tolist())])
        table.to_csv(tmp_path / "new.csv")
        oracle_flow_table(table, tmp_path / "old.csv")
        old = (tmp_path / "old.csv").read_bytes()
        assert old.count(b"\r\n") == rows + 1
        assert (tmp_path / "new.csv").read_bytes() == old.replace(b"\r\n", b"\n")

    def test_figure_matches_old_writer(self, tmp_path):
        rows = [(float(t), y, name) for t, (y, name) in
                enumerate(zip(floats(9).tolist(), ["a", "b|c", "omega_node_0"] * 3))]
        oracle_write_figure(tmp_path / "old.csv", rows)
        write_table(tmp_path / "new.csv", ("x", "y", "series"), *zip(*rows))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--set", "network.kind=two_clique", "--set", "run.steps=300",
         "--set", "shocks.sigma_u=0.01"],
        ["sweep-epsilon", "--preset", "entrainment-complete", "--set", "sweep.eps_grid=0.1,0.25",
         "--set", "run.steps=1800"],
        ["sync-centrality", "--set", "network.kind=star", "--set", "network.n=4",
         "--set", "network.eps=0.5", "--set", "centrality.n_draws=4", "--set", "run.steps=1200"],
        ["msf", "--preset", "msf-default", "--set", "msf.k_grid=0,0.6",
         "--set", "msf.window=8000"],
        ["shock-response", "--set", "network.kind=two_clique",
         "--set", "shock_response.shock=0.1,0,0,-0.05,0,0"],
        ["scenarios", "--preset", "scenarios-smoke", "--set", "scenarios.sigma_u_grid=0.1",
         "--set", "scenarios.dynamics=cycle,node"],
    ], ids=lambda argv: argv[0])
    def test_cli_outputs_match_old_writers(self, argv, tmp_path, monkeypatch):
        """Each command's table and figure equal the old writers' on its results."""
        results = []
        for cls in ORACLE_WRITERS:
            monkeypatch.setattr(cls, "to_csv", _recording(cls.to_csv, results))
        monkeypatch.setattr(cli.empirics, "write_scenario_csv",
                            _recording(write_scenario_csv, results))
        assert cli.main(argv + ["--outdir", str(tmp_path / "out")]) == 0
        (result, table), = results
        old = oracle_scenarios if isinstance(result, list) else ORACLE_WRITERS[type(result)]
        old(result, tmp_path / "old.csv")
        assert table.read_bytes() == (tmp_path / "old.csv").read_bytes()
        (figure,) = (tmp_path / "out").glob("figure-*.csv")
        kind, old_rows = ORACLE_FIGURES[figure.name]
        assert isinstance(result, kind)
        oracle_write_figure(tmp_path / "old-figure.csv", old_rows(result))
        assert figure.read_bytes() == (tmp_path / "old-figure.csv").read_bytes()


def _recording(writer, results):
    def record(value, path):
        writer(value, path)
        results.append((value, path))
    return record


def csv_module_text(header, rows):
    """The rows as csv.writer quotes them (excel dialect, QUOTE_MINIMAL), LF-ended."""
    lines = []
    for row in [header, *rows]:
        buffer = io.StringIO(newline="")
        csv.writer(buffer).writerow(row)
        lines.append(buffer.getvalue().removesuffix("\r\n") + "\n")
    return "".join(lines)


class TestWriteTable:
    CELLS = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\n", "", " pad ",
             '"', "é|ü", "nan"]

    def test_quotes_like_the_csv_module(self, tmp_path):
        values = floats(len(self.CELLS))
        write_table(tmp_path / "t.csv", ("name", "value"), self.CELLS, values)
        expected = csv_module_text(("name", "value"), zip(self.CELLS, map(fmt, values)))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode("utf-8")
        with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[0] for row in rows[1:]] == self.CELLS
        assert all(len(row) == 2 for row in rows)

    def test_cell_form_follows_column_dtype(self, tmp_path):
        write_table(tmp_path / "t.csv", ("f", "f32", "i", "u", "b", "s"),
                    np.array([0.0, -1.5]), np.array([0.1, 2.0], dtype=np.float32),
                    np.array([0, -3]), np.array([7, 255], dtype=np.uint8),
                    np.array([True, False]), ["x", 7])
        assert (tmp_path / "t.csv").read_text() == \
            "f,f32,i,u,b,s\n0.0,0.10000000149011612,0,7,1,x\n-1.5,2.0,-3,255,0,7\n"

    def test_no_rows_writes_the_header_alone(self, tmp_path):
        write_table(tmp_path / "t.csv", ("a", "b"), [], np.empty(0))
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("chunk", [1, 2, 3, 11, 12, 4096])
    def test_chunk_size_does_not_change_the_bytes(self, chunk, tmp_path, monkeypatch):
        monkeypatch.setattr(_format, "_CHUNK_ROWS", chunk)
        steps = np.arange(len(self.CELLS))
        write_table(tmp_path / "t.csv", ("name", "step", "value"), self.CELLS, steps,
                    floats(steps.size))
        expected = csv_module_text(("name", "step", "value"),
                                   zip(self.CELLS, map(str, steps), map(fmt, floats(steps.size))))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode("utf-8")

    def test_streams_at_most_a_chunk_per_write(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_format, "_CHUNK_ROWS", 4)
        rows_per_write = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write
            fh.write = lambda text: rows_per_write.append(text.count("\n")) or write(text)
            return fh

        monkeypatch.setattr(_format, "open", recording_open, raising=False)
        write_table(tmp_path / "t.csv", ("v",), floats(10))
        assert rows_per_write == [1, 4, 4, 2]

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(tmp_path / "t.csv", ("a", "b"), [1.0, 2.0], [1.0])

    def test_two_dimensional_column_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="1-D"):
            write_table(tmp_path / "t.csv", ("a",), np.zeros((2, 2)))


class TestReadTable:
    class Bad(Exception):
        pass

    def read(self, path, header=("a", "b")):
        return list(_format.read_table(path, header, self.Bad))

    def test_rows_with_their_line_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(" a , b\n1,2\n\n , \n3,\"x,y\"\n")
        assert self.read(path) == [(2, ["1", "2"]), (5, ["3", "x,y"])]

    def test_round_trips_the_writer(self, tmp_path):
        path = tmp_path / "t.csv"
        cells = np.array(['plain', 'com,ma', 'quo"te', 'line\nbreak'])
        write_table(path, ("a", "b"), cells, np.arange(4))
        assert [row for _, row in self.read(path)] == [[c, str(i)] for i, c in enumerate(cells)]

    @pytest.mark.parametrize("text", ["", "a\n1\n", "a,c\n1,2\n"])
    def test_missing_or_wrong_header(self, text, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(self.Bad, match=r"t\.csv: expected header a,b$"):
            self.read(path)

    def test_wrong_field_count_names_the_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3,4,5\n")
        with pytest.raises(self.Bad, match=r"t\.csv:3: expected 2 fields, got 3$"):
            self.read(path)

    @pytest.mark.parametrize("rows_before", [0, 3, 5000])
    def test_undecodable_bytes(self, rows_before, tmp_path):
        # 5000 rows put the bad byte past the reader's first decoded block
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * rows_before + b"\xe9t\xe9,3\n4,5\n")
        with pytest.raises(self.Bad, match=r"t\.csv: not UTF-8 text "
                                           r"\(byte 0xe9: invalid continuation byte\)$"):
            self.read(path)

    def test_undecodable_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xffa,b\n1,2\n")
        with pytest.raises(self.Bad, match=r"t\.csv: not UTF-8 text \(byte 0xff"):
            self.read(path)

    def test_undecodable_bytes_after_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"a,b\n1,2\n\xe9t\xe9,3\n")
        with pytest.raises(self.Bad, match=r"t\.csv: not UTF-8 text "
                                           r"\(byte 0xe9: invalid continuation byte\)$"):
            self.read(path)

    @pytest.mark.parametrize("loader", ["flow table", "panel"])
    def test_loaders_skip_a_byte_order_mark(self, loader, tmp_path):
        # spreadsheet programs save UTF-8 CSV with a leading EF BB BF
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        if loader == "flow table":
            demo_flow_table().to_csv(plain)
            load = FlowTable.from_csv
        else:
            plain.write_text("country,sector,variable,year,value\n"
                             "US,D,emp,1990,1.5\nUS,D,emp,1992,2.5\nDE,F,va,2001,-0.25\n")
            load = load_panel_csv
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        assert load(marked).records == load(plain).records
        assert len(load(plain).records) >= 3
