"""Command line behavior: output shapes, exit codes, batch determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from vnum.cli import _monomial_text, main
from vnum.complexes import Field

from .graphs import fixture_by_label, whisker
from .oracles import encode_graph6


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def workload_lines(name, seed):
    """`python3 bench/workloads.py NAME --seed SEED`: graph6, a tab, a label."""
    script = os.path.join(
        os.path.dirname(os.path.dirname(__file__)), "bench", "workloads.py"
    )
    labelled = subprocess.run(
        [sys.executable, script, name, "--seed", str(seed)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert "\t" in labelled
    return labelled


@pytest.fixture()
def k2_file(tmp_path):
    path = tmp_path / "k2.txt"
    path.write_text("graph 2\n1 2\n")
    return str(path)


@pytest.fixture()
def example3_file(tmp_path):
    from vnum.catalog import EXAMPLE_GRAPH3

    lines = [f"graph {EXAMPLE_GRAPH3.vertex_count}"]
    lines += [f"{u} {v}" for u, v in EXAMPLE_GRAPH3.edges]
    path = tmp_path / "example3.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestReport:
    def test_json_k2(self, capsys, k2_file):
        code, out, _ = run_cli(capsys, "report", k2_file, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "vnum/1"
        assert (data["v"], data["dim"], data["reg_Q"], data["w2"]) == (1, 1, 1, True)

    def test_tsv_header_row(self, capsys, k2_file):
        code, out, _ = run_cli(capsys, "report", k2_file, "--tsv")
        assert code == 0
        header, row = out.strip().split("\n")
        cells = dict(zip(header.split("\t"), row.split("\t")))
        assert cells["v"] == "1" and cells["w2"] == "true"

    def test_json_key_order_is_stable(self, capsys, k2_file):
        code, out, _ = run_cli(capsys, "report", k2_file, "--json")
        keys = list(json.loads(out).keys())
        assert keys[:7] == [
            "schema", "name", "kind", "vertex_count", "edge_count", "v", "i"
        ]
        code2, out2, _ = run_cli(capsys, "report", k2_file, "--json")
        assert out == out2

    def test_field_f2_only(self, capsys, k2_file):
        code, out, _ = run_cli(capsys, "report", k2_file, "--field", "f2", "--json")
        assert code == 0
        data = json.loads(out)
        assert "reg_F2" in data and "reg_Q" not in data

    def test_both_fields_example3(self, capsys, example3_file):
        code, out, _ = run_cli(
            capsys, "report", example3_file, "--field", "both", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["v"] == 3
        assert data["reg_Q"] == 2 and data["reg_F2"] == 3
        assert data["w2"] and data["edge_critical"]
        assert data["cm_Q"] and not data["symbolic_square_cm_Q"]

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("graph 3\n1 1\n")
        code, _, err = run_cli(capsys, "report", str(bad))
        assert code == 1
        assert "input error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "report", "/nonexistent/file.txt")
        assert code == 1

    def test_graph6_input(self, capsys, tmp_path):
        path = tmp_path / "g6.txt"
        path.write_text("A_\n")
        code, out, _ = run_cli(capsys, "report", str(path), "--json")
        assert code == 0
        assert json.loads(out)["vertex_count"] == 2

    def test_example4_report(self, capsys, tmp_path):
        from vnum.catalog import EXAMPLE_GRAPH4

        lines = [f"graph {EXAMPLE_GRAPH4.vertex_count}"]
        lines += [f"{u} {v}" for u, v in EXAMPLE_GRAPH4.edges]
        path = tmp_path / "example4.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "report", str(path), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["symbolic_square_cm_Q"] is True
        assert data["v"] == data["reg_Q"] == data["beta0"] == 3


class TestSymbolicPower:
    def test_monomial_text(self):
        assert _monomial_text((2, 0, 1)) == "t1^2*t3"
        assert _monomial_text((0, 1, 0, 1)) == "t2*t4"
        assert _monomial_text((0, 0, 0)) == "1"

    def test_k2_square(self, capsys, k2_file):
        code, out, _ = run_cli(capsys, "symbolic-power", k2_file, "2")
        assert code == 0
        assert out.strip() == "t1^2*t2^2"

    def test_k3_square(self, capsys, tmp_path):
        path = tmp_path / "k3.txt"
        path.write_text("graph 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run_cli(capsys, "symbolic-power", str(path), "2")
        assert code == 0
        gens = out.strip().split("\n")
        assert gens == ["t1*t2*t3", "t2^2*t3^2", "t1^2*t3^2", "t1^2*t2^2"]

    def test_p3_square(self, capsys, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("graph 3\n1 2\n2 3\n")
        code, out, _ = run_cli(capsys, "symbolic-power", str(path), "2")
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_zero_ideal(self, capsys, tmp_path):
        path = tmp_path / "void.txt"
        path.write_text("graph 3\n")
        code, _, err = run_cli(capsys, "symbolic-power", str(path), "2")
        assert code == 1

    def test_zero_power(self, capsys, k2_file):
        code, out, err = run_cli(capsys, "symbolic-power", k2_file, "0")
        assert code == 1
        assert out == "" and "n >= 1" in err


class TestCatalogVerify:
    def test_cm36(self, capsys):
        code, out, _ = run_cli(capsys, "catalog-verify", "--table", "cm36")
        assert code == 0
        lines = out.strip().split("\n")
        assert sum(1 for ln in lines if ln.endswith("\tpass")) == 36
        # two routes over two fields, and edge-criticality, on every entry
        assert lines[0].split("\t")[3:-1] == [
            "symbolic_square_cm_Q=true",
            "symbolic_square_cm_F2=true",
            "polarized_square_cm_Q=true",
            "polarized_square_cm_F2=true",
            "edge_critical=true",
        ]
        assert "split 19 + 17" in out
        assert "36 pass" in lines[-1]

    def test_edge_critical_scan(self, capsys, tmp_path):
        # C5 and K3 are edge-critical, P3 (graph6 "Bw") is not
        stream = tmp_path / "graphs.g6"
        stream.write_text("DqK\nBw\nBW\n")
        code, out, _ = run_cli(capsys, "catalog-verify", "--edge-critical", str(stream))
        assert code == 0
        assert "scanned 3 graphs" in out

    def test_labelled_stream_scans_as_its_first_column(self, capsys, tmp_path):
        # the scan reads graph6 lines as a batch does: the first field of
        # each, so the labels the workload script prints are not read
        labelled = workload_lines("cm36", 1)
        first_column = "".join(ln.split("\t")[0] + "\n" for ln in labelled.splitlines())
        outs = []
        for text in (labelled, first_column):
            stream = tmp_path / "cm36.g6"
            stream.write_text(text)
            code, out, _ = run_cli(capsys, "catalog-verify", "--edge-critical", str(stream))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert outs[0].endswith(
            "scanned 37 graphs; edge-critical with 2..9 vertices: 36, "
            "of which 17 have 9 vertices\n"
        )

    def test_bad_line_named_as_in_a_batch(self, capsys, tmp_path):
        # blank lines are not counted, so "B!" (byte 33 is no graph6 byte)
        # is line 3 in the scan's message and in the batch's rows
        stream = tmp_path / "bad.g6"
        stream.write_text("A_\n\nBw\tP3\nB!\n")
        code, out, err = run_cli(capsys, "catalog-verify", "--edge-critical", str(stream))
        assert code == 1 and out == ""
        assert "input error: line 3: invalid graph6 byte 33" in err
        code, out, _ = run_cli(capsys, "batch", str(stream), "--graph6", "--json")
        rows = [json.loads(ln) for ln in out.splitlines()]
        assert [r["name"] for r in rows] == ["line 1", "line 2", "line 3"]
        assert rows[2]["error"] == "invalid graph6 byte 33"

    def test_empty_stream(self, capsys, tmp_path):
        stream = tmp_path / "empty.g6"
        stream.write_text("\n")
        code, out, _ = run_cli(capsys, "catalog-verify", "--edge-critical", str(stream))
        assert code == 0
        assert "scanned 0 graphs" in out


class TestBatch:
    def _write_stream(self, tmp_path):
        # K2, K3, C4 in graph6
        stream = tmp_path / "batch.g6"
        stream.write_text("A_\nBw\nCl\n")
        return str(stream)

    def test_graph6_batch_values(self, capsys, tmp_path):
        stream = self._write_stream(tmp_path)
        code, out, _ = run_cli(capsys, "batch", stream, "--graph6", "--json")
        assert code == 0
        rows = [json.loads(ln) for ln in out.strip().split("\n")]
        assert [r["v"] for r in rows] == [1, 1, 1]
        assert [r["w2"] for r in rows] == [True, True, False]

    def test_malformed_line_in_band(self, capsys, tmp_path):
        stream = tmp_path / "batch.g6"
        stream.write_text("A_\nA!x\nBw\n")
        code, out, _ = run_cli(capsys, "batch", str(stream), "--graph6", "--json")
        assert code == 0
        rows = [json.loads(ln) for ln in out.strip().split("\n")]
        assert "error" in rows[1]
        assert rows[0]["v"] == 1 and rows[2]["v"] == 1

    def test_batch_of_failed_rows_is_an_input_error(self, capsys, tmp_path):
        # every row is printed either way; the batch exits 1 only when no
        # input gave a report
        stream = tmp_path / "garbage.g6"
        stream.write_text("A!x\n!!\nBw!\n")
        code, out, _ = run_cli(capsys, "batch", str(stream), "--graph6", "--json")
        assert code == 1
        rows = [json.loads(ln) for ln in out.strip().split("\n")]
        assert [r["name"] for r in rows] == ["line 1", "line 2", "line 3"]
        assert all("error" in r for r in rows)
        stream.write_text("A!x\n!!\nBw!\nA_\n")
        code, out, _ = run_cli(capsys, "batch", str(stream), "--graph6", "--json")
        assert code == 0
        rows = [json.loads(ln) for ln in out.strip().split("\n")]
        assert ["error" in r for r in rows] == [True, True, True, False]

    def test_file_of_files(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        a.write_text("graph 2\n1 2\n")
        b = tmp_path / "b.txt"
        b.write_text("graph 3\n1 2\n2 3\n")
        listing = tmp_path / "list.txt"
        listing.write_text(f"{a}\n{b}\n")
        code, out, _ = run_cli(capsys, "batch", str(listing))
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3  # header + 2 rows

    def test_parallel_determinism(self, capsys, tmp_path):
        stream = self._write_stream(tmp_path)
        _, serial, _ = run_cli(capsys, "batch", stream, "--graph6", "--json")
        _, parallel, _ = run_cli(
            capsys, "batch", stream, "--graph6", "--json", "--parallel", "4"
        )
        assert serial == parallel

    def test_workers_clamped(self, capsys, tmp_path, monkeypatch):
        # the executor is replaced, so no worker process is ever started
        import concurrent.futures

        import vnum.cli as cli

        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        stream = self._write_stream(tmp_path)
        _, serial, _ = run_cli(capsys, "batch", stream, "--graph6", "--json")
        assert asked == []
        _, out, _ = run_cli(
            capsys, "batch", stream, "--graph6", "--json", "--parallel", "1000"
        )
        assert asked == [2] and out == serial
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
        _, out, _ = run_cli(
            capsys, "batch", stream, "--graph6", "--json", "--parallel", "1000"
        )
        assert asked == [2, 3] and out == serial
        one = tmp_path / "one.g6"
        one.write_text("A_\n")
        run_cli(capsys, "batch", str(one), "--graph6", "--json")
        assert asked == [2, 3]

    def test_cross_route_row_in_band(self, capsys, tmp_path, monkeypatch):
        # one worker, so the patched report runs in this process
        import vnum.cli as cli
        from vnum.classify import CrossRouteError

        real = cli.full_report

        def failing_on_line_2(c, *, name):
            if name == "line 2":
                raise CrossRouteError("synthetic disagreement: v 1 vs 2")
            return real(c, name=name)

        monkeypatch.setattr(cli, "full_report", failing_on_line_2)
        stream = self._write_stream(tmp_path)
        code, out, err = run_cli(capsys, "batch", stream, "--graph6", "--json")
        assert code == 2
        rows = [json.loads(ln) for ln in out.strip().split("\n")]
        assert len(rows) == 3
        assert rows[0]["v"] == 1 and rows[2]["v"] == 1
        assert rows[1] == {
            "schema": "vnum/1",
            "name": "line 2",
            "error": "cross-route: synthetic disagreement: v 1 vs 2",
        }
        assert "line 2" in err and "v 1 vs 2" in err
        code, out, _ = run_cli(capsys, "batch", stream, "--graph6", "--tsv")
        assert code == 2 and len(out.strip().split("\n")) == 4


class TestTooLarge:
    """Inputs above MAX_VERTICES are refused with exit 4, not scanned."""

    # 25 vertices, one edge: parsed, then refused before any scan starts
    BIG = "X_" + "?" * 49

    def test_report_refused(self, capsys, tmp_path):
        path = tmp_path / "big.g6"
        path.write_text(self.BIG + "\n")
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 4 and out == ""
        assert "25 vertices exceed the limit of 24" in err

    @staticmethod
    def _never(*args, **kwargs):
        raise AssertionError("a too-large input reached the computation")

    def test_symbolic_power_refused(self, capsys, tmp_path, monkeypatch):
        import vnum.cli as cli

        monkeypatch.setattr(cli, "symbolic_power", self._never)
        path = tmp_path / "big.g6"
        path.write_text(self.BIG + "\n")
        code, out, err = run_cli(capsys, "symbolic-power", str(path), "2")
        assert code == 4 and out == ""
        assert "25 vertices exceed the limit of 24" in err

    def test_edge_critical_scan_refused(self, capsys, tmp_path, monkeypatch):
        import vnum.classify as classify

        monkeypatch.setattr(classify, "is_edge_critical", self._never)
        stream = tmp_path / "s.g6"
        stream.write_text(f"{self.BIG}\nA_\n")
        code, out, err = run_cli(
            capsys, "catalog-verify", "--edge-critical", str(stream)
        )
        assert code == 4 and out == ""
        assert "25 vertices exceed the limit of 24" in err

    def test_batch_row_in_band(self, capsys, tmp_path):
        # one worker, so everything runs in this process
        stream = tmp_path / "s.g6"
        stream.write_text(f"A_\n{self.BIG}\nBw\n")  # K2, 25 vertices, K3
        code, out, err = run_cli(capsys, "batch", str(stream), "--graph6", "--json")
        assert code == 4
        rows = [json.loads(ln) for ln in out.strip().split("\n")]
        assert len(rows) == 3
        assert rows[0]["v"] == 1 and rows[2]["v"] == 1
        assert rows[1] == {
            "schema": "vnum/1",
            "name": "line 2",
            "error": "too large: 25 vertices exceed the limit of 24",
        }
        assert err == ""
        code, out, _ = run_cli(capsys, "batch", str(stream), "--graph6", "--tsv")
        assert code == 4 and len(out.strip().split("\n")) == 4

    @pytest.mark.parametrize("kind", ["graph", "clutter"])
    def test_large_edge_list_refused_before_its_clutter(
        self, capsys, tmp_path, monkeypatch, kind
    ):
        # 3,000 vertices and 20,972 edges: the vertex count alone refuses
        # it, so no clutter is built or validated, and the parser compares
        # no edge with another (CI times the clutter document)
        from vnum.formats import InputDocument

        monkeypatch.setattr(InputDocument, "to_clutter", self._never)
        edges = [f"{i} {i + k}" for k in range(1, 8) for i in range(1, 3001 - k)]
        path = tmp_path / "big.txt"
        path.write_text(f"{kind} 3000\n" + "\n".join(edges) + "\n")
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 4 and out == ""
        assert "3000 vertices exceed the limit of 24" in err
        listing = tmp_path / "files.txt"
        listing.write_text(f"{path}\n")
        code, out, _ = run_cli(capsys, "batch", str(listing), "--json")
        assert code == 4
        assert json.loads(out)["error"] == (
            "too large: 3000 vertices exceed the limit of 24"
        )

    def test_cross_route_exit_wins(self, capsys, tmp_path, monkeypatch):
        import vnum.cli as cli
        from vnum.classify import CrossRouteError

        def boom(*args, **kwargs):
            raise CrossRouteError("synthetic disagreement")

        monkeypatch.setattr(cli, "full_report", boom)
        stream = tmp_path / "s.g6"
        stream.write_text(f"A_\n{self.BIG}\n")
        code, _, _ = run_cli(capsys, "batch", str(stream), "--graph6", "--json")
        assert code == 2


class TestGoldenOutput:
    """`batch --json --field both` output is frozen byte for byte.

    tests/data/golden.g6 holds every 10th conftest corpus graph, the CM36
    catalog and example-graph3; golden.jsonl is its recorded output.  A
    change that moves any value, key order or formatting fails here.
    cm36-seed2.g6 holds the same catalog graphs and example-graph3 with
    their vertices shuffled (the first column of `python3
    bench/workloads.py cm36 --seed 2`, which prints a label after a tab on
    each line), so that a fault seen only under some labellings fails too.
    """

    @staticmethod
    def assert_batch_matches(capsys, name, stream=None):
        data = os.path.join(os.path.dirname(__file__), "data")
        code, out, _ = run_cli(
            capsys, "batch", stream or os.path.join(data, f"{name}.g6"),
            "--graph6", "--json", "--field", "both",
        )
        assert code == 0
        with open(os.path.join(data, f"{name}.jsonl"), "rb") as fh:
            assert out.encode("utf-8") == fh.read()

    def test_batch_matches_golden(self, capsys):
        self.assert_batch_matches(capsys, "golden")

    def test_relabelled_catalog_matches_golden(self, capsys):
        self.assert_batch_matches(capsys, "cm36-seed2")

    def test_labelled_workload_lines_match_golden(self, capsys, tmp_path):
        # a batch reads the first field of each graph6 line, so the labels
        # the workload script prints after a tab are not part of a graph
        stream = tmp_path / "cm36-seed2.labelled.g6"
        stream.write_text(workload_lines("cm36", 2))
        self.assert_batch_matches(capsys, "cm36-seed2", str(stream))


class TestGoldenCommands:
    """`symbolic-power` and `report` output is frozen byte for byte too.

    tests/data holds the inputs example-graph3.txt, c5.txt, clutter10.txt
    and clutter16.txt and, for each command below, its recorded output.
    example-graph3 is reported with each field alone too, since its fields
    differ (reg 2 over Q and 3 over GF(2), Cohen-Macaulay over Q only) and
    a one-field report picks its own keys.  example-graph3 and clutter10
    are also reported as TSV (`.report.tsv`) and as plain text
    (`.report.out`), the two other formats of the same report row.
    The two clutters, with edges of sizes 2 and 3 on 10 and 16 vertices,
    are the golden inputs that are not graphs, and no benchmark workload
    has one: their regularity scans skip subsets by the same cone-link rule
    as a graph's, with wider rests that a graph never has, and their colon
    pieces hold the pairs left of their 3-edges.  Their symbolic squares,
    and clutter10's cube, are frozen as well, so that the prime-power fold
    has goldens on wide edges and not on graphs alone.  clutter16.txt holds
    the edges with no proper subset among 26 drawn by `random.Random(0)`,
    each `frozenset(rng.sample(range(1, 17), rng.choice((2, 3, 3))))`.
    """

    def test_commands_match_golden(self, capsys):
        data = os.path.join(os.path.dirname(__file__), "data")
        runs = [
            (["symbolic-power", os.path.join(data, f"{g}.txt"), str(k)],
             f"{g}.power{k}.out")
            for g in ("example-graph3", "c5")
            for k in (1, 2, 3)
        ]
        runs += [
            (["symbolic-power", os.path.join(data, f"{g}.txt"), str(k)],
             f"{g}.power{k}.out")
            for g, k in (("clutter10", 2), ("clutter10", 3), ("clutter16", 2))
        ]
        runs += [
            (["report", os.path.join(data, f"{g}.txt"), "--field", "both", "--json"],
             f"{g}.report.json")
            for g in ("example-graph3", "clutter10", "clutter16")
        ]
        runs += [
            (["report", os.path.join(data, "example-graph3.txt"), "--field", f, "--json"],
             f"example-graph3.{f}.report.json")
            for f in ("q", "f2")
        ]
        runs += [
            (["report", os.path.join(data, f"{g}.txt"), "--field", "both", *fmt], golden)
            for g in ("example-graph3", "clutter10")
            for fmt, golden in (
                (["--tsv"], f"{g}.report.tsv"), ([], f"{g}.report.out")
            )
        ]
        for argv, golden in runs:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, golden
            with open(os.path.join(data, golden), "rb") as fh:
                assert out.encode("utf-8") == fh.read(), golden


class TestGoldenReportsAtScale:
    """`report --field both --json` on seeded graphs of 16 to 24 vertices.

    tests/data/gnp16-0.3.txt, gnp20-0.25.txt and gnp22-0.2.txt are the
    seeded G(16, 0.3), G(20, 0.25) and G(22, 0.2) draws (see the `gnp`
    fixture), and whisker-gnp12-0.3.txt is W(12), the whiskered
    G(12, 0.3) on 24 vertices.  The first two .report.json files are the
    output recorded before the fold and strong-collapse prunes, the third
    the output recorded before rational ranks became a sparse column
    reduction, and W(12)'s the output recorded before family A was read
    off neighbour sets.  The 16-vertex report runs here; CI runs the other
    three through the console script under time limits.
    """

    def test_inputs_are_the_seeded_draws(self, gnp):
        from vnum.formats import parse_edge_list

        data = os.path.join(os.path.dirname(__file__), "data")
        for name, graph in (
            ("gnp16-0.3.txt", gnp(16, 0.3)),
            ("gnp20-0.25.txt", gnp(20, 0.25)),
            ("gnp22-0.2.txt", gnp(22, 0.2)),
            ("whisker-gnp12-0.3.txt", whisker(gnp(12, 0.3))),
        ):
            with open(os.path.join(data, name)) as fh:
                doc = parse_edge_list(fh.read())
            assert doc.to_clutter() == graph, name

    def test_report_on_16_vertices_matches_golden(self, capsys):
        data = os.path.join(os.path.dirname(__file__), "data")
        graph = os.path.join(data, "gnp16-0.3.txt")
        code, out, _ = run_cli(capsys, "report", graph, "--field", "both", "--json")
        assert code == 0
        with open(os.path.join(data, "gnp16-0.3.report.json"), "rb") as fh:
            assert out.encode("utf-8") == fh.read()


class TestFieldProjection:
    """Every report computes both fields; `--field` only picks the keys.

    So the `q` and `f2` output is the `both` output with the other field's
    keys dropped: on the batch goldens, on the conftest corpus and on the
    golden 10-vertex clutter, whose report has no symbolic-square keys.
    """

    OTHER = {"q": "_F2", "f2": "_Q"}

    def assert_projects(self, capsys, argv, indent=None):
        _, both, _ = run_cli(capsys, *argv, "--field", "both")
        # a batch prints one row a line, a report one indented row
        lines = [both] if indent else both.splitlines()
        rows = [json.loads(ln) for ln in lines]
        for field, other in self.OTHER.items():
            code, out, _ = run_cli(capsys, *argv, "--field", field)
            assert code == 0
            kept = [{k: v for k, v in r.items() if not k.endswith(other)} for r in rows]
            want = "".join(json.dumps(r, indent=indent) + "\n" for r in kept)
            assert out == want, (argv, field)

    def test_batch_goldens(self, capsys):
        data = os.path.join(os.path.dirname(__file__), "data")
        for name in ("golden", "cm36-seed2"):
            path = os.path.join(data, f"{name}.g6")
            self.assert_projects(capsys, ["batch", path, "--graph6", "--json"])

    def test_corpus(self, capsys, tmp_path, corpus):
        stream = tmp_path / "corpus.g6"
        lines = [encode_graph6(g.vertex_count, g.edge_lists()) for g in corpus]
        stream.write_text("\n".join(lines) + "\n")
        self.assert_projects(capsys, ["batch", str(stream), "--graph6", "--json"])

    def test_clutter_report(self, capsys):
        path = os.path.join(os.path.dirname(__file__), "data", "clutter10.txt")
        self.assert_projects(capsys, ["report", path, "--json"], indent=2)


class TestUsageErrors:
    """argparse's usage errors exit 1, an input error, not 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["report", "x.txt", "--field", "bogus"], "invalid choice: 'bogus'"),
            (["batch", "x.txt", "--parallel", "x"], "invalid int value: 'x'"),
            (["catalog-verify", "--table", "foo"], "invalid choice: 'foo'"),
            (
                ["catalog-verify", "--table", "cm36", "--edge-critical", "x.g6"],
                "argument --edge-critical: not allowed with argument --table",
            ),
            (
                ["catalog-verify"],
                "one of the arguments --table --edge-critical is required",
            ),
        ],
    )
    def test_usage_error_is_an_input_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert message in err and not out

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--help"])
        assert exc.value.code == 0
        assert "--field" in capsys.readouterr().out


class TestCrossRouteExit:
    def test_cross_route_error_maps_to_exit_2(self, capsys, monkeypatch, k2_file):
        import vnum.cli as cli
        from vnum.classify import CrossRouteError

        def boom(*args, **kwargs):
            raise CrossRouteError("synthetic disagreement")

        monkeypatch.setattr(cli, "full_report", boom)
        code, _, err = run_cli(capsys, "report", k2_file)
        assert code == 2
        assert "disagreement" in err

    def test_q_report_checks_the_gf2_regularity(
        self, capsys, monkeypatch, example3_file
    ):
        # every report scans both fields, so a report printed for Q alone
        # still holds reg_Q <= reg_F2; here the GF(2) value is made too small
        import vnum.classify as classify

        real = classify.regularities

        def corrupted(c):
            regs = real(c)
            regs[Field.F2] = regs[Field.Q] - 1
            return regs

        monkeypatch.setattr(classify, "regularities", corrupted)
        code, _, err = run_cli(capsys, "report", example3_file, "--field", "q")
        assert code == 2
        assert "reg-Q=2, reg-F2=1" in err

    def test_fixture_failure_maps_to_exit_3(self, capsys, monkeypatch):
        import vnum.cli as cli
        from vnum.catalog import CatalogFixture

        # P3 is neither edge-critical nor symbolic-square CM
        broken = CatalogFixture("bogus", 3, ((1, 2), (2, 3)))
        monkeypatch.setattr(cli, "CM36", (broken,))
        code, out, _ = run_cli(capsys, "catalog-verify", "--table", "cm36")
        assert code == 3
        assert "FAIL" in out

    def test_polarized_square_missing_a_generator_fails(self, capsys, monkeypatch):
        # the table runs the polarization oracle on the 9-vertex entries too,
        # which reports leave to the combinatorial route alone
        import vnum.classify as classify
        from vnum.clutters import Clutter

        target = fixture_by_label("cm36-32").graph()
        polarize = classify.polarized_symbolic_power

        def dropped(g, n):
            square = polarize(g, n)
            if g != target:
                return square
            return Clutter(square.vertex_count, square.edge_masks[1:])

        monkeypatch.setattr(classify, "polarized_symbolic_power", dropped)
        code, out, _ = run_cli(capsys, "catalog-verify", "--table", "cm36")
        assert code == 3
        failed = [ln for ln in out.splitlines() if ln.endswith("\tFAIL")]
        assert len(failed) == 1 and failed[0].startswith("cm36-32\t")
        assert "\tsymbolic_square_cm_Q=true\t" in failed[0]
        assert "\tpolarized_square_cm_Q=false\t" in failed[0]


class TestClutterInput:
    def test_clutter_report(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("clutter 4\n1 2 3\n3 4\n")
        code, out, _ = run_cli(capsys, "report", str(path), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "clutter"
        assert data["gamma"] is None and data["w2"] is None

    def test_prime_clutter_report(self, capsys, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("clutter 2\n1\n2\n")
        code, out, _ = run_cli(capsys, "report", str(path), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["v"] == 0 and data["dim"] == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("graph 3\n1 1\n", "line 2: vertex 1 repeated"),
            ("graph 3\n1 2 2\n", "line 2: vertex 2 repeated"),
            ("graph 3\n1 2 3\n", "graph edge must have exactly 2 vertices, got (1, 2, 3)"),
            ("graph 3\n1 2\n2 1\n", "repeated edge (1, 2)"),
            (
                "clutter 3\n1 2 3\n2 3\n",
                "not an antichain: edge (2, 3) is contained in edge (1, 2, 3)",
            ),
            ("clutter 3\n1 2 3\n3 2 1\n", "repeated edge (1, 2, 3)"),
            ("clutter 3\n1 1 2\n", "line 2: vertex 1 repeated"),
            ("graph 3\n0 1\n", "line 2: vertex 0 outside 1..3"),
            ("graph 3\n1 4\n", "line 2: vertex 4 outside 1..3"),
            ("graph 3\n1 x\n", "line 2: non-integer vertex index"),
        ],
        ids=[
            "loop", "graph-repeated-vertex", "graph-3-edge", "graph-duplicate",
            "clutter-subset", "clutter-duplicate", "clutter-repeated-vertex",
            "vertex-0", "vertex-s+1", "non-integer",
        ],
    )
    def test_malformed_document(self, capsys, tmp_path, text, message):
        # the parser checks each line, the constructors the edge set; both
        # are input errors, and a batch keeps them in band
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == 1 and out == ""
        assert err == f"input error: {message}\n"
        listing = tmp_path / "files.txt"
        listing.write_text(f"{path}\n")
        code, out, _ = run_cli(capsys, "batch", str(listing), "--json")
        # the batch's one row failed, so the batch is an input error too
        assert code == 1
        assert json.loads(out) == {"schema": "vnum/1", "name": "line 1", "error": message}

    def test_edgeless_graph_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "void.txt"
        path.write_text("graph 2\n")
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 1
        assert "zero ideal" in err
