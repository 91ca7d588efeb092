"""End-to-end CLI tests: commands, flags, exit codes, determinism."""

import csv
import runpy
from pathlib import Path

import pytest

from kbevolve import cli
from kbevolve.cli import main


# The benchmark's probe inputs, defined in perfbench/workloads.py.
WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"))
# Line 2's \u escape holds a sign where its four hex digits belong.
BAD_ESCAPE_LINES = (
    '<http://probe.example/i1> <http://probe.example/p> "a" .\n'
    '<http://probe.example/i2> <http://probe.example/p> "\\u-001" .\n'
    '<http://probe.example/i3> <http://probe.example/p> "c" .\n'
)
# Lines 2-4 hold an IRI with a backslash or a control character, escaped or
# raw; exported raw, it would not parse back.
UNRELOADABLE_IRI_LINES = (
    '<http://probe.example/i1> <http://probe.example/p> "a" .\n'
    '<http://probe.example/i\\u005Cb> <http://probe.example/p> "b" .\n'
    "<http://probe.example/i3> <http://probe.example/p> <http://probe.example/n\\u000Ax> .\n"
    '<http://probe.example/i4> <http://probe.example/p\x01> "d" .\n'
)


def run_synth(tmp_path, *extra):
    args = [
        "synth",
        "--classes", "4",
        "--sig", "3",
        "--shared", "1",
        "--instances", "6",
        "--hidden", "0.5",
        "--noise", "0.0",
        "--seed", "9",
        "--out-dir", str(tmp_path),
    ]
    assert main(args + list(extra)) == 0
    return tmp_path / "synth_schema.nt", tmp_path / "synth_instances.nt", tmp_path / "synth_truth.csv"


class TestSynthCommand:
    def test_writes_three_artifacts(self, tmp_path):
        schema, instances, truth = run_synth(tmp_path)
        assert schema.exists() and instances.exists() and truth.exists()
        rows = list(csv.reader(truth.open()))
        assert rows[0] == ["instance", "true_class"]
        assert len(rows) == 1 + 4 * 6

    def test_deterministic_bytes(self, tmp_path):
        a = run_synth(tmp_path / "a")
        b = run_synth(tmp_path / "b")
        for left, right in zip(a, b):
            assert left.read_bytes() == right.read_bytes()

    def test_invalid_fraction_exits_one(self, tmp_path, capsys):
        code = main(["synth", "--hidden", "1.5", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["synth", "--bogus-flag", "1", "--out-dir", str(tmp_path)])
        assert exc_info.value.code == 2


class TestEvolveCommand:
    def _evolve(self, tmp_path, schema, instances, *extra):
        out = tmp_path / "evolved.nt"
        report = tmp_path / "report.csv"
        code = main(
            ["evolve", str(schema), str(instances), "--out", str(out), "--report", str(report)]
            + list(extra)
        )
        return code, out, report

    def test_end_to_end(self, tmp_path, capsys):
        schema, instances, _ = run_synth(tmp_path)
        code, out, report = self._evolve(tmp_path, schema, instances, "--batch-lines", "40")
        assert code == 0
        assert out.exists()
        rows = list(csv.reader(report.open()))
        line_count = sum(1 for _ in instances.open())
        expected_batches = -(-line_count // 40)
        assert len(rows) == 1 + expected_batches
        assert "saved" in capsys.readouterr().out

    def test_outputs_deterministic(self, tmp_path):
        schema, instances, _ = run_synth(tmp_path)
        (tmp_path / "r1").mkdir()
        (tmp_path / "r2").mkdir()
        _, out1, report1 = self._evolve(tmp_path / "r1", schema, instances)
        _, out2, report2 = self._evolve(tmp_path / "r2", schema, instances)
        assert out1.read_bytes() == out2.read_bytes()
        assert report1.read_bytes() == report2.read_bytes()

    def test_audit_files_written(self, tmp_path):
        schema, instances, _ = run_synth(tmp_path)
        typing_audit = tmp_path / "typing.csv"
        domain_audit = tmp_path / "domains.csv"
        code, _, _ = self._evolve(
            tmp_path,
            schema,
            instances,
            "--typing-audit", str(typing_audit),
            "--domain-audit", str(domain_audit),
        )
        assert code == 0
        typing_rows = list(csv.reader(typing_audit.open()))
        assert typing_rows[0] == ["instance", "previous", "chosen", "score", "method"]
        assert len(typing_rows) > 1
        domain_rows = list(csv.reader(domain_audit.open()))
        assert domain_rows[0] == ["class", "property", "action", "ratio", "threshold"]

    def test_inner_round_cut_off_warned_on_stderr(self, tmp_path, capsys):
        schema, instances, _ = run_synth(tmp_path)
        capsys.readouterr()
        code, _, _ = self._evolve(tmp_path, schema, instances, "--max-inner-rounds", "1")
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: 1 batches stopped at --max-inner-rounds before converging\n"
        assert "warning" not in captured.out
        code, _, _ = self._evolve(tmp_path, schema, instances)
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_schema_cycle_exits_one_naming_cycle(self, tmp_path, capsys):
        schema = tmp_path / "schema.nt"
        schema.write_text(
            "<http://ex/A> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/B> .\n"
            "<http://ex/B> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex/A> .\n"
        )
        instances = tmp_path / "inst.nt"
        instances.write_text("")
        code, _, _ = self._evolve(tmp_path, schema, instances)
        assert code == 1
        err = capsys.readouterr().err
        assert "cycle" in err and "http://ex/A" in err

    def test_missing_triples_file_exits_two(self, tmp_path):
        schema = tmp_path / "schema.nt"
        schema.write_text("")
        code, _, _ = self._evolve(tmp_path, schema, tmp_path / "missing.nt")
        assert code == 2

    def test_method_flag_validated(self, tmp_path):
        schema, instances, _ = run_synth(tmp_path)
        with pytest.raises(SystemExit) as exc_info:
            main(["evolve", str(schema), str(instances), "--method", "bogus"])
        assert exc_info.value.code == 2

    def test_parse_errors_in_instance_data_tolerated(self, tmp_path, capsys):
        schema, instances, _ = run_synth(tmp_path)
        noisy = tmp_path / "noisy.nt"
        noisy.write_text("this is not a triple\n" + instances.read_text())
        code, _, _ = self._evolve(tmp_path, schema, noisy)
        assert code == 0
        assert "tolerated 1 malformed instance lines" in capsys.readouterr().out

    def test_undecodable_line_tolerated(self, tmp_path, capsys):
        schema = tmp_path / "schema.nt"
        schema.write_text(WORKLOADS["PROBE_SCHEMA"], encoding="utf-8")
        data = tmp_path / "bad_encoding.nt"
        data.write_bytes(WORKLOADS["PROBE_BAD_ENCODING"])
        code, out, report = self._evolve(tmp_path, schema, data)
        assert code == 0
        assert "tolerated 1 malformed instance lines" in capsys.readouterr().out
        assert out.exists() and report.exists()
        snapshot = out.read_text(encoding="utf-8")
        assert "<http://probe.example/i1>" in snapshot and "<http://probe.example/i3>" in snapshot
        assert "<http://probe.example/i2>" not in snapshot

    def test_malformed_unicode_escape_tolerated(self, tmp_path, capsys):
        schema = tmp_path / "schema.nt"
        schema.write_text(WORKLOADS["PROBE_SCHEMA"], encoding="utf-8")
        data = tmp_path / "bad_escape.nt"
        data.write_text(BAD_ESCAPE_LINES, encoding="utf-8")
        code, out, report = self._evolve(tmp_path, schema, data)
        assert code == 0
        assert "tolerated 1 malformed instance lines" in capsys.readouterr().out
        assert out.exists() and report.exists()
        snapshot = out.read_text(encoding="utf-8")
        assert "<http://probe.example/i1>" in snapshot and "<http://probe.example/i3>" in snapshot
        assert "<http://probe.example/i2>" not in snapshot

    def test_unreloadable_iris_tolerated(self, tmp_path, capsys):
        schema = tmp_path / "schema.nt"
        schema.write_text(WORKLOADS["PROBE_SCHEMA"], encoding="utf-8")
        data = tmp_path / "bad_iris.nt"
        data.write_text(UNRELOADABLE_IRI_LINES, encoding="utf-8")
        code, out, _ = self._evolve(tmp_path, schema, data)
        assert code == 0
        assert "tolerated 3 malformed instance lines" in capsys.readouterr().out
        assert main(["report", str(out)]) == 0
        assert "instances_total=1\n" in capsys.readouterr().out
        again = tmp_path / "again.nt"
        assert main(["export", str(out), "--out", str(again)]) == 0
        assert again.read_bytes() == out.read_bytes()


class TestReportCommand:
    def test_prints_ratio_lines(self, tmp_path, capsys):
        schema, instances, _ = run_synth(tmp_path)
        out = tmp_path / "evolved.nt"
        main(["evolve", str(schema), str(instances), "--out", str(out), "--report", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        values = dict(line.split("=", 1) for line in lines)
        assert 0.0 <= float(values["classified_ratio"]) <= 1.0
        assert 0.0 <= float(values["property_domain_ratio"]) <= 1.0
        assert values["classified_ratio_defined"] == "true"

    def test_empty_snapshot_zero_flagged(self, tmp_path, capsys):
        empty = tmp_path / "empty.nt"
        empty.write_text("")
        assert main(["report", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "classified_ratio=0.000000" in out
        assert "classified_ratio_defined=false" in out

    def test_corrupt_snapshot_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.nt"
        bad.write_text("<http://ex/a> <http://ex/p> .\n")
        assert main(["report", str(bad)]) == 2
        assert "corrupt" in capsys.readouterr().err

    def test_unreadable_snapshot_exits_two(self, tmp_path):
        assert main(["report", str(tmp_path / "nope.nt")]) == 2


class TestIngestCommand:
    def test_accounting_output(self, tmp_path, capsys):
        path = tmp_path / "data.nt"
        path.write_text(
            "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
            "# comment\n"
            "broken\n"
        )
        assert main(["ingest", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lines_read=3" in out
        assert "triples_emitted=1" in out
        assert "lines_skipped=1" in out
        assert "parse_errors=1" in out
        assert "error line 3" in out

    def test_undecodable_line_listed(self, tmp_path, capsys):
        path = tmp_path / "data.nt"
        path.write_bytes(WORKLOADS["PROBE_BAD_ENCODING"])
        assert main(["ingest", str(path)]) == 0
        out = capsys.readouterr().out
        assert "triples_emitted=2" in out
        assert "parse_errors=1" in out
        assert "error line 2: bad encoding" in out

    def test_malformed_unicode_escape_listed(self, tmp_path, capsys):
        path = tmp_path / "data.nt"
        path.write_text(BAD_ESCAPE_LINES, encoding="utf-8")
        assert main(["ingest", str(path)]) == 0
        out = capsys.readouterr().out
        assert "triples_emitted=2" in out
        assert "error line 2: bad escape" in out

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["ingest", str(tmp_path / "nope.nt")]) == 2

    def test_batches_count_like_one_pass(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "data.nt"
        path.write_text(
            "<http://ex/a> <http://ex/p> <http://ex/b> .\n"
            "# comment\n"
            "broken\n"
            + UNRELOADABLE_IRI_LINES
            + "\n",
            encoding="utf-8",
        )
        assert main(["ingest", str(path)]) == 0
        whole = capsys.readouterr().out
        assert "error line 3: bad subject\nerror line 5: bad iri\n" in whole
        monkeypatch.setattr(cli, "INGEST_BATCH_LINES", 2)
        assert main(["ingest", str(path)]) == 0
        assert capsys.readouterr().out == whole

    def test_listed_errors_capped_across_batches(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "data.nt"
        path.write_text("broken\n# comment\n<http://ex/a> <http://ex/p> .\nbroken\n", encoding="utf-8")
        monkeypatch.setattr(cli, "INGEST_BATCH_LINES", 2)
        assert main(["ingest", str(path), "--show-errors", "1"]) == 0
        out = capsys.readouterr().out
        assert "parse_errors=3\nerror line 1: bad subject\n" in out
        assert out.count("error line") == 1
        assert main(["ingest", str(path), "--show-errors", "0"]) == 0
        assert "error line" not in capsys.readouterr().out

    def test_negative_show_errors_rejected_before_reading(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "nope.nt"), "--show-errors", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--show-errors" in captured.err


class TestExportCommand:
    def test_normalization_fixed_point(self, tmp_path, capsys):
        schema, instances, _ = run_synth(tmp_path)
        evolved = tmp_path / "evolved.nt"
        main(["evolve", str(schema), str(instances), "--out", str(evolved), "--report", str(tmp_path / "r.csv")])
        once = tmp_path / "once.nt"
        twice = tmp_path / "twice.nt"
        assert main(["export", str(evolved), "--out", str(once)]) == 0
        assert main(["export", str(once), "--out", str(twice)]) == 0
        assert once.read_bytes() == twice.read_bytes()
        assert once.read_bytes() == evolved.read_bytes()

    def test_undecodable_snapshot_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.nt"
        bad.write_bytes(b'<http://ex/a> <http://ex/p> "\xff" .\n')
        assert main(["export", str(bad), "--out", str(tmp_path / "out.nt")]) == 2
        err = capsys.readouterr().err
        assert "corrupt snapshot" in err and "bad encoding on line 1" in err
        assert not (tmp_path / "out.nt").exists()


class TestByteOrderMark:
    """A schema, instance file or snapshot that starts with a UTF-8
    byte-order mark reads as the same file without it, and every output is
    written without one."""

    @staticmethod
    def _outputs(work, bom, capsys):
        schema, instances, snapshot = work / "synth_schema.nt", work / "synth_instances.nt", work / "kb.nt"
        for path in (schema, instances):
            path.write_bytes(bom + path.read_bytes() + b"broken\n")
        argv = ["evolve", str(schema), str(instances), "--out", str(snapshot), "--report", str(work / "report.csv")]
        assert main(argv) == 0
        evolved = snapshot.read_bytes()
        snapshot.write_bytes(bom + evolved)
        assert main(["report", str(snapshot)]) == 0
        assert main(["export", str(snapshot), "--out", str(work / "export.nt")]) == 0
        assert main(["ingest", str(instances)]) == 0
        captured = capsys.readouterr()
        files = [evolved, (work / "report.csv").read_bytes(), (work / "export.nt").read_bytes()]
        return files, captured.out.replace(str(work), "WORK"), captured.err

    def test_bom_file_reads_as_without(self, tmp_path, capsys):
        for name in ("plain", "bom"):
            run_synth(tmp_path / name)
        capsys.readouterr()
        expected = self._outputs(tmp_path / "plain", b"", capsys)
        assert self._outputs(tmp_path / "bom", b"\xef\xbb\xbf", capsys) == expected
        files, stdout, _ = expected
        assert not any(data.startswith(b"\xef\xbb\xbf") for data in files)
        assert "parse_errors=1\nerror line " in stdout and "error line 1:" not in stdout


class TestHelp:
    @pytest.mark.parametrize("command",["evolve", "synth", "report", "ingest", "export"])
    def test_help_lists_flags_with_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert "--help" in out
        if command == "evolve":
            for flag in ("--batch-lines", "--method", "--max-inner-rounds", "--deletion-factor",
                         "--no-delete", "--out", "--report"):
                assert flag in out
            assert "50000" in out and "pfidf" in out
        if command == "synth":
            for flag in ("--classes", "--sig", "--shared", "--instances", "--hidden", "--noise", "--seed"):
                assert flag in out
