import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from primegaps import cli
from primegaps.checkpoint import load_checkpoint, save_checkpoint
from primegaps.gap_records import (
    MaximalGapRecord,
    RecordTable,
    load_known_table,
    parse_table_csv,
    render_table_csv,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_verify_known_table_succeeds(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--conjecture", "strong-andrica")
        assert code == 0
        assert "18446744073709551616" in out
        assert "3 7 13 23 31 113" in out

    def test_failed_record_check_is_exit_1(self, capsys, tmp_path):
        bad = RecordTable(
            (
                MaximalGapRecord(1, 1, 2),
                MaximalGapRecord(2, 2, 3),
                MaximalGapRecord(3, 4, 7),
                MaximalGapRecord(4, 14, 89),
            ),
            coverage_bound=150,
        )
        path = tmp_path / "fake.csv"
        path.write_text(render_table_csv(bad), encoding="utf-8")
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--conjecture",
            "strong-andrica",
            "--table",
            str(path),
            "--brute-floor",
            "89",
        )
        assert code == 1
        assert "FAILED record check" in out

    def test_tampered_table_is_exit_2(self, capsys, tmp_path):
        known = load_known_table()
        rows = list(known.records)
        rows[5] = rows[5]._replace(g_star=rows[5].g_star + 1)
        path = tmp_path / "tampered.csv"
        path.write_text(
            render_table_csv(RecordTable(tuple(rows), known.coverage_bound)),
            encoding="utf-8",
        )
        code, _, err = run_cli(
            capsys, "verify", "--conjecture", "strong-andrica", "--table", str(path)
        )
        assert code == 2
        assert "not prime" in err

    def test_usage_errors(self, capsys):
        assert run_cli(capsys, "nosuchcommand")[0] == 2
        assert run_cli(capsys, "verify", "--conjecture", "fermat")[0] == 2
        assert run_cli(capsys, "exceptions", "--conjecture", "oppermann", "--limit", "9")[0] == 2
        assert run_cli(capsys, "gaps", "--lo", "50", "--hi", "50")[0] == 2
        assert run_cli(capsys, "records")[0] == 2
        assert run_cli(capsys, "sweep", "--conjecture", "oppermann", "--limit", "1")[0] == 2

    def test_missing_table_file(self, capsys):
        code, _, err = run_cli(
            capsys, "threshold", "--table", "/nonexistent/records.csv"
        )
        assert code == 2 and err


class TestSubcommands:
    def test_gaps_text(self, capsys):
        code, out, _ = run_cli(capsys, "gaps", "--lo", "2", "--hi", "12")
        assert code == 0
        assert out.splitlines() == ["2 1 1", "3 2 2", "5 2 3", "7 4 4", "11 2 5"]

    def test_gaps_csv_has_blank_index_mid_range(self, capsys):
        code, out, _ = run_cli(capsys, "gaps", "--lo", "100", "--hi", "115", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,g,index"
        assert lines[1] == "101,2,"
        assert lines[-1] == "113,14,"

    def test_gaps_json(self, capsys):
        code, out, _ = run_cli(capsys, "gaps", "--lo", "2", "--hi", "6", "--format", "json")
        doc = json.loads(out)
        assert doc["gaps"] == [
            {"p": 2, "g": 1, "index": 1},
            {"p": 3, "g": 2, "index": 2},
            {"p": 5, "g": 2, "index": 3},
        ]

    def test_records_csv_round_trips_through_the_parser(self, capsys):
        code, out, _ = run_cli(capsys, "records", "--limit", "1000", "--format", "csv")
        assert code == 0
        table = parse_table_csv(out)
        assert table.records[6] == MaximalGapRecord(7, 18, 523)
        assert table.coverage_bound == 1000

    def test_records_json(self, capsys):
        code, out, _ = run_cli(capsys, "records", "--limit", "600", "--format", "json")
        doc = json.loads(out)
        assert doc["coverage_bound"] == 600
        assert doc["records"][-1] == {"i": 7, "g_star": 18, "p_star": 523}

    def test_exceptions_formats(self, capsys):
        code, out, _ = run_cli(
            capsys, "exceptions", "--conjecture", "sqrt", "--limit", "2000"
        )
        assert code == 0 and "3 7 13 23 31 113" in out
        code, out, _ = run_cli(
            capsys, "exceptions", "--conjecture", "sqrt", "--limit", "2000",
            "--format", "json",
        )
        assert json.loads(out)["exceptions"] == [3, 7, 13, 23, 31, 113]
        code, out, _ = run_cli(
            capsys, "exceptions", "--conjecture", "strong-andrica", "--limit", "523",
            "--format", "csv",
        )
        assert out.splitlines() == ["p", "3", "7", "13", "23", "31", "113"]

    def test_threshold_reports_orders_of_magnitude(self, capsys):
        code, out, _ = run_cli(capsys, "threshold")
        assert code == 0
        assert "4285017541" in out
        assert "order 10^9" in out and "order 10^3" in out
        code, out, _ = run_cli(capsys, "threshold", "--format", "json")
        doc = json.loads(out)
        assert doc["threshold"] == 4285017541
        assert doc["last_gap"] == 1550
        assert doc["threshold_order"] == "10^9"
        assert doc["last_gap_order"] == "10^3"

    def test_verify_implication_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--conjecture", "oppermann", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["max_verified"] == 4294967296
        assert doc["implication_source"] == "strong-andrica"

    def test_verify_with_implications_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--conjecture", "strong-andrica",
            "--scan-limit", "100000", "--implications", "--format", "json",
        )
        docs = json.loads(out)
        assert code == 0
        assert [d["kind"] for d in docs] == [
            "strong-andrica", "standard-andrica", "weak-andrica", "oppermann",
            "strong-legendre", "standard-legendre", "strong-brocard", "standard-brocard",
        ]

    def test_verify_weak_andrica_nondefault_c_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--conjecture", "weak-andrica", "--c", "3"
        )
        assert code == 2 and "sweep" in err

    def test_sweep_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--conjecture", "strong-brocard", "--limit", "200"
        )
        assert code == 0
        assert "holds: yes" in out


class TestConfigPrecedence:
    def test_env_format_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("PGV_FORMAT", "json")
        code, out, _ = run_cli(capsys, "records", "--limit", "100")
        assert code == 0
        assert json.loads(out)["coverage_bound"] == 100

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PGV_FORMAT", "json")
        code, out, _ = run_cli(capsys, "records", "--limit", "100", "--format", "csv")
        assert code == 0
        assert out.startswith("i,g_star,p_star")

    def test_invalid_env_value_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("PGV_THREADS", "many")
        code, _, err = run_cli(capsys, "records", "--limit", "100")
        assert code == 2 and "PGV_THREADS" in err
        monkeypatch.setenv("PGV_THREADS", "1")
        monkeypatch.setenv("PGV_FORMAT", "yaml")
        code, _, err = run_cli(capsys, "records", "--limit", "100")
        assert code == 2 and "PGV_FORMAT" in err

    def test_env_segment_size_changes_nothing_observable(self, capsys, monkeypatch):
        code_a, out_a, _ = run_cli(capsys, "records", "--limit", "200000", "--format", "csv")
        monkeypatch.setenv("PGV_SEGMENT_SIZE", "4096")
        code_b, out_b, _ = run_cli(capsys, "records", "--limit", "200000", "--format", "csv")
        assert (code_a, out_a) == (code_b, out_b)


class TestDeterminismAndCheckpointing:
    def test_thread_count_does_not_change_bytes(self, capsys):
        _, out_one, _ = run_cli(
            capsys, "records", "--limit", "2000000", "--threads", "1", "--format", "csv"
        )
        _, out_two, _ = run_cli(
            capsys, "records", "--limit", "2000000", "--threads", "2", "--format", "csv"
        )
        assert out_one == out_two

    def test_interrupted_resume_is_byte_identical(self, capsys, tmp_path):
        ck = tmp_path / "scan.ckpt"
        args = [
            "records", "--limit", "3000000", "--format", "csv",
            "--segment-size", "1048576",
        ]
        _, uninterrupted, _ = run_cli(capsys, *args)

        code, out, err = run_cli(
            capsys, *args, "--checkpoint", str(ck), "--stop-after-segments", "1"
        )
        assert code == 0
        assert out == ""  # no partial table on an interrupted run
        assert "checkpoint saved" in err
        assert ck.exists()

        code, resumed, _ = run_cli(capsys, *args, "--checkpoint", str(ck))
        assert code == 0
        assert resumed == uninterrupted

    def test_resume_with_different_limit_is_parameter_mismatch(self, capsys, tmp_path):
        ck = tmp_path / "scan.ckpt"
        run_cli(
            capsys, "records", "--limit", "3000000", "--segment-size", "1048576",
            "--checkpoint", str(ck), "--stop-after-segments", "1",
        )
        code, _, err = run_cli(
            capsys, "records", "--limit", "4000000", "--segment-size", "1048576",
            "--checkpoint", str(ck),
        )
        assert code == 2
        assert "limit" in err

    def test_corrupt_checkpoint_is_refused(self, capsys, tmp_path):
        ck = tmp_path / "scan.ckpt"
        run_cli(
            capsys, "records", "--limit", "3000000", "--segment-size", "1048576",
            "--checkpoint", str(ck), "--stop-after-segments", "1",
        )
        text = ck.read_text()
        ck.write_text(text.replace('"best_gap"', '"best_gXp"'))
        code, _, err = run_cli(
            capsys, "records", "--limit", "3000000", "--segment-size", "1048576",
            "--checkpoint", str(ck),
        )
        assert code == 2
        assert "checksum" in err or "cannot read" in err

    def test_version_mismatch_is_refused(self, capsys, tmp_path):
        ck = tmp_path / "scan.ckpt"
        run_cli(
            capsys, "records", "--limit", "3000000", "--segment-size", "1048576",
            "--checkpoint", str(ck), "--stop-after-segments", "1",
        )
        state = load_checkpoint(ck, limit=3000000, segment_size=1048576)
        doc = json.loads(ck.read_text())
        doc["payload"]["format_version"] = 99
        import hashlib

        doc["sha256"] = hashlib.sha256(
            json.dumps(doc["payload"], sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        ck.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "records", "--limit", "3000000", "--segment-size", "1048576",
            "--checkpoint", str(ck),
        )
        assert code == 2
        assert "format" in err
        assert state.limit == 3000000  # the pre-corruption load was fine

    def test_stop_after_requires_checkpoint(self, capsys):
        code, _, err = run_cli(
            capsys, "records", "--limit", "1000", "--stop-after-segments", "1"
        )
        assert code == 2 and "--checkpoint" in err

    def test_checkpoint_save_is_atomic_no_temp_left_behind(self, tmp_path):
        from primegaps.gap_records import new_scan_state

        ck = tmp_path / "s.ckpt"
        state = new_scan_state(1000)
        save_checkpoint(ck, state)
        save_checkpoint(ck, state)
        assert [p.name for p in tmp_path.iterdir()] == ["s.ckpt"]
        again = load_checkpoint(ck, limit=1000, segment_size=state.segment_size)
        assert again == state

    def test_checkpoint_from_the_parent_side_stitching_scan_resumes(self, capsys, tmp_path):
        # Written by the earlier scan, which shipped every prime to the parent
        # and stitched there (same arguments plus --stop-after-segments 1).
        old = {
            "payload": {
                "scan_kind": "records", "format_version": 1, "limit": 3000000,
                "segment_size": 1048576, "next_lo": 1048578, "carry_prime": 1048573,
                "best_gap": 114, "done": False,
                "records": [
                    [1, 1, 2], [2, 2, 3], [3, 4, 7], [4, 6, 23], [5, 8, 89], [6, 14, 113],
                    [7, 18, 523], [8, 20, 887], [9, 22, 1129], [10, 34, 1327],
                    [11, 36, 9551], [12, 44, 15683], [13, 52, 19609], [14, 72, 31397],
                    [15, 86, 155921], [16, 96, 360653], [17, 112, 370261],
                    [18, 114, 492113],
                ],
            },
            "sha256": "b72a97a2d336a00ee9fcf849a7e7f04df69dbc0ad83e8e397fd710ccfbfcd0e5",
        }
        ck = tmp_path / "old.ckpt"
        ck.write_text(json.dumps(old))
        args = ["records", "--limit", "3000000", "--segment-size", "1048576", "--format", "csv"]
        _, uninterrupted, _ = run_cli(capsys, *args)
        code, resumed, _ = run_cli(capsys, *args, "--checkpoint", str(ck), "--threads", "2")
        assert code == 0 and resumed == uninterrupted

    def test_ctrl_c_without_checkpoint_stops_cleanly(self, capsys, monkeypatch):
        real_advance = cli.advance_scan

        def ctrl_c_then_advance(state, **kwargs):
            os.kill(os.getpid(), signal.SIGINT)  # the CLI's handler raises its flag
            return real_advance(state, **kwargs)

        monkeypatch.setattr(cli, "advance_scan", ctrl_c_then_advance)
        code, out, err = run_cli(
            capsys, "records", "--limit", "3000000", "--segment-size", "1048576"
        )
        assert code == 130 and out == ""
        assert "scan stopped at 1048578 of 3000000" in err


class TestEntryPoint:
    def test_python_dash_m_invocation(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "primegaps", "exceptions",
             "--conjecture", "strong-andrica", "--limit", "523"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "3 7 13 23 31 113" in proc.stdout

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
        assert run_cli(capsys, "records", "--help")[0] == 0
