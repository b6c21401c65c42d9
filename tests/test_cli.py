"""Tests for the command-line interface, mostly via in-process main() calls."""

import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TT38_CODE, child_env, load_reference_codes, load_reference_text
from turynseq.cli import main
from turynseq.codec import decode, read_listing
from turynseq.enumeration import decompositions
from turynseq.search import SearchConfig


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestVerify:
    def test_known_large_code(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(TT38_CODE + "\n"))
        rc, out, _ = run_cli(["verify", "-", "--n", "38"], capsys)
        assert rc == 0
        assert "valid=yes canonical=yes sums=(8, -4, 8, -3)" in out

    def test_small_table_code(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("016\n"))
        rc, out, _ = run_cli(["verify", "-", "--n", "4"], capsys)
        assert rc == 0
        assert "valid=yes canonical=yes" in out

    def test_listing_file_roundtrip(self, capsys, tmp_path):
        listing = tmp_path / "n8.txt"
        listing.write_text(load_reference_text("reference_n8.txt"))
        rc, out, _ = run_cli(["verify", str(listing), "--n", "8"], capsys)
        assert rc == 0
        assert out.count("valid=yes") == 6

    def test_sign_block_input_needs_no_n(self, capsys, monkeypatch):
        block = "++++\n++-+\n++--\n+-+\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(block))
        rc, out, _ = run_cli(["verify", "-"], capsys)
        assert rc == 0
        assert "valid=yes" in out

    def test_corrupted_code_fails_with_exit_1(self, capsys, monkeypatch):
        corrupt = "1" + TT38_CODE[1:]
        monkeypatch.setattr("sys.stdin", io.StringIO(corrupt + "\n"))
        rc, out, _ = run_cli(["verify", "-", "--n", "38"], capsys)
        assert rc == 1
        assert "valid=no" in out
        assert "1 of 1 records failed" in out

    def test_unparseable_input_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("zzzz\n"))
        rc, _, err = run_cli(["verify", "-", "--n", "4"], capsys)
        assert rc == 2
        assert "line 1" in err

    def test_hex_without_n_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("016\n"))
        rc, _, err = run_cli(["verify", "-"], capsys)
        assert rc == 2
        assert "need --n" in err

    def test_missing_file_exits_2(self, capsys):
        rc, _, err = run_cli(["verify", "/no/such/file", "--n", "4"], capsys)
        assert rc == 2
        assert "error" in err


class TestEnumerate:
    def test_output_file_matches_reference_bytes(self, capsys, tmp_path):
        out_file = tmp_path / "n8.txt"
        rc, out, _ = run_cli(["enumerate", "--n", "8", "--out", str(out_file)], capsys)
        assert rc == 0
        assert "n=8: 6 classes" in out
        assert out_file.read_text() == load_reference_text("reference_n8.txt")

    def test_stdout_listing_when_no_out(self, capsys):
        rc, out, _ = run_cli(["enumerate", "--n", "2"], capsys)
        assert rc == 0
        assert "n=2: 1 classes" in out
        assert "1 0" in out

    def test_jobs_do_not_change_output(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli(["enumerate", "--n", "6", "--out", str(f1)], capsys)[0] == 0
        assert run_cli(["enumerate", "--n", "6", "--jobs", "2", "--out", str(f2)], capsys)[0] == 0
        assert f1.read_text() == f2.read_text()

    def test_cap_exceeded_exits_2(self, capsys):
        rc, _, err = run_cli(["enumerate", "--n", "38"], capsys)
        assert rc == 2
        assert "error" in err


class TestSearch:
    def test_sweep_reproduces_enumeration(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n=8\n")
        out_file = tmp_path / "found.txt"
        rc, out, _ = run_cli(["search", str(cfg), "--out", str(out_file)], capsys)
        assert rc == 0
        assert "n=8: 6 classes" in out
        assert out_file.read_text() == load_reference_text("reference_n8.txt")

    def test_single_target_with_stop_after(self, capsys, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("n=10\nsquares=0,0,2,5\n")
        rc, out, _ = run_cli(["search", str(cfg), "--stop-after", "1"], capsys)
        assert rc == 0
        assert "1 found" in out

    def test_config_comments_and_spacing(self, capsys, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("# target run\nn = 10\nsquares = 0 0 2 5\nstop_after=1\n")
        rc, out, _ = run_cli(["search", str(cfg)], capsys)
        assert rc == 0
        assert "1 found" in out

    def test_resume_completes_and_is_idempotent(self, capsys, tmp_path, reference_codes):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("n=10\nsquares=0,0,2,5\n")
        ck = tmp_path / "ck.txt"
        results = tmp_path / "results.txt"
        argv = ["search", str(cfg), "--resume", str(ck), "--out", str(results)]
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        assert "4 found" in out
        expected = {
            code
            for code in reference_codes[10]
            if decode(code, 10).row_sums() == (0, 0, 2, 5)
        }
        found = {code for _, code in read_listing(results.read_text())}
        assert found == expected
        # Same invocation again resumes the finished checkpoint.
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        assert "4 found" in out
        assert {code for _, code in read_listing(results.read_text())} == expected

    def test_corrupt_checkpoint_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("n=10\nsquares=0,0,2,5\n")
        ck = tmp_path / "ck.txt"
        ck.write_text("not a checkpoint\n")
        out_file = tmp_path / "results.txt"
        argv = ["search", str(cfg), "--resume", str(ck), "--out", str(out_file)]
        rc, _, err = run_cli(argv, capsys)
        assert rc == 2
        assert "checkpoint" in err

    def test_resume_without_out_exits_2(self, capsys, tmp_path):
        # Its hits would be written nowhere, and a second call would find 0.
        cfg = tmp_path / "one.cfg"
        cfg.write_text("n=10\nsquares=0,0,2,5\n")
        ck = tmp_path / "ck.txt"
        rc, out, err = run_cli(["search", str(cfg), "--resume", str(ck)], capsys)
        assert rc == 2
        assert "--out" in err
        assert "found" not in out
        assert not ck.exists()

    def test_resume_with_results_file_gone_exits_2(self, capsys, tmp_path):
        # The deleted file held the hits of the first 2 seeds; a resume
        # without them once printed "2 found" of 4 and marked the run done.
        cfg = tmp_path / "one.cfg"
        cfg.write_text("n=10\nsquares=0,0,2,5\n")
        ck, results = tmp_path / "ck.txt", tmp_path / "hits.txt"
        run_hash = SearchConfig(n=10, squares=(0, 0, 2, 5)).run_hash()
        ck.write_text(f"config={run_hash}\nseed_index=2\ndone=0\n")
        argv = ["search", str(cfg), "--resume", str(ck), "--out", str(results)]
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2
        assert str(results) in err and "missing" in err
        assert "found" not in out
        assert "done=0" in ck.read_text()
        assert not results.exists()

    def test_squares_off_target_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("n=16\nsquares=8,-2,2,2\n")
        rc, out, err = run_cli(["search", str(cfg)], capsys)
        assert rc == 2
        assert "not a row-sum target" in err
        assert "found" not in out

    def test_sweep_stop_after(self, capsys, tmp_path):
        # The sweep stops at the seed of its second hit, like a hunt.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n=10\n")
        ck, out_file = tmp_path / "ck.txt", tmp_path / "found.txt"
        argv = ["search", str(cfg), "--stop-after", "2"]
        rc, out, _ = run_cli(argv + ["--resume", str(ck), "--out", str(out_file)], capsys)
        assert rc == 0
        assert "n=10: 2 classes" in out
        hits = read_listing(out_file.read_text())
        assert [index for index, _ in hits] == [1, 2]
        assert {code for _, code in hits} <= set(load_reference_codes("reference_n10.txt"))
        assert "done=1" in ck.read_text()
        assert out_file.read_text().startswith("# search n=10;squares=all;")
        rc, out, _ = run_cli(argv, capsys)
        assert rc == 0
        assert "n=10: 2 classes" in out

    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n=10\nsquares=1,2,3\n")
        rc, _, err = run_cli(["search", str(cfg)], capsys)
        assert rc == 2
        assert "squares" in err
        cfg.write_text("squares=0,0,2,5\n")
        rc, _, err = run_cli(["search", str(cfg)], capsys)
        assert rc == 2
        assert "must set n" in err
        # The D width, grid and spectral bound are derived, not configured.
        for line in ("spectral_bound = 20", "grid_points = 50", "d_head_len = 0"):
            cfg.write_text(f"n = 12\n{line}\n")
            rc, _, err = run_cli(["search", str(cfg)], capsys)
            assert rc == 2
            assert f"unknown key '{line.split()[0]}'" in err


class TestConstruct:
    def test_base_from_small_quad(self, capsys, reference_codes):
        rc, out, _ = run_cli(
            ["construct", "base", "--code", reference_codes[2][0], "--n", "2"], capsys
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[1:5] == ["+-+", "+--", "++", "++"]
        assert "valid base sequences, lengths (3, 3, 2, 2)" in out

    def test_tseq_from_known_large_code(self, capsys):
        rc, out, _ = run_cli(
            ["construct", "tseq", "--code", TT38_CODE, "--n", "38"], capsys
        )
        assert rc == 0
        assert "valid T-sequences, length 113" in out
        rows = out.splitlines()[1:5]
        assert all(len(r) == 113 for r in rows)

    def test_invalid_quad_exits_1(self, capsys, monkeypatch):
        block = "++++\n++++\n++++\n+++\n"  # right shape, wrong lag sums
        monkeypatch.setattr("sys.stdin", io.StringIO(block))
        rc, out, _ = run_cli(["construct", "base", "-"], capsys)
        assert rc == 1
        assert "not a valid quadruple" in out

    def test_needs_some_input_exits_2(self, capsys):
        rc, _, err = run_cli(["construct", "base"], capsys)
        assert rc == 2
        assert "input file or --code" in err


class TestDecompositions:
    def test_n2_rows_match_library(self, capsys):
        rc, out, _ = run_cli(["decompositions", "--n", "2"], capsys)
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        expected = [f"{d.a} {d.b} {d.c} {d.d}" for d in decompositions(2)]
        assert lines == expected

    def test_n38_includes_published_row(self, capsys):
        rc, out, _ = run_cli(["decompositions", "--n", "38"], capsys)
        assert rc == 0
        assert "8 4 8 3" in out.splitlines()

    def test_check_marks_all_realized_at_n6(self, capsys):
        rc, out, _ = run_cli(["decompositions", "--n", "6", "--check"], capsys)
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines and all(line.endswith(" realized") for line in lines)

    def test_odd_n_exits_2(self, capsys):
        rc, _, err = run_cli(["decompositions", "--n", "3"], capsys)
        assert rc == 2
        assert "even" in err


class TestCodecCommands:
    def test_decode_prints_sign_block(self, capsys):
        rc, out, _ = run_cli(["decode", "016", "--n", "4"], capsys)
        assert rc == 0
        assert out.splitlines() == ["++++", "++-+", "++--", "+-+"]

    def test_encode_roundtrip(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("++++\n++-+\n++--\n+-+\n"))
        rc, out, _ = run_cli(["encode", "-", "--form", "compact"], capsys)
        assert rc == 0
        assert out.strip() == "016"

    def test_encode_full_form(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("++++\n++-+\n++--\n+-+\n"))
        rc, out, _ = run_cli(["encode", "-"], capsys)
        assert rc == 0
        assert out.strip() == "0161"

    def test_decode_garbage_exits_2(self, capsys):
        rc, _, err = run_cli(["decode", "zz", "--n", "4"], capsys)
        assert rc == 2

    def test_usage_errors_exit_2(self, capsys):
        assert run_cli(["decode", "016"], capsys)[0] == 2  # missing --n
        assert run_cli(["no-such-command"], capsys)[0] == 2
        assert run_cli([], capsys)[0] == 2


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


class TestInstalledScript:
    def test_console_entry_point(self):
        # Run the declared [project.scripts] target the way the wrapper that
        # pip generates does, so no installed executable is needed.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["turynseq"]
        mod, attr = target.split(":")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; from {mod} import {attr}; sys.exit({attr}())",
                "decode",
                "016",
                "--n",
                "4",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["++++", "++-+", "++--", "+-+"]

    def test_start_up_defers_hashlib_and_multiprocessing(self, tmp_path):
        # Only checkpoints need a hash and only parallel runs need
        # multiprocessing; both are imported where they are used.  A
        # checkpointed run hashes with CPython's built-in sha256 where
        # there is one (_sha2 from 3.12, _sha256 before), so OpenSSL's
        # _hashlib is never loaded there.
        (tmp_path / "run.cfg").write_text("n = 10\nsquares = 0, 0, 2, 5\n")
        watched = "{'hashlib', '_hashlib', 'multiprocessing'}"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, turynseq.cli\n"
                f"print(sorted({watched} & set(sys.modules)))\n"
                "turynseq.cli.main(['search', 'run.cfg', '--resume', 'CK', '--out', 'HITS'])\n"
                f"print(sorted({watched} & set(sys.modules)))",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "[]"
        assert "multiprocessing" not in lines[-1]
        if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
            assert lines[-1] == "[]"
        config = SearchConfig(n=10, squares=(0, 0, 2, 5)).run_hash()
        assert f"config={config}" in (tmp_path / "CK").read_text()
        assert (tmp_path / "HITS").read_text()

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "turynseq.cli", "decompositions", "--n", "2"],
            capture_output=True,
            text=True,
            timeout=60,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 2
