"""End-to-end CLI runs via subprocess: exit codes, JSON, and file outputs."""

import contextlib
import csv
import dataclasses
import errno
import io
import json
import os
import shutil
import subprocess
import sys
import types

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from texelkit import blocks, cli, image, periodicity
from texelkit import (
    AnalysisResult,
    GrayImage,
    GroundTruth,
    PeriodEstimate,
    classify_blocks,
    column_dmf,
    estimate_periods,
    generate,
    load_pgm,
    random_texel,
    row_dmf,
    partition,
    save_pgm,
    synthesize,
)

from conftest import cli_env, peak_bytes
from reference import Grid, per_block_classify, report, report_text, result_report


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "texelkit", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )


def write_tiling(path, texel_h, texel_w, reps, seed):
    texel = random_texel(texel_h, texel_w, seed=seed)
    img = synthesize(texel, texel_w * reps, texel_h * reps)
    path.write_bytes(save_pgm(img))
    return img


class TestAnalyze:
    def test_periods_match_generator_ground_truth(self, tmp_path):
        run_cli(
            "generate", "tex.pgm", "--texel-h", "9", "--texel-w", "7",
            "--reps-r", "6", "--reps-c", "8", "--seed", "3", cwd=tmp_path,
        )
        proc = run_cli("analyze", "tex.pgm", cwd=tmp_path)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        sidecar = json.loads((tmp_path / "tex.json").read_text())
        assert report["periods"]["row_period"] == sidecar["texel_h"] == 9
        assert report["periods"]["col_period"] == sidecar["texel_w"] == 7
        assert report["analysis"]["grid"]["n_rows"] == 6
        assert report["analysis"]["grid"]["n_cols"] == 8

    def test_manual_periods_skip_estimation(self, tmp_path):
        write_tiling(tmp_path / "in.pgm", 6, 6, 5, seed=2)
        proc = run_cli(
            "analyze", "in.pgm", "--period-rows", "10", "--period-cols", "15",
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["periods"]["manual"] is True
        assert report["analysis"]["grid"]["block_h"] == 10
        assert report["analysis"]["grid"]["block_w"] == 15

    def test_periods_report_on_both_paths(self, tmp_path, monkeypatch):
        img = write_tiling(tmp_path / "in.pgm", 5, 7, 6, seed=4)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["analyze", "in.pgm", "--json-out", "est.json"]) == 0
        assert json.loads((tmp_path / "est.json").read_text())["periods"] == {
            **estimate_periods(img).to_dict(), "manual": False
        }
        argv = ["analyze", "in.pgm", "--period-rows", "10", "--period-cols", "14"]
        assert cli.main([*argv, "--json-out", "man.json"]) == 0
        assert json.loads((tmp_path / "man.json").read_text())["periods"] == {
            "row_period": 10,
            "col_period": 14,
            "row_candidates": [],
            "col_candidates": [],
            "row_degenerate": False,
            "col_degenerate": False,
            "manual": True,
        }

    def test_half_manual_periods_rejected(self, tmp_path):
        write_tiling(tmp_path / "in.pgm", 6, 6, 5, seed=2)
        proc = run_cli("analyze", "in.pgm", "--period-rows", "6", cwd=tmp_path)
        assert proc.returncode == 2
        assert "together" in proc.stderr

    def test_csv_dmf_dump(self, tmp_path):
        write_tiling(tmp_path / "in.pgm", 5, 5, 6, seed=4)
        proc = run_cli("analyze", "in.pgm", "--csv-dmf", "dmf.csv", cwd=tmp_path)
        assert proc.returncode == 0
        lines = (tmp_path / "dmf.csv").read_text().strip().splitlines()
        assert lines[0] == "axis,d,dmf,forward_difference"
        # 30x30 image, fraction 0.5: 15 displacements per axis
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 30
        assert {r[0] for r in rows} == {"rows", "columns"}
        # last displacement of each axis has no forward difference
        assert rows[14][3] == "" and rows[29][3] == ""
        assert float(rows[0][2]) > 0

    def test_csv_dmf_reuses_estimation_curves(self, tmp_path, monkeypatch):
        img = write_tiling(tmp_path / "in.pgm", 5, 7, 6, seed=4)
        calls = []
        dmf = periodicity._dmf

        def counting(pix, d_max):
            calls.append(d_max)
            return dmf(pix, d_max)

        monkeypatch.setattr(periodicity, "_dmf", counting)
        monkeypatch.chdir(tmp_path)
        argv = ["analyze", "in.pgm", "--csv-dmf", "dmf.csv", "--json-out", "rep.json"]
        assert cli.main(argv) == 0
        # 30x42 image at fraction 0.5: one pass per axis, rows first
        assert calls == [15, 21]
        with open(tmp_path / "dmf.csv", newline="") as fh:
            dumped = [(r[0], int(r[1]), float(r[2])) for r in list(csv.reader(fh))[1:]]
        expected = [
            (axis, d, value)
            for axis, curve in (("rows", row_dmf(img, 15)), ("columns", column_dmf(img, 21)))
            for d, value in enumerate(curve.tolist(), 1)
        ]
        assert dumped == expected

    def test_csv_dmf_failing_part_way_leaves_no_file(self, tmp_path, monkeypatch):
        write_tiling(tmp_path / "in.pgm", 5, 5, 6, seed=4)
        real = cli._dmf_csv
        written = []

        def rows_curve_then_out_of_memory(curves):
            for line in real(curves):
                if line.startswith("columns,"):
                    raise MemoryError
                written.append(line)
                yield line

        monkeypatch.setattr(cli, "_dmf_csv", rows_curve_then_out_of_memory)
        argv = ["analyze", str(tmp_path / "in.pgm"), "--csv-dmf", str(tmp_path / "dmf.csv"),
                "--json-out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 2
        # the header and the rows curve's 15 lines went out before the failure
        assert [line.split(",")[0] for line in written] == ["axis"] + ["rows"] * 15
        assert not (tmp_path / "dmf.csv").exists()
        assert not (tmp_path / "r.json").exists()

    def test_csv_dmf_skipped_under_manual_periods(self, tmp_path):
        write_tiling(tmp_path / "in.pgm", 5, 5, 6, seed=4)
        proc = run_cli(
            "analyze", "in.pgm", "--period-rows", "5", "--period-cols", "5",
            "--csv-dmf", "dmf.csv", cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert not (tmp_path / "dmf.csv").exists()
        assert "csv-dmf" in proc.stderr

    def test_json_out_writes_file_and_quiet_stdout(self, tmp_path):
        write_tiling(tmp_path / "in.pgm", 5, 5, 6, seed=4)
        proc = run_cli("analyze", "in.pgm", "--json-out", "rep.json", cwd=tmp_path)
        assert proc.returncode == 0
        assert proc.stdout == ""
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["periods"]["row_period"] == 5

    def test_constant_image_degenerate_warning(self, tmp_path):
        img = GrayImage(np.full((20, 20), 128, dtype=np.uint8))
        (tmp_path / "flat.pgm").write_bytes(save_pgm(img))
        proc = run_cli("analyze", "flat.pgm", cwd=tmp_path)
        assert proc.returncode == 0
        assert "degenerate" in proc.stderr
        report = json.loads(proc.stdout)
        assert report["periods"]["row_degenerate"] is True
        assert report["periods"]["col_degenerate"] is True

    def test_missing_input_exits_2(self, tmp_path):
        proc = run_cli("analyze", "nosuch.pgm", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.strip() != ""

    def test_malformed_input_exits_2(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P5\n4 4\n999\n" + bytes(16))
        proc = run_cli("analyze", "bad.pgm", cwd=tmp_path)
        assert proc.returncode == 2
        assert "maxval" in proc.stderr

    def test_unknown_command_exits_2(self, tmp_path):
        assert run_cli("frobnicate", cwd=tmp_path).returncode == 2


class TestSynthesize:
    def test_round_trip_exact_tiling(self, tmp_path):
        img = write_tiling(tmp_path / "in.pgm", 7, 5, 6, seed=21)
        proc = run_cli("synthesize", "in.pgm", "out.pgm", cwd=tmp_path)
        assert proc.returncode == 0
        assert load_pgm((tmp_path / "out.pgm").read_bytes()) == img

    def test_custom_dims_and_texel_out(self, tmp_path):
        write_tiling(tmp_path / "in.pgm", 4, 6, 5, seed=10)
        proc = run_cli(
            "synthesize", "in.pgm", "out.pgm",
            "--width", "18", "--height", "9", "--texel-out", "texel.pgm",
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        out = load_pgm((tmp_path / "out.pgm").read_bytes())
        assert (out.width, out.height) == (18, 9)
        texel = load_pgm((tmp_path / "texel.pgm").read_bytes())
        assert (texel.width, texel.height) == (6, 4)
        # three-across tiling of the texel
        assert np.array_equal(out.pixels[:4, :6], texel.pixels)
        assert np.array_equal(out.pixels[:4, 6:12], texel.pixels)

    @settings(max_examples=60, deadline=None)
    @given(
        hnp.arrays(np.uint8, st.tuples(st.integers(1, 9), st.integers(1, 9))),
        st.integers(1, 40),
        st.integers(1, 40),
    )
    @example(np.array([[7]], np.uint8), 5, 3)  # 1x1 texel
    @example(np.arange(20, dtype=np.uint8).reshape(5, 4), 11, 3)  # out_h < texel height
    @example(np.arange(20, dtype=np.uint8).reshape(5, 4), 11, 15)  # out_h a multiple of it
    @example(np.arange(20, dtype=np.uint8).reshape(5, 4), 3, 7)  # out_w < texel width
    def test_streamed_tiling_equals_reference(self, tmp_path_factory, texel, out_w, out_h):
        # a 2x2 tiling of the texel: every block conforms and (0, 0) is the texel
        tmp = tmp_path_factory.getbasetemp()
        (tmp / "in.pgm").write_bytes(save_pgm(GrayImage(np.tile(texel, (2, 2)))))
        th, tw = texel.shape
        argv = ["synthesize", str(tmp / "in.pgm"), str(tmp / "o.pgm"),
                "--period-rows", str(th), "--period-cols", str(tw),
                "--width", str(out_w), "--height", str(out_h)]
        assert cli.main(argv) == 0
        reference = np.tile(texel, (-(-out_h // th), -(-out_w // tw)))[:out_h, :out_w]
        assert (tmp / "o.pgm").read_bytes() == save_pgm(GrayImage(reference))

    @pytest.mark.parametrize("free, replaced, code", [
        (732, 0, 2), (733, 0, 0), (692, 40, 2), (693, 40, 0),
    ])
    def test_output_past_free_space_refused(self, tmp_path, monkeypatch, capsys,
                                            free, replaced, code):
        # a 30x24 output takes a 13-byte header and 720 pixel bytes; the
        # file it replaces counts as free
        write_tiling(tmp_path / "in.pgm", 4, 5, 6, seed=4)
        out = tmp_path / "o.pgm"
        if replaced:
            out.write_bytes(b"x" * replaced)
        monkeypatch.setattr(shutil, "disk_usage", lambda path: types.SimpleNamespace(free=free))
        argv = ["synthesize", str(tmp_path / "in.pgm"), str(out), "--period-rows", "4",
                "--period-cols", "5", "--texel-out", str(tmp_path / "t.pgm")]
        assert cli.main(argv) == code
        if code == 2:
            assert capsys.readouterr().err == (
                f"error: output {out} needs 733 bytes, but only {free + replaced} bytes are free\n"
            )
            # nothing is written, and the file to be replaced is left as it was
            assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"] + ["o.pgm"] * bool(replaced)
            assert not replaced or out.read_bytes() == b"x" * replaced
        else:
            assert len(out.read_bytes()) == 733

    def test_no_conforming_block_exits_3(self, tmp_path):
        top = np.full((8, 16), 10, dtype=np.uint8)
        bot = np.full((8, 16), 30, dtype=np.uint8)
        (tmp_path / "split.pgm").write_bytes(save_pgm(GrayImage(np.vstack([top, bot]))))
        proc = run_cli(
            "synthesize", "split.pgm", "out.pgm",
            "--period-rows", "8", "--period-cols", "16", "--threshold", "0.001",
            cwd=tmp_path,
        )
        assert proc.returncode == 3
        assert not (tmp_path / "out.pgm").exists()


class TestDetect:
    def test_clean_input_exits_0_image_unchanged(self, tmp_path):
        write_tiling(tmp_path / "in.pgm", 6, 6, 6, seed=31)
        proc = run_cli("detect", "in.pgm", "hi.pgm", cwd=tmp_path)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        anomalies = [b["index"] for b in report["blocks"] if not b["conforming"]]
        assert anomalies == []
        assert (tmp_path / "hi.pgm").read_bytes() == (tmp_path / "in.pgm").read_bytes()

    def test_planted_defects_flagged_exit_1(self, tmp_path):
        run_cli(
            "generate", "bad.pgm", "--texel-h", "14", "--texel-w", "12",
            "--reps-r", "36", "--reps-c", "36", "--seed", "5",
            "--defects", "2,3;30,7", cwd=tmp_path,
        )
        proc = run_cli(
            "detect", "bad.pgm", "hi.pgm", "--threshold", "0.02", cwd=tmp_path
        )
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        anomalies = [tuple(b["index"]) for b in report["blocks"] if not b["conforming"]]
        assert anomalies == [(2, 3), (30, 7)]
        # highlight image differs from the input exactly at the two outlines
        before = load_pgm((tmp_path / "bad.pgm").read_bytes())
        after = load_pgm((tmp_path / "hi.pgm").read_bytes())
        changed = np.argwhere(before.pixels != after.pixels)
        assert len(changed) > 0
        ys, xs = changed[:, 0], changed[:, 1]
        in_a = (ys >= 2 * 14) & (ys < 3 * 14) & (xs >= 3 * 12) & (xs < 4 * 12)
        in_b = (ys >= 30 * 14) & (ys < 31 * 14) & (xs >= 7 * 12) & (xs < 8 * 12)
        assert np.all(in_a | in_b)

    def test_threshold_monotone_conforming_superset(self, tmp_path):
        run_cli(
            "generate", "bad.pgm", "--texel-h", "10", "--texel-w", "10",
            "--reps-r", "8", "--reps-c", "8", "--seed", "19",
            "--defects", "0,1", "--noise-amplitude", "4", cwd=tmp_path,
        )
        loose = run_cli(
            "detect", "bad.pgm", "a.pgm", "--threshold", "0.10",
            "--json-out", "loose.json", cwd=tmp_path,
        )
        tight = run_cli(
            "detect", "bad.pgm", "b.pgm", "--threshold", "0.02",
            "--json-out", "tight.json", cwd=tmp_path,
        )
        assert loose.returncode in (0, 1) and tight.returncode in (0, 1)
        conf_loose = {
            tuple(b["index"])
            for b in json.loads((tmp_path / "loose.json").read_text())["blocks"]
            if b["conforming"]
        }
        conf_tight = {
            tuple(b["index"])
            for b in json.loads((tmp_path / "tight.json").read_text())["blocks"]
            if b["conforming"]
        }
        assert conf_tight <= conf_loose


def assert_flag_error(proc, flag):
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert flag in proc.stderr
    assert proc.stdout == ""


class TestFlagValidation:
    def test_nan_epsilon_on_constant_image_exits_2(self, tmp_path):
        flat = GrayImage(np.full((16, 16), 7, dtype=np.uint8))
        (tmp_path / "const.pgm").write_bytes(save_pgm(flat))
        proc = run_cli(
            "detect", "const.pgm", "hi.pgm", "--period-rows", "4", "--period-cols", "4",
            "--epsilon", "nan", cwd=tmp_path,
        )
        assert_flag_error(proc, "--epsilon")
        assert not (tmp_path / "hi.pgm").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_bad_threshold_exits_2(self, tmp_path, value):
        write_tiling(tmp_path / "in.pgm", 5, 5, 6, seed=4)
        proc = run_cli("analyze", "in.pgm", f"--threshold={value}", cwd=tmp_path)
        assert_flag_error(proc, "--threshold")

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "in.pgm", "--csv-dmf", "r.txt", "--json-out", "./r.txt"],
         "--csv-dmf and --json-out name the same file r.txt"),
        (["detect", "in.pgm", "r.txt", "--json-out", "sub/../r.txt"],
         "output and --json-out name the same file sub/../r.txt"),
        (["synthesize", "in.pgm", "r.txt", "--texel-out", "link.txt"],
         "output and --texel-out name the same file link.txt"),
        (["generate", "r.json", "--texel-h", "4", "--texel-w", "4", "--reps-r", "2",
          "--reps-c", "2"], "output and sidecar name the same file r.json"),
    ], ids=["analyze", "detect", "synthesize", "generate"])
    def test_two_outputs_naming_one_file_exit_2_writing_nothing(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        write_tiling(tmp_path / "in.pgm", 4, 5, 6, seed=4)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.txt").symlink_to("r.txt")  # dangling: r.txt is not there yet
        monkeypatch.chdir(tmp_path)
        manual = [] if argv[0] == "generate" else ["--period-rows", "4", "--period-cols", "5"]
        assert cli.main(argv + manual) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm", "link.txt", "sub"]

    @pytest.mark.parametrize("value", ["inf", "0"])
    def test_bad_epsilon_exits_2(self, tmp_path, value):
        write_tiling(tmp_path / "in.pgm", 5, 5, 6, seed=4)
        proc = run_cli("analyze", "in.pgm", f"--epsilon={value}", cwd=tmp_path)
        assert_flag_error(proc, "--epsilon")

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_non_positive_output_size_exits_2(self, tmp_path, flag):
        write_tiling(tmp_path / "in.pgm", 5, 5, 6, seed=4)
        proc = run_cli("synthesize", "in.pgm", "out.pgm", flag, "0", cwd=tmp_path)
        assert_flag_error(proc, flag)
        assert not (tmp_path / "out.pgm").exists()

    @pytest.mark.parametrize("value", ["nan", "7", "-1", "0"])
    @pytest.mark.parametrize("manual", [False, True])
    def test_bad_dmax_fraction_exits_2(self, tmp_path, value, manual):
        write_tiling(tmp_path / "in.pgm", 5, 5, 6, seed=4)
        periods = ["--period-rows", "5", "--period-cols", "5"] if manual else []
        proc = run_cli(
            "analyze", "in.pgm", f"--dmax-fraction={value}", *periods, cwd=tmp_path
        )
        assert_flag_error(proc, "--dmax-fraction")

    @pytest.mark.parametrize(
        "flag, value",
        [("--thickness", "0"), ("--highlight-value", "256"), ("--highlight-value", "-1")],
    )
    def test_bad_outline_flag_exits_2_before_reading(self, tmp_path, flag, value):
        proc = run_cli("detect", "nosuch.pgm", "hi.pgm", f"{flag}={value}", cwd=tmp_path)
        assert_flag_error(proc, flag)
        assert not (tmp_path / "hi.pgm").exists()

    @pytest.mark.parametrize("period", ["--period-rows", "--period-cols"])
    def test_half_manual_periods_exit_2_before_reading(self, tmp_path, period):
        proc = run_cli("analyze", "nosuch.pgm", period, "4", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "error: --period-rows and --period-cols must be given together\n"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["analyze", "in.pgm", "--threshold", "abc"], "--threshold"),
            (["frobnicate"], "frobnicate"),
            ([], "command"),
        ],
    )
    def test_usage_error_is_one_line(self, tmp_path, argv, named):
        assert_flag_error(run_cli(*argv, cwd=tmp_path), named)

    # global skewness is exactly 0, so --epsilon alone divides and overflows
    SYMMETRIC_P2 = b"P2\n4 2\n255\n0 0 0 255\n255 255 255 0\n"

    def test_overflowing_deviation_writes_no_file(self, tmp_path):
        (tmp_path / "sym.pgm").write_bytes(self.SYMMETRIC_P2)
        manual = ("--period-rows", "1", "--period-cols", "4", "--epsilon", "1e-320")
        proc = run_cli("detect", "sym.pgm", "o.pgm", *manual, cwd=tmp_path)
        assert_flag_error(proc, "epsilon 1e-320")
        assert not (tmp_path / "o.pgm").exists()
        proc = run_cli(
            "analyze", "sym.pgm", *manual, "--json-out", "r.json", cwd=tmp_path
        )
        assert_flag_error(proc, "epsilon 1e-320")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["detect", "in.pgm", "x.pgm", "--json-out", "./x.pgm"], "--json-out"),
            (["synthesize", "in.pgm", "x.pgm", "--texel-out", "sub/../x.pgm"], "--texel-out"),
            (["analyze", "in.pgm", "--csv-dmf", "x.out", "--json-out", "x.out"], "--csv-dmf"),
        ],
        ids=["detect-json-out", "synthesize-texel-out", "analyze-csv-dmf-json-out"],
    )
    def test_outputs_naming_one_file_exit_2(self, tmp_path, argv, named):
        write_tiling(tmp_path / "in.pgm", 4, 5, 6, seed=4)
        (tmp_path / "sub").mkdir()
        manual = ["--period-rows", "4", "--period-cols", "5"]
        assert_flag_error(run_cli(*argv, *manual, cwd=tmp_path), named)
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["in.pgm", "sub"]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["detect", "in.pgm", "out.pgm", "--json-out", "nodir/r.json"],
             "--json-out nodir/r.json"),
            (["analyze", "in.pgm", "--csv-dmf", "d.csv", "--json-out", "nodir/r.json"],
             "--json-out nodir/r.json"),
            (["detect", "in.pgm", "sub", "--json-out", "r.json"], "output sub is a directory"),
            (["synthesize", "in.pgm", "o.pgm", "--texel-out", "in.pgm/t.pgm"],
             "--texel-out in.pgm/t.pgm"),
        ],
        ids=["detect-json-out-no-dir", "analyze-json-out-no-dir", "detect-output-dir",
             "synthesize-texel-out-in-file"],
    )
    def test_unwritable_output_exits_2_writing_nothing(self, tmp_path, argv, named):
        write_tiling(tmp_path / "in.pgm", 4, 5, 6, seed=4)
        (tmp_path / "sub").mkdir()
        assert_flag_error(run_cli(*argv, cwd=tmp_path), named)
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["in.pgm", "sub"]

    @pytest.mark.parametrize("argv, named", [
        (["synthesize", "in.pgm", "", "--texel-out", "t.pgm"], "output"),
        (["detect", "in.pgm", "", "--json-out", "r.json"], "output"),
        (["analyze", "in.pgm", "--csv-dmf", "", "--json-out", "r.json"], "--csv-dmf"),
    ], ids=["synthesize-output", "detect-output", "analyze-csv-dmf"])
    def test_empty_output_path_exits_2_writing_nothing(self, tmp_path, argv, named):
        write_tiling(tmp_path / "in.pgm", 4, 5, 6, seed=4)
        manual = ["--period-rows", "4", "--period-cols", "5"]
        proc = run_cli(*argv, *manual, cwd=tmp_path)
        assert_flag_error(proc, named)
        assert proc.stderr == f"error: {named} is an empty path\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"]

    def test_report_json_is_strict(self):
        img = GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4))
        res = classify_blocks(img, partition(img, 2, 2), threshold=0.1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(ValueError):
            cli._emit_json(dataclasses.replace(res, threshold=float("nan")))
        assert out.getvalue() == ""

    @pytest.mark.parametrize("flag, value, extra", [
        *(pytest.param(flag, 10**29, (), id=flag) for flag in (
            "--width", "--height", "--texel-h", "--texel-w", "--reps-r", "--reps-c",
            "--noise-amplitude",
        )),
        # within range, but 2**62 * 4 * 2 * 2 pixels are not
        pytest.param("--texel-h", 2**62, (), id="--texel-h-pixel-count"),
        # within range, but the strip of 4x5 texels tiling_parts builds is not:
        # 4 rows of 2**62 + 4, or of 2**61 + 3, columns
        pytest.param("--width", 2**62, (), id="--width-strip"),
        pytest.param("--width", 2**61, ("--height", "1"), id="--width-strip-height-1"),
    ])
    def test_size_past_c_long_exits_2(self, tmp_path, flag, value, extra):
        write_tiling(tmp_path / "in.pgm", 4, 5, 6, seed=4)
        if flag in ("--width", "--height"):
            argv = ["synthesize", "in.pgm", "o.pgm", "--period-rows", "4", "--period-cols", "5",
                    "--threshold", "0.5", "--texel-out", "t.pgm", *extra]
        else:
            argv = ["generate", "o.pgm", "--texel-h", "4", "--texel-w", "4",
                    "--reps-r", "2", "--reps-c", "2"]
        # the last value of a repeated flag wins
        assert_flag_error(run_cli(*argv, flag, str(value), cwd=tmp_path), flag)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.pgm"]

    def test_out_of_memory_exits_2(self, tmp_path):
        # 10**18 bytes exceed any 64-bit address space, so the allocator
        # refuses the request outright; the tiles of one column take 10 MB
        write_tiling(tmp_path / "in.pgm", 4, 5, 6, seed=4)
        proc = run_cli(
            "synthesize", "in.pgm", "o.pgm", "--period-rows", "4", "--period-cols", "5",
            "--height", str(10**6), "--width", str(10**12), cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
        assert not (tmp_path / "o.pgm").exists()


class TestGenerate:
    def test_byte_identical_reruns(self, tmp_path):
        args = (
            "generate", "t.pgm", "--texel-h", "8", "--texel-w", "6",
            "--reps-r", "5", "--reps-c", "5", "--seed", "123",
            "--defects", "1,1;2,0", "--noise-amplitude", "3",
        )
        run_cli(*args, cwd=tmp_path)
        first_pgm = (tmp_path / "t.pgm").read_bytes()
        first_json = (tmp_path / "t.json").read_text()
        run_cli(*args, cwd=tmp_path)
        assert (tmp_path / "t.pgm").read_bytes() == first_pgm
        assert (tmp_path / "t.json").read_text() == first_json

    def test_sidecar_lists_defects(self, tmp_path):
        run_cli(
            "generate", "t.pgm", "--texel-h", "4", "--texel-w", "4",
            "--reps-r", "4", "--reps-c", "4", "--defects", "1,1;2,0",
            cwd=tmp_path,
        )
        sidecar = json.loads((tmp_path / "t.json").read_text())
        assert sidecar["defect_blocks"] == [[1, 1], [2, 0]]

    def test_bad_defect_string_exits_2(self, tmp_path):
        proc = run_cli(
            "generate", "t.pgm", "--texel-h", "4", "--texel-w", "4",
            "--reps-r", "4", "--reps-c", "4", "--defects", "1,1,3",
            cwd=tmp_path,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("defects", ["1,1,1", "1,x"])
    def test_bad_defect_block_is_named(self, tmp_path, defects):
        proc = run_cli(
            "generate", "t.pgm", "--texel-h", "4", "--texel-w", "4",
            "--reps-r", "3", "--reps-c", "3", "--defects", defects, cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr == f"error: bad defect block '{defects}': expected 'row,col'\n"
        assert list(tmp_path.iterdir()) == []

    def test_output_named_like_its_sidecar_exits_2(self, tmp_path):
        proc = run_cli(
            "generate", "t.json", "--texel-h", "4", "--texel-w", "4",
            "--reps-r", "4", "--reps-c", "4", cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
        assert "sidecar" in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_at_a_directory_exits_2_writing_nothing(self, tmp_path):
        (tmp_path / "t.json").mkdir()
        proc = run_cli(
            "generate", "t.pgm", "--texel-h", "4", "--texel-w", "4",
            "--reps-r", "2", "--reps-c", "2", cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: sidecar t.json is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]

    def test_defect_outside_grid_exits_2(self, tmp_path):
        proc = run_cli(
            "generate", "t.pgm", "--texel-h", "4", "--texel-w", "4",
            "--reps-r", "4", "--reps-c", "4", "--defects", "9,0",
            cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert "outside" in proc.stderr

    def test_negative_seed_exits_2(self, tmp_path):
        proc = run_cli(
            "generate", "t.pgm", "--texel-h", "4", "--texel-w", "4",
            "--reps-r", "4", "--reps-c", "4", "--seed", "-1", cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: seed must be >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_failing_part_way_leaves_no_file(self, tmp_path, monkeypatch):
        # a lone surrogate cannot be encoded, so the write fails after the open
        monkeypatch.setattr(cli.GroundTruth, "to_json", lambda self: '{"seed": "\udcff"}')
        argv = ["generate", str(tmp_path / "t.pgm"), "--texel-h", "4", "--texel-w", "4",
                "--reps-r", "4", "--reps-c", "4"]
        assert cli.main(argv) == 2
        assert (tmp_path / "t.pgm").exists()
        assert not (tmp_path / "t.json").exists()


@st.composite
def results(draw):
    """An AnalysisResult of a random image, with the periods of an analyze
    report or None for a detect report. Thresholds include 0, so some
    results have no representative. Some feature values are replaced by
    arbitrary floats of magnitude at most 1e300, whose derived deviations
    stay finite at the default epsilon (1e300 / 1e-6 = 1e306); the result
    derives its verdict from the replaced features."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    img = GrayImage(draw(hnp.arrays(np.uint8, (h, w))))
    grid = partition(img, draw(st.integers(1, h)), draw(st.integers(1, w)))
    res = classify_blocks(img, grid, draw(st.sampled_from([0.0, 0.05, 1e9])))
    feats = res.features.copy()
    floats = st.floats(-1e300, 1e300)
    for row in feats:
        for col in draw(st.sets(st.integers(0, 5), max_size=2)):
            row[col] = draw(floats)
    res = dataclasses.replace(res, features=feats)
    if draw(st.booleans()):
        return res, None
    est = PeriodEstimate(grid.block_h, grid.block_w, [], [])
    return res, {**est.to_dict(), "manual": True}


def reference_text(res, periods):
    """The report as json.dumps writes the reference's dict form."""
    analysis = result_report(res)
    return report_text(analysis if periods is None else {"periods": periods, "analysis": analysis})


class TestReportText:
    @settings(max_examples=150, deadline=None)
    @given(results())
    def test_equals_json_dumps(self, case):
        res, periods = case
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit_json(res, periods)
        assert out.getvalue() == reference_text(res, periods)

    @settings(max_examples=50, deadline=None)
    @given(results(), st.sampled_from([float("inf"), float("-inf"), float("nan")]), st.data())
    def test_non_finite_value_raises_naming_epsilon(self, case, bad, data):
        res, _ = case
        feats = res.features.copy()
        feats[data.draw(st.integers(0, len(feats) - 1)), data.draw(st.integers(0, 5))] = bad
        with pytest.raises(ValueError) as got:
            dataclasses.replace(res, features=feats)
        assert str(got.value) == (
            f"a relative deviation overflowed: epsilon {res.epsilon!r} is too small"
        )

    def test_cli_builds_no_block_dicts(self, tmp_path, monkeypatch):
        img = write_tiling(tmp_path / "in.pgm", 6, 5, 4, seed=2)
        grid = Grid(6, 5, 4, 4)
        want = report(grid, 0.1, 1e-6, per_block_classify(img, grid, 0.1, 1e-6))

        def refuse(self):
            raise AssertionError("the CLI report must not call to_dict()")

        monkeypatch.setattr(AnalysisResult, "to_dict", refuse)
        manual = ["--period-rows", "6", "--period-cols", "5"]
        detect = [str(tmp_path / "in.pgm"), str(tmp_path / "o.pgm"), *manual]
        assert cli.main(["detect", *detect, "--json-out", str(tmp_path / "d.json")]) == 0
        assert cli.main(["analyze", str(tmp_path / "in.pgm"),
                         "--json-out", str(tmp_path / "a.json")]) == 0
        assert json.loads((tmp_path / "d.json").read_text()) == want
        assert json.loads((tmp_path / "a.json").read_text())["analysis"] == want


def run_cli_bytes(*args, cwd):
    """run_cli with stdout kept as the bytes the process wrote."""
    return subprocess.run(
        [sys.executable, "-m", "texelkit", *args], capture_output=True, cwd=cwd, env=cli_env()
    )


def write_noise(path, side, seed):
    """A noisy side x side image: its report floats are mostly distinct."""
    path.write_bytes(save_pgm(GrayImage(
        np.random.default_rng(seed).integers(0, 256, (side, side), dtype=np.uint8)
    )))


def p2_text(tokens, maxval):
    """A 256x256 P2 file of the given sample tokens, 16 to a line."""
    lines = (b" ".join(tokens[k : k + 16]) for k in range(0, len(tokens), 16))
    return b"P2\n256 256\n%d\n" % maxval + b"\n".join(lines) + b"\n"


class TestP2InputErrors:
    """Errors in a P2 raster that spans several decoding runs keep the
    one-line messages and their precedence: a malformed sample first, then
    a short raster, then the first sample of 1000 or more, then the largest
    sample over maxval."""

    @pytest.mark.parametrize("edits, maxval, kept, line", [
        ({100: b"1234", 60000: b"12x"}, 255, 65536,
         "error: malformed P2 sample: b'12x'"),
        ({100: b"1234"}, 255, 65526,
         "error: truncated P2 pixel data: expected 65536 samples, got 65526"),
        ({100: b"300", 60000: b"1234", 62000: b"5678"}, 255, 65536,
         "error: sample value 1234 exceeds declared maxval 255"),
        ({100: b"201", 60000: b"250"}, 200, 65536,
         "error: sample value 250 exceeds declared maxval 200"),
    ], ids=["malformed", "truncated", "over-999", "over-maxval"])
    def test_analyze_exits_2_with_the_error(self, tmp_path, edits, maxval, kept, line):
        tokens = [b"%d" % v for v in np.random.default_rng(3).integers(0, 200, 256 * 256)]
        for k, token in edits.items():
            tokens[k] = token
        text = p2_text(tokens[:kept], maxval)
        assert len(text) > 3 * image._P2_RUN_BYTES
        (tmp_path / "in.pgm").write_bytes(text)
        proc = run_cli("analyze", "in.pgm", cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line + "\n")

    @pytest.mark.parametrize("text, line", [
        (b"P2 1 1 255 " + b"1" * 5000,
         "error: sample value of 5000 digits exceeds declared maxval 255"),
        (b"P2 1 " + b"1" * 5000 + b" 255 1", "error: invalid PGM height of 5000 digits"),
    ], ids=["sample", "header"])
    def test_integer_too_long_for_int_exits_2(self, tmp_path, text, line):
        (tmp_path / "in.pgm").write_bytes(text)
        proc = run_cli("analyze", "in.pgm", cwd=tmp_path)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line + "\n")


def report_runs(n_rows, n_cols):
    """How many block-row runs the report writes for this grid."""
    rows_per_run = max(1, blocks._REPORT_CHUNK_BYTES // (n_cols * 13 * 8))
    return -(-n_rows // rows_per_run)


class TestStreamedOutputs:
    @pytest.mark.parametrize("command", ["analyze", "detect"])
    def test_stdout_and_json_out_bytes_equal(self, tmp_path, command):
        write_noise(tmp_path / "in.pgm", 128, seed=8)
        assert report_runs(64, 64) > 1
        manual = ["--period-rows", "2", "--period-cols", "2"]
        outputs = ["o.pgm"] if command == "detect" else []
        printed = run_cli_bytes(command, "in.pgm", *outputs, *manual, cwd=tmp_path)
        written = run_cli_bytes(
            command, "in.pgm", *outputs, *manual, "--json-out", "r.json", cwd=tmp_path
        )
        assert printed.returncode == written.returncode
        assert written.stdout == b""
        assert printed.stdout == (tmp_path / "r.json").read_bytes()
        json.loads(printed.stdout)

    def test_detect_peak_below_report_size(self, tmp_path):
        write_noise(tmp_path / "in.pgm", 320, seed=9)
        assert report_runs(160, 160) > 1
        argv = ["detect", str(tmp_path / "in.pgm"), str(tmp_path / "o.pgm"),
                "--period-rows", "2", "--period-cols", "2",
                "--json-out", str(tmp_path / "r.json")]
        code, peak = peak_bytes(cli.main, argv)
        assert code == 1
        assert peak < (tmp_path / "r.json").stat().st_size / 3

    def test_detect_peak_below_input_and_block_values_plus_1_mb(self, tmp_path):
        # every 8x8 block of noise is flagged, so every block row is outlined
        write_noise(tmp_path / "in.pgm", 512, seed=10)
        argv = ["detect", str(tmp_path / "in.pgm"), str(tmp_path / "o.pgm"),
                "--period-rows", "8", "--period-cols", "8",
                "--json-out", str(tmp_path / "r.json")]
        code, peak = peak_bytes(cli.main, argv)
        assert code == 1
        assert '"conforming": true' not in (tmp_path / "r.json").read_text()
        # the features and maximum deviation of each block
        assert peak < 512 * 512 + 7 * 8 * 64 * 64 + 10**6

    def test_dense_detect_peak_below_2_6_mb(self, tmp_path):
        # a noisy 8x8 texel tiled 128x128: a 1 MB image, 16384 block features
        # (0.79 MB) and one block-stage budget (0.52 MB) fit; a second (blocks,
        # 6) array or a block-stage run past the budget would not
        gt = GroundTruth(texel_h=8, texel_w=8, reps_r=128, reps_c=128, noise_amplitude=5, seed=7)
        (tmp_path / "in.pgm").write_bytes(save_pgm(generate(gt, random_texel(8, 8, seed=7))))
        argv = ["detect", str(tmp_path / "in.pgm"), str(tmp_path / "o.pgm"),
                "--period-rows", "8", "--period-cols", "8",
                "--json-out", str(tmp_path / "r.json")]
        code, peak = peak_bytes(cli.main, argv)
        assert code == 1
        assert peak < 2.6 * 10**6

    def test_periodic_analyze_peak_below_1_8_mb(self, tmp_path, capsys):
        # a 960x960 tiling of a 24x20 texel: the 0.92 MB file, which the image
        # views, and the block stage's budget fit; a copy of the raster or a
        # DMF working set past its budget would not
        texel = random_texel(24, 20, seed=8)
        (tmp_path / "in.pgm").write_bytes(save_pgm(synthesize(texel, 960, 960)))
        # measured after a warm-up call, as perfbench does: the first call
        # also imports numpy's fft module (0.13 MB, kept)
        assert cli.main(["analyze", str(tmp_path / "in.pgm")]) == 0
        capsys.readouterr()
        code, peak = peak_bytes(cli.main, ["analyze", str(tmp_path / "in.pgm")])
        assert code == 0
        periods = json.loads(capsys.readouterr().out)["periods"]
        assert (periods["row_period"], periods["col_period"]) == (24, 20)
        assert peak < 1.8 * 10**6

    def test_synthesize_peak_below_1_mb(self, tmp_path):
        # a 4 MB output from a 64x64 input: the tiling is written from one strip
        write_tiling(tmp_path / "in.pgm", 8, 8, 8, seed=6)
        argv = ["synthesize", str(tmp_path / "in.pgm"), str(tmp_path / "o.pgm"),
                "--period-rows", "8", "--period-cols", "8",
                "--width", "2048", "--height", "2048"]
        code, peak = peak_bytes(cli.main, argv)
        assert code == 0
        assert peak < 10**6
        assert load_pgm((tmp_path / "o.pgm").read_bytes()).pixels.shape == (2048, 2048)

    def test_synthesize_from_p2_peak_below_text_plus_1_mb(self, tmp_path):
        # about 0.95 MB of P2 text, read whole; its decoding takes one run at a time
        texel = random_texel(8, 8, seed=6)
        text = save_pgm(synthesize(texel, 512, 512), "P2")
        (tmp_path / "in.pgm").write_bytes(text)
        argv = ["synthesize", str(tmp_path / "in.pgm"), str(tmp_path / "o.pgm"),
                "--period-rows", "8", "--period-cols", "8",
                "--width", "2048", "--height", "2048"]
        code, peak = peak_bytes(cli.main, argv)
        assert code == 0
        assert peak < len(text) + 10**6
        assert load_pgm((tmp_path / "o.pgm").read_bytes()).pixels.shape == (2048, 2048)

    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_tiling_failing_part_way_leaves_no_file(self, tmp_path, monkeypatch, kind):
        write_tiling(tmp_path / "in.pgm", 4, 5, 6, seed=4)
        target = tmp_path / "o.pgm"
        if kind == "symlink":
            target.symlink_to(os.devnull)
        tiling_parts = cli.tiling_parts

        def first_piece_then_full_disk(*args):
            yield next(tiling_parts(*args))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "tiling_parts", first_piece_then_full_disk)
        argv = ["synthesize", str(tmp_path / "in.pgm"), str(target),
                "--period-rows", "4", "--period-cols", "5", "--width", "50", "--height", "40"]
        assert cli.main(argv) == 2
        if kind == "symlink":
            assert target.is_symlink()
        else:
            assert not target.exists()

    @staticmethod
    def fail_part_way(monkeypatch):
        def rows(self, indent):
            yield "\n"
            raise MemoryError

        monkeypatch.setattr(AnalysisResult, "_block_rows", rows)

    def test_report_failing_part_way_leaves_no_file(self, tmp_path, monkeypatch):
        write_noise(tmp_path / "in.pgm", 32, seed=10)
        self.fail_part_way(monkeypatch)
        argv = ["analyze", str(tmp_path / "in.pgm"), "--period-rows", "2",
                "--period-cols", "2", "--json-out", str(tmp_path / "r.json")]
        assert cli.main(argv) == 2
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("kind", ["fifo", "symlink"])
    def test_report_failing_part_way_keeps_a_non_regular_path(self, tmp_path, monkeypatch, kind):
        write_noise(tmp_path / "in.pgm", 32, seed=10)
        target = tmp_path / "r.json"
        reader = None
        if kind == "fifo":
            os.mkfifo(target)
            reader = os.open(target, os.O_RDONLY | os.O_NONBLOCK)  # so the writer can open
        else:
            target.symlink_to(os.devnull)
        self.fail_part_way(monkeypatch)
        argv = ["analyze", str(tmp_path / "in.pgm"), "--period-rows", "2",
                "--period-cols", "2", "--json-out", str(target)]
        try:
            assert cli.main(argv) == 2
        finally:
            if reader is not None:
                os.close(reader)
        assert target.is_symlink() if kind == "symlink" else target.is_fifo()

    def test_both_analyze_outputs_may_name_stdout(self, tmp_path):
        write_tiling(tmp_path / "in.pgm", 4, 5, 6, seed=4)
        proc = run_cli("analyze", "in.pgm", "--csv-dmf", "/dev/stdout",
                       "--json-out", "/dev/stdout", cwd=tmp_path)
        assert proc.returncode == 0
        csv_text, brace, report = proc.stdout.partition("{")
        assert csv_text.startswith("axis,d,dmf,forward_difference")
        assert json.loads(brace + report)["periods"]["manual"] is False
