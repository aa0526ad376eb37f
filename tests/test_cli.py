import os
import re

import numpy as np
import pytest
from click.testing import CliRunner

from voxgs import AttributeLayout, generate_synthetic, write_anchor_file
from voxgs.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def anchor_file(tmp_path):
    fcloud = generate_synthetic(
        seed=0, anchors=300, layout=AttributeLayout(k=2, m=4), mlp_bytes=16
    )
    path = tmp_path / "scene.txt"
    write_anchor_file(path, fcloud)
    return path


class TestEncode:
    def test_writes_container_and_breakdown(self, runner, anchor_file, tmp_path):
        out = tmp_path / "scene.vxgs"
        result = runner.invoke(main, ["encode", str(anchor_file), str(out)])
        assert result.exit_code == 0, result.output
        assert out.exists()
        shares = [float(v) for v in re.findall(r"([\d.]+)%", result.output)]
        assert len(shares) == 5
        assert sum(shares) == pytest.approx(100.0, abs=0.1)

    def test_missing_input(self, runner, tmp_path):
        result = runner.invoke(main, ["encode", str(tmp_path / "nope.txt"), str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "nope.txt" in result.output

    def test_zero_scale_rejected(self, runner, anchor_file, tmp_path):
        result = runner.invoke(
            main, ["encode", str(anchor_file), str(tmp_path / "o"), "--qs", "0"]
        )
        assert result.exit_code == 2
        assert "quant scale must be positive" in result.output

    def test_malformed_input(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not an anchor file\n")
        result = runner.invoke(main, ["encode", str(bad), str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_declared_anchor_count_beyond_file_rejected(self, runner, tmp_path):
        bad = tmp_path / "huge.txt"
        row = " ".join(["0.5"] * 16)
        bad.write_text(
            "voxgs-anchors 1\nanchors 10000000000000\nk 1\nm 4\nbbox 0 0 0 1 1 1\n" + row + "\n"
        )
        result = runner.invoke(main, ["encode", str(bad), str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert "expected 10000000000000 data rows, found 1" in result.output

    @pytest.mark.parametrize("k", ["65537", "1000000000"])
    def test_layout_beyond_bound_exit_2(self, runner, tmp_path, k):
        bad = tmp_path / "wide.txt"
        bad.write_text(f"voxgs-anchors 1\nanchors 1\nk {k}\nm 4\nbbox 0 0 0 1 1 1\n0.5\n")
        result = runner.invoke(main, ["encode", str(bad), str(tmp_path / "o")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "must not exceed" in result.output
        assert not (tmp_path / "o").exists()

    def test_preset(self, runner, anchor_file, tmp_path):
        out = tmp_path / "p.vxgs"
        result = runner.invoke(
            main, ["encode", str(anchor_file), str(out), "--preset", "large-scene"]
        )
        assert result.exit_code == 0, result.output
        from voxgs import decode_container

        assert decode_container(out.read_bytes()).quant.q_p == 200


class TestDecode:
    def test_encode_decode_encode_idempotent(self, runner, anchor_file, tmp_path):
        c1 = tmp_path / "c1.vxgs"
        c2 = tmp_path / "c2.vxgs"
        back = tmp_path / "back.txt"
        assert runner.invoke(main, ["encode", str(anchor_file), str(c1)]).exit_code == 0
        assert runner.invoke(main, ["decode", str(c1), str(back)]).exit_code == 0
        assert runner.invoke(main, ["encode", str(back), str(c2)]).exit_code == 0
        assert c1.read_bytes() == c2.read_bytes()

    def test_corrupt_container_exit_3(self, runner, tmp_path):
        bad = tmp_path / "bad.vxgs"
        bad.write_bytes(b"NOPE" + b"\x00" * 40)
        result = runner.invoke(main, ["decode", str(bad), str(tmp_path / "out.txt")])
        assert result.exit_code == 3
        assert "magic" in result.output


class TestAnalyze:
    def _container(self, runner, anchor_file, tmp_path):
        out = tmp_path / "a.vxgs"
        assert runner.invoke(main, ["encode", str(anchor_file), str(out)]).exit_code == 0
        return out

    def test_text_report(self, runner, anchor_file, tmp_path):
        out = self._container(runner, anchor_file, tmp_path)
        result = runner.invoke(main, ["analyze", str(out)])
        assert result.exit_code == 0
        assert "alpha" in result.output
        assert "MLP" in result.output

    def test_kv_report_percentages(self, runner, anchor_file, tmp_path):
        out = self._container(runner, anchor_file, tmp_path)
        result = runner.invoke(main, ["analyze", str(out), "--format", "kv"])
        assert result.exit_code == 0
        shares = [
            float(line.split("=")[1])
            for line in result.output.splitlines()
            if line.startswith("pct_")
        ]
        assert sum(shares) == pytest.approx(100.0, abs=0.1)

    def test_corrupt_exit_3(self, runner, tmp_path):
        bad = tmp_path / "bad.vxgs"
        bad.write_bytes(b"\x00" * 16)
        assert runner.invoke(main, ["analyze", str(bad)]).exit_code == 3


class TestCalibrate:
    def test_synthetic_corpus(self, runner):
        result = runner.invoke(main, ["calibrate", "--synthetic", "12", "--seed", "0"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines()[0] == "estimated_bits,actual_bits"
        alpha = float(re.search(r"alpha=([\d.]+)", result.output).group(1))
        corr = float(re.search(r"correlation=([-\d.]+)", result.output).group(1))
        assert alpha > 0
        assert -1.0 <= corr <= 1.0

    def test_single_scene_correlation_undefined(self, runner):
        result = runner.invoke(main, ["calibrate", "--synthetic", "1"])
        assert result.exit_code == 2
        assert "correlation undefined" in result.output

    def test_no_corpus_given(self, runner):
        result = runner.invoke(main, ["calibrate"])
        assert result.exit_code == 2

    def test_directory_corpus(self, runner, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for seed in range(3):
            fcloud = generate_synthetic(
                seed=seed,
                anchors=150 + 200 * seed,
                layout=AttributeLayout(k=1, m=3),
                run_bias=0.3 * seed,
            )
            write_anchor_file(corpus / f"scene{seed}.txt", fcloud)
        result = runner.invoke(main, ["calibrate", "--corpus", str(corpus)])
        assert result.exit_code == 0, result.output
        assert "alpha=" in result.output


class TestSweep:
    def test_qp_sweep_csv(self, runner):
        result = runner.invoke(
            main,
            ["sweep", "--axis", "q_p", "--values", "128,256", "--synthetic", "400", "--seed", "1"],
        )
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0] == "q_p,size_bits,geometry_bits,distortion_mse"
        assert len(lines) == 3
        g128 = int(lines[1].split(",")[2])
        g256 = int(lines[2].split(",")[2])
        assert g128 <= g256

    def test_single_value_sweep(self, runner):
        result = runner.invoke(
            main, ["sweep", "--axis", "q_s", "--values", "8", "--synthetic", "100"]
        )
        assert result.exit_code == 0, result.output
        assert len(result.output.strip().splitlines()) == 2

    def test_invalid_axis(self, runner):
        result = runner.invoke(
            main, ["sweep", "--axis", "bogus", "--values", "1", "--synthetic", "10"]
        )
        assert result.exit_code == 2

    def test_no_input(self, runner):
        result = runner.invoke(main, ["sweep", "--axis", "q_p", "--values", "128"])
        assert result.exit_code == 2

    def test_bad_value(self, runner):
        result = runner.invoke(
            main, ["sweep", "--axis", "q_p", "--values", "abc", "--synthetic", "10"]
        )
        assert result.exit_code == 2

    def test_overflowing_scale_exit_2(self, runner):
        result = runner.invoke(
            main, ["sweep", "--axis", "q_a", "--values", "1e12", "--synthetic", "100"]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: features integers overflow int32 storage" in result.output


class TestOutputPath:
    def _assert_cannot_write(self, result, out):
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: cannot write {out}" in result.output
        assert not out.parent.exists()

    def test_encode_into_missing_directory(self, runner, anchor_file, tmp_path):
        out = tmp_path / "missing" / "x.vxgs"
        result = runner.invoke(main, ["encode", str(anchor_file), str(out)])
        self._assert_cannot_write(result, out)

    def test_decode_into_missing_directory(self, runner, anchor_file, tmp_path):
        blob = tmp_path / "scene.vxgs"
        assert runner.invoke(main, ["encode", str(anchor_file), str(blob)]).exit_code == 0
        out = tmp_path / "missing" / "x.txt"
        result = runner.invoke(main, ["decode", str(blob), str(out)])
        self._assert_cannot_write(result, out)

    def test_sandbox_trace_into_missing_directory(self, runner, tmp_path):
        prefix = tmp_path / "missing" / "trace"
        result = runner.invoke(
            main,
            ["sandbox", "--steps", "3", "--warmup", "1", "--anchors", "8",
             "--out-prefix", str(prefix)],
        )
        self._assert_cannot_write(result, tmp_path / "missing" / "trace.baseline.csv")

    def test_failed_move_leaves_no_temporary(self, runner, anchor_file, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        out = tmp_path / "x.vxgs"
        result = runner.invoke(main, ["encode", str(anchor_file), str(out)])
        assert result.exit_code == 2, result.output
        assert f"error: cannot write {out}: Permission denied" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scene.txt"]


class TestSandbox:
    def test_reports_reduction(self, runner, tmp_path):
        prefix = tmp_path / "trace"
        result = runner.invoke(
            main,
            [
                "sandbox", "--steps", "120", "--warmup", "30", "--anchors", "64",
                "--seed", "0", "--out-prefix", str(prefix),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "rate_reduction=" in result.output
        assert (tmp_path / "trace.baseline.csv").exists()
        assert (tmp_path / "trace.rate.csv").exists()

    def test_lambda3_zero_ratio_near_zero(self, runner):
        result = runner.invoke(
            main,
            ["sandbox", "--steps", "80", "--warmup", "20", "--anchors", "48", "--lambda3", "0"],
        )
        assert result.exit_code == 0, result.output
        reduction = float(re.search(r"rate_reduction=([-\d.]+)%", result.output).group(1))
        assert abs(reduction) <= 2.0

    def test_warmup_validation(self, runner):
        result = runner.invoke(main, ["sandbox", "--steps", "10", "--warmup", "10"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args", [["--anchors", "0"], ["--anchors", "-5"], ["--warmup", "-1"]]
    )
    def test_out_of_range_options_exit_2(self, runner, args):
        result = runner.invoke(main, ["sandbox", "--steps", "10", *args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value" in result.output

    @pytest.mark.parametrize("args", [["--lr", "1e300"], ["--lr", "-1e300"]])
    def test_run_failure_exit_2(self, runner, args):
        result = runner.invoke(
            main, ["sandbox", "--steps", "3", "--warmup", "1", "--anchors", "8", *args]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: baseline run failed: ste_round input exceeds the int64 range" in (
            result.output
        )

    @pytest.mark.parametrize("option", ["--lr", "--lambda1", "--lambda2", "--lambda3"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_option_exit_2(self, runner, option, value):
        result = runner.invoke(
            main, ["sandbox", "--steps", "3", "--warmup", "1", "--anchors", "8", option, value]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"{option.lstrip('-')} must be finite" in result.output
