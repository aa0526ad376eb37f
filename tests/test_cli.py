import os
import re
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from voxgs import (
    AttributeLayout,
    FloatAnchorCloud,
    encode_container,
    generate_synthetic,
    write_anchor_file,
)
from voxgs import model
from voxgs import container as cont
from voxgs.cli import MAX_SWEEP_ANCHORS, main
from voxgs.rlc import MAX_ELEMENTS
from tests.test_container import _splice_box, _wide_box_cloud


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

    def test_non_utf8_input_names_its_line(self, runner, anchor_file, tmp_path):
        lines = anchor_file.read_bytes().split(b"\n")
        lines[6] = lines[6].replace(b" ", b" \xff", 1)  # line 7, data row 1, after the mlp line
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\n".join(lines))
        out = tmp_path / "out.vxgs"
        result = runner.invoke(main, ["encode", str(bad), str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == ["error: line 7: not UTF-8 text"]
        assert not out.exists()

    def test_zero_scale_rejected(self, runner, anchor_file, tmp_path):
        result = runner.invoke(
            main, ["encode", str(anchor_file), str(tmp_path / "o"), "--qs", "0"]
        )
        assert result.exit_code == 2
        assert "quant scale must be positive" in result.output

    @pytest.mark.parametrize("scale", ["abc", "1/0"])
    def test_unreadable_scale_is_one_error_line(self, runner, anchor_file, tmp_path, scale):
        out = tmp_path / "o.vxgs"
        result = runner.invoke(main, ["encode", str(anchor_file), str(out), "--qo", scale])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        message = f"error: q_o value '{scale}' is not a rational number"
        assert result.output.splitlines() == [message]
        assert not out.exists()

    def test_scale_beyond_uint64_exit_2(self, runner, anchor_file, tmp_path):
        out = tmp_path / "o.vxgs"
        result = runner.invoke(
            main, ["encode", str(anchor_file), str(out), "--qo", "1/18446744073709551616"]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert [line for line in result.output.splitlines() if line.startswith("error:")] == [
            "error: quant scale numerator and denominator must be below 2**64"
        ]
        assert not out.exists()

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

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_bbox_exit_2(self, runner, tmp_path, value):
        bad = tmp_path / "bbox.txt"
        row = " ".join(["0.5"] * 14)
        bad.write_text(f"voxgs-anchors 1\nanchors 1\nk 1\nm 2\nbbox 0 0 0 {value} 1 1\n{row}\n")
        result = runner.invoke(main, ["encode", str(bad), str(tmp_path / "o")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == ["error: line 5: bbox values must be finite"]
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

    @staticmethod
    def _wide_box_file(path, half):
        rng = np.random.default_rng(14)
        positions = np.vstack([[-half] * 3, [half] * 3, rng.uniform(-1, 1, (30, 3)) * half])
        n = len(positions)
        fcloud = FloatAnchorCloud(
            positions=positions,
            offsets=rng.integers(-4, 5, (n, 3)).astype(np.float64),
            features=rng.integers(-4, 5, (n, 2)).astype(np.float64),
            scalings=np.zeros((n, 6)),
            layout=AttributeLayout(k=1, m=2),
            bbox=np.array([[-half] * 3, [half] * 3]),
        )
        write_anchor_file(path, fcloud)

    @pytest.mark.parametrize("half", [1.7e308, 1e305])
    def test_box_whose_span_overflows_exit_2(self, runner, tmp_path, half):
        scene = tmp_path / "wide.txt"
        self._wide_box_file(scene, half)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["encode", str(scene), str(tmp_path / "o")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            "error: bounding box extent times q_p=1024 overflows float64"
        ]
        assert not (tmp_path / "o").exists()

    def test_wide_accepted_box_re_encodes_byte_identical(self, runner, tmp_path):
        scene, back = tmp_path / "wide.txt", tmp_path / "back.txt"
        c1, c2 = tmp_path / "c1.vxgs", tmp_path / "c2.vxgs"
        self._wide_box_file(scene, 8e304)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for args in (["encode", scene, c1], ["decode", c1, back], ["encode", back, c2]):
                result = runner.invoke(main, [str(a) for a in args])
                assert result.exit_code == 0, result.output
        assert c1.read_bytes() == c2.read_bytes()
        assert "inf" not in back.read_text() and "nan" not in back.read_text()

    @pytest.mark.parametrize("command", ["decode", "analyze"])
    def test_container_whose_box_overflows_exit_3(self, runner, tmp_path, command):
        wide = tmp_path / "wide.vxgs"
        wide.write_bytes(_splice_box(encode_container(_wide_box_cloud(0.5)), 1e305))
        args = [command, str(wide)] + ([str(tmp_path / "out.txt")] if command == "decode" else [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert result.output.splitlines() == [
            "corrupt container: bounding box extent times q_p=1024 overflows float64"
        ]
        assert not (tmp_path / "out.txt").exists()

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

    def test_negative_seed_exit_2(self, runner):
        result = runner.invoke(main, ["calibrate", "--synthetic", "2", "--seed", "-1"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--seed'" in result.output

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

    def test_unreadable_corpus_entry_exit_2(self, runner, tmp_path):
        corpus = tmp_path / "corpus"
        (corpus / "nested").mkdir(parents=True)
        result = runner.invoke(main, ["calibrate", "--corpus", str(corpus)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: cannot read {corpus / 'nested'}: ")
        assert len(result.output.splitlines()) == 1


    def test_synthetic_above_cap_exit_2(self, runner):
        for count in ("10001", "100000000"):
            result = runner.invoke(main, ["calibrate", "--synthetic", count])
            assert result.exit_code == 2, result.output
            assert isinstance(result.exception, SystemExit)
            assert "Invalid value for '--synthetic'" in result.output


# Reading /proc/self/mem from offset 0 passes click's existence and access
# checks, then fails with EIO.
UNREADABLE = "/proc/self/mem"


@pytest.mark.skipif(not os.path.exists(UNREADABLE), reason="needs /proc/self/mem")
class TestUnreadableInput:
    @pytest.mark.parametrize(
        "args",
        [
            ["encode", UNREADABLE, "OUT"],
            ["decode", UNREADABLE, "OUT"],
            ["analyze", UNREADABLE],
            ["sweep", "--axis", "q_p", "--values", "128", "--input", UNREADABLE],
        ],
        ids=["encode", "decode", "analyze", "sweep"],
    )
    def test_exit_2_naming_the_path(self, runner, tmp_path, args):
        out = tmp_path / "out"
        result = runner.invoke(main, [str(out) if a == "OUT" else a for a in args])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert len(result.output.splitlines()) == 1
        assert result.output.startswith(f"error: cannot read {UNREADABLE}: ")
        assert not out.exists()

    def test_calibrate_corpus_entry(self, runner, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "mem").symlink_to(UNREADABLE)
        result = runner.invoke(main, ["calibrate", "--corpus", str(corpus)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            f"error: cannot read {corpus / 'mem'}: Input/output error"
        ]


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

    @pytest.mark.parametrize(
        "axis,value,message",
        [
            ("q_a", "1/0", "q_a value '1/0' is not a rational number"),
            ("q_p", "1.5", "q_p must be an integer in [1, 2097152], got '1.5'"),
        ],
    )
    def test_bad_value_is_one_error_line_naming_it(self, runner, axis, value, message):
        args = ["sweep", "--axis", axis, "--values", f"2,{value}", "--synthetic", "10"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "axis,value", [("q_a", "1/0"), ("q_p", "0"), ("q_o", "-2")]
    )
    def test_bad_value_exit_2_before_the_scene(self, runner, monkeypatch, axis, value):
        def no_generate(*args, **kwargs):
            raise AssertionError("generate_synthetic called")

        monkeypatch.setattr(cont, "generate_synthetic", no_generate)
        args = ["sweep", "--axis", axis, "--values", f"2,{value}", "--synthetic", "100000"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")

    def test_overflowing_scale_exit_2(self, runner):
        result = runner.invoke(
            main, ["sweep", "--axis", "q_a", "--values", "1e12", "--synthetic", "100"]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: features integers overflow int32 storage" in result.output

    def test_synthetic_above_cap_exit_2_before_generating(self, runner, monkeypatch):
        # The k=10, m=50 scene has 86 dims per anchor; one anchor more than
        # MAX_ELEMENTS // 86 is a cloud encode_container refuses.
        assert MAX_SWEEP_ANCHORS * 86 <= MAX_ELEMENTS < (MAX_SWEEP_ANCHORS + 1) * 86

        def no_generate(*args, **kwargs):
            raise AssertionError("generate_synthetic called")

        monkeypatch.setattr(cont, "generate_synthetic", no_generate)
        args = ["sweep", "--axis", "q_p", "--values", "128", "--synthetic"]
        result = runner.invoke(main, args + [str(MAX_SWEEP_ANCHORS + 1)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--synthetic'" in result.output

    def test_negative_seed_exit_2(self, runner):
        args = ["sweep", "--axis", "q_p", "--values", "128", "--synthetic", "10", "--seed", "-1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--seed'" in result.output

    def test_input_without_anchors_exit_2_before_any_point(self, runner, tmp_path, monkeypatch):
        path = tmp_path / "empty.txt"
        path.write_text("voxgs-anchors 1\nanchors 0\nk 2\nm 3\nbbox 0 0 0 1 1 1\n")

        def no_point(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(cont, "quantize_cloud_kept", no_point)
        args = ["sweep", "--axis", "q_p", "--values", "128,256", "--input", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output == f"error: {path} holds no anchors; there is nothing to sweep\n"
        assert "Warning" not in result.output

    def test_csv_same_for_any_span_size(self, runner, monkeypatch):
        args = ["sweep", "--axis", "q_p", "--values", "128,256,512", "--synthetic", "300"]
        expected = runner.invoke(main, args)
        assert expected.exit_code == 0, expected.output
        monkeypatch.setattr(model, "_SPAN_ELEMENTS", 64)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.output == expected.output


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

    def test_more_anchors_than_voxels_exit_2(self, runner):
        # 256**3 + 1 anchors cannot be distinct on the scene's 256^3 grid.
        result = runner.invoke(
            main, ["sandbox", "--steps", "3", "--warmup", "1", "--anchors", "16777217"]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert len(result.output.splitlines()) == 1
        assert result.output.startswith("error: baseline run failed: anchors=16777217 exceeds")

    def test_more_anchors_than_a_container_holds_exit_2(self, runner):
        # 780,336 anchors x 86 channels exceed MAX_ELEMENTS; refused before the scene is built.
        result = runner.invoke(
            main, ["sandbox", "--steps", "3", "--warmup", "1", "--anchors", "780336"]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output == (
            "error: baseline run failed: anchors=780336 x 86 attribute channels exceeds"
            " the 67108864-element container limit\n"
        )

    def test_negative_seed_exit_2(self, runner):
        result = runner.invoke(
            main, ["sandbox", "--steps", "3", "--warmup", "1", "--anchors", "8", "--seed", "-1"]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--seed'" in result.output

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
