"""Smoke tests of the benchmark harness at tiny sizes.

    python -m pytest perfbench/tests -q
"""

import fnmatch
import json
import re

import pytest

import voxgs
from perfbench import harness, tracer
from perfbench.workloads import WORKLOADS

# The end-to-end metrics each workload prints in its own terms, with units.
NAMED = {
    "scene-large": {
        "setup_s": "s",
        "peak_mem_mb": "MB",
        "encode_anchors_per_s": "anchors/s",
        "decode_anchors_per_s": "anchors/s",
        "analyze_anchors_per_s": "anchors/s",
        "bytes_per_anchor": "B",
    },
    "clouds-small": {
        "setup_s": "s",
        "peak_mem_mb": "MB",
        "roundtrip_clouds_per_s": "clouds/s",
        "roundtrip_p50_ms": "ms",
        "roundtrip_p90_ms": "ms",
        "bytes_per_anchor": "B",
    },
    "sandbox-ablation": {
        "setup_s": "s",
        "peak_mem_mb": "MB",
        "sandbox_steps_per_s": "steps/s",
        "sandbox_bits_ratio": "1",
    },
    "cli-files": {
        "setup_s": "s",
        "peak_mem_mb": "MB",
        "cli_encode_s": "s",
        "cli_decode_s": "s",
        "cli_analyze_s": "s",
    },
}


def bench(capsys, tmp_path, *args, workload="all"):
    code = harness.main(
        ["--workload", workload, "--smoke", "--seconds", "0.2", "--out", str(tmp_path), *args]
    )
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def sections(lines):
    """Printed lines grouped by workload header."""
    out = {}
    for line in lines[:-1]:
        if line.startswith("== "):
            current = out.setdefault(line.split()[1], [])
        else:
            current.append(line)
    return out


@pytest.mark.parametrize("seed", [0, 7])
def test_every_metric_printed_and_checked(capsys, tmp_path, seed):
    code, lines, summary = bench(capsys, tmp_path, "--seed", str(seed))
    assert code == 0
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    spec = harness.load_spec()
    printed = sections(lines)
    assert set(printed) == set(WORKLOADS)
    for name, metrics in NAMED.items():
        text = "\n".join(printed[name])
        for metric, unit in metrics.items():
            assert re.search(rf"^  {metric} +\S+ {re.escape(unit)} ", text, re.M), (name, metric)
        assert re.search(r"operations: attempted [1-9]\d*, failed 0", text)
        for m in spec["end_to_end"]:
            entry = summary["metrics"][f"{name}/{m['name']}"]
            assert entry["unit"] == m["unit"] and entry["value"] > 0


def test_traced_run_reports_layers_and_restores_bindings(capsys, tmp_path):
    code, lines, summary = bench(capsys, tmp_path, "--seed", "3", "--trace", "1")
    assert code == 0 and summary["correct"]
    assert tracer.installed_wrappers() == []
    spec = harness.load_spec()
    for name in WORKLOADS:
        for m in spec["per_layer"]:
            assert summary["metrics"][f"{name}/{m['name']}"]["unit"] == m["unit"]
        result = json.loads((tmp_path / f"results-{name}-seed3-trace1.json").read_text())
        assert result["coverage"]
        for cov in result["coverage"].values():
            assert 0 <= cov["unattributed_s"] < cov["span_s"]
        if name == "scene-large":
            # The encode operation's layer self times add up to its span, up
            # to what the wrappers themselves cost.
            cov = result["coverage"]["encode"]
            assert cov["unattributed_s"] <= cov["wrapper_cost_s"]
        assert (tmp_path / f"spans-{name}-seed3-trace1.csv").stat().st_size > 0
    metrics = summary["metrics"]
    # The codec layers run where expected and rate never runs on clouds-small.
    assert metrics["scene-large/container.encode_container.calls"]["value"] == 1
    assert metrics["scene-large/rate.estimate_bits.symbols"]["value"] > 0
    assert metrics["clouds-small/rate.estimate_bits.calls"]["value"] == 0
    assert metrics["sandbox-ablation/sandbox.step.calls"]["value"] == 2 * 200
    assert metrics["cli-files/cli.encode.calls"]["value"] == 2
    assert metrics["cli-files/container.read_anchor_file.calls"]["value"] == 2


def test_tracer_wraps_every_binding_and_restores_it():
    original = voxgs.rlc.rlc_encode
    callback = voxgs.cli.main.commands["encode"].callback
    t = tracer.Tracer()
    t.install()
    try:
        for holder in (voxgs, voxgs.rlc, voxgs.rate, voxgs.container):
            assert holder.rlc_encode._perfbench_original is original
        assert voxgs.cli.main.commands["encode"].callback._perfbench_original is callback
        t.root("op", voxgs.rlc_encode, [1, 1, 2])
        voxgs.rlc_encode([3])  # outside an operation: not recorded
    finally:
        t.uninstall()
    assert tracer.installed_wrappers() == []
    assert voxgs.rate.rlc_encode is original
    assert [s[0] for s in t.spans] == ["bench.op", "rlc.rlc_encode", "rlc.varint_pack"]
    assert t.aggregate()["rlc.varint_pack"][3] == 5  # count + two (run, value) pairs


def test_failed_check_counts_and_fails_the_run(capsys, tmp_path, monkeypatch):
    real = voxgs.decode_container

    def lossy(blob):
        cloud = real(blob)
        return voxgs.AnchorCloud(
            positions=cloud.positions,
            offsets=cloud.offsets,
            features=cloud.features + 1,
            scalings=cloud.scalings,
            layout=cloud.layout,
            quant=cloud.quant,
            bbox=cloud.bbox,
        )

    monkeypatch.setattr(voxgs, "decode_container", lossy)
    code, lines, summary = bench(capsys, tmp_path, workload="scene-large")
    assert code == 1
    assert not summary["correct"] and summary["failed"] > 0
    assert summary["attempted"] > summary["failed"]
    assert any("round trip not bit-exact" in line for line in lines)


def test_golden_digest_mismatch_fails(capsys, tmp_path, monkeypatch):
    golden = json.loads(harness.GOLDEN_PATH.read_text())
    golden["smoke"]["clouds-small"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    monkeypatch.setattr(harness, "GOLDEN_PATH", path)
    code, lines, summary = bench(capsys, tmp_path, "--seed", "5", workload="clouds-small")
    assert code == 1 and summary["failed"] >= 1
    assert any("differs from golden" in line for line in lines)


def test_spec_matches_harness():
    spec = harness.load_spec()
    per_layer = [m["name"] for m in spec["per_layer"]]
    expected = []
    for name in tracer.span_names():
        expected += [f"{name}.calls", f"{name}.total_s", f"{name}.self_s"]
        if name in tracer.COUNTS:
            expected.append(f"{name}.{tracer.COUNTS[name][0]}")
    assert per_layer == expected + [
        "trace.overhead_s",
        "trace.unattributed_s",
        "trace.wrapper_cost_s",
    ]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_layer_map_names_exist():
    spec = harness.load_spec()
    per_layer = [m["name"] for m in spec["per_layer"]]
    layers = json.loads((harness.BENCH_DIR / "layers.json").read_text())
    for entry in layers["predictions"]:
        for pattern in entry["layer"]:
            assert fnmatch.filter(per_layer, pattern), pattern
        for workload, metrics in entry["moves"].items():
            assert set(metrics) <= set(NAMED[workload]), (workload, metrics)
