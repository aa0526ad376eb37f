"""Size facts come from the container: its section table and the decoder's parse.

analyze, `voxgs encode` and `voxgs sweep` read the sizes that the header and
the channel streams already hold, and re-encode nothing. For the canonical
containers the encoder writes, that gives the same numbers as a re-encoding
(pinned below); for a container that decodes but is not canonical it gives
the bytes actually in the file.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import voxgs.container as container
from voxgs import (
    AttributeLayout,
    QuantParams,
    decode_container,
    encode_attributes,
    encode_container,
    generate_synthetic,
    quantize_cloud,
    sort_by_morton,
    write_anchor_file,
)
from voxgs.cli import main
from voxgs.container import analyze_container, section_bits
from voxgs.errors import CorruptStreamError
from voxgs.rlc import decode_groups, rlc_encode, varint_pack, varint_unpack_all
from tests.conftest import assemble_container, random_cloud
from tests.test_golden import GOLDEN

# analyze_container's to_kv()/to_text() and `voxgs encode` stdout for the four
# GOLDEN containers, as printed when analyze re-encoded the container to
# measure it. The output path in the encode line is written as OUT.
REPORTS = json.loads((Path(__file__).parent / "golden_reports.json").read_text())
KEYS = ["P", "O", "A", "S", "MLP"]


def _golden(seed, anchors, k, m, q_p, mlp_bytes):
    fcloud = generate_synthetic(
        seed, anchors, AttributeLayout(k, m), run_bias=0.5, mlp_bytes=mlp_bytes
    )
    return fcloud, encode_container(quantize_cloud(fcloud, QuantParams(q_p=q_p)))


def _sections(blob):
    """The four section payloads and the MLP blob, located by section_bits."""
    sizes = [bits // 8 for bits in section_bits(blob).values()]
    pos = len(blob) - sum(sizes)
    out = []
    for size in sizes:
        out.append(blob[pos : pos + size])
        pos += size
    return out


@pytest.mark.parametrize("golden,pinned", zip(GOLDEN, REPORTS))
def test_reports_match_pinned_output(golden, pinned, tmp_path):
    seed, anchors, k, m, q_p, mlp_bytes = golden[:6]
    assert pinned["seed"] == seed
    fcloud, blob = _golden(seed, anchors, k, m, q_p, mlp_bytes)
    report = analyze_container(blob)
    assert report.to_kv() == pinned["kv"]
    assert report.to_text() == pinned["text"]

    src, out = tmp_path / "scene.txt", tmp_path / "scene.vxgs"
    write_anchor_file(src, fcloud)
    result = CliRunner().invoke(main, ["encode", str(src), str(out), "--qp", str(q_p)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == blob
    assert result.output.replace(str(out), "OUT") == pinned["encode"]


class TestSectionBits:
    def test_keys_and_sizes_account_for_the_file(self):
        for seed in range(20):
            cloud = random_cloud(np.random.default_rng(seed))
            blob = encode_container(cloud)
            bits = section_bits(blob)
            assert list(bits) == KEYS
            payloads, group_bits = encode_attributes(sort_by_morton(cloud))
            assert [bits[key] for key in ("O", "A", "S")] == list(group_bits.values())
            assert bits["MLP"] == 8 * len(cloud.mlp_blob)
            assert bits == analyze_container(blob).actual_bits

    def test_reads_only_the_header(self):
        cloud = random_cloud(np.random.default_rng(1), n=30)
        sections = _sections(encode_container(cloud))
        garbage = [b"\xff" * len(sec) for sec in sections[:4]]
        blob = assemble_container(
            cloud.anchor_count, cloud.quant.q_p, cloud.layout.k, cloud.layout.m, garbage
        )
        assert section_bits(blob)["A"] == 8 * len(sections[2])
        with pytest.raises(CorruptStreamError):
            decode_container(blob)

    def test_keeps_header_checks(self):
        blob = encode_container(random_cloud(np.random.default_rng(2), n=30))
        for bad in (b"", blob[:10], blob + b"\x00", b"XXXX" + blob[4:]):
            with pytest.raises(CorruptStreamError):
                section_bits(bad)


def test_assemble_container_matches_encoder():
    cloud = random_cloud(np.random.default_rng(3), n=40)
    blob = encode_container(cloud)
    *sections, mlp = _sections(blob)
    rebuilt = assemble_container(
        cloud.anchor_count, cloud.quant.q_p, cloud.layout.k, cloud.layout.m, sections, mlp
    )
    assert rebuilt == blob


def test_channel_bytes_match_each_channel_stream():
    for seed in range(20):
        cloud = sort_by_morton(random_cloud(np.random.default_rng(seed)))
        payloads, _ = encode_attributes(cloud)
        matrices, channel_bytes = decode_groups(payloads, cloud.layout, cloud.anchor_count)
        for name, payload in payloads.items():
            mat = cloud.group(name)
            assert np.array_equal(matrices[name], mat)
            expected = [len(rlc_encode(mat[:, c]).serialized) for c in range(mat.shape[1])]
            assert list(channel_bytes[name]) == expected
            assert channel_bytes[name].sum() == len(payload)


def test_split_run_counts_the_bytes_in_the_file():
    """A run split in two equal-valued runs decodes the same and costs more bytes."""
    _, blob = _golden(*GOLDEN[1][:6])
    geometry, offsets, features, scalings, mlp = _sections(blob)
    slots = varint_unpack_all(offsets)
    # Channel 0 is [count, run, value, run, value, ...]; split its first run
    # longer than one anchor.
    j = next(j for j in range(1, slots.size, 2) if slots[j] >= 2)
    assert slots[1:j:2].sum() < slots[0]  # still inside channel 0
    split = np.insert(slots, j + 2, [slots[j] - 1, slots[j + 1]])
    split[j] = 1
    offsets_split = varint_pack(split)
    assert len(offsets_split) > len(offsets)

    cloud = decode_container(blob)
    data = assemble_container(
        cloud.anchor_count, 1024, 10, 50, [geometry, offsets_split, features, scalings], mlp
    )
    assert decode_container(data).equals(cloud)
    report = analyze_container(data)
    assert report.actual_bits["O"] == 8 * len(offsets_split)
    assert report.actual_bits == section_bits(data)
    assert analyze_container(blob).actual_bits["O"] == 8 * len(offsets)


def test_analyze_calls_no_encoder(monkeypatch):
    _, blob = _golden(*GOLDEN[2][:6])
    expected = analyze_container(blob).to_kv()

    def forbidden(*args, **kwargs):
        raise AssertionError("analyze must not encode")

    for name in ("encode_attributes", "octree_encode", "rlc_encode"):
        monkeypatch.setattr(container, name, forbidden)
    assert analyze_container(blob).to_kv() == expected


def test_analyze_parses_the_header_once(monkeypatch):
    _, blob = _golden(*GOLDEN[2][:6])
    expected = analyze_container(blob).to_kv()
    calls = []
    parse = container._parse_header

    def counted(data):
        calls.append(1)
        return parse(data)

    monkeypatch.setattr(container, "_parse_header", counted)
    assert analyze_container(blob).to_kv() == expected
    assert len(calls) == 1


def test_cli_encode_neither_decodes_nor_analyzes(monkeypatch, tmp_path):
    fcloud, blob = _golden(*GOLDEN[2][:6])
    src, out = tmp_path / "scene.txt", tmp_path / "scene.vxgs"
    write_anchor_file(src, fcloud)

    def forbidden(*args, **kwargs):
        raise AssertionError("encode must read sizes from the header")

    for name in ("_decode", "decode_container", "analyze_container"):
        monkeypatch.setattr(container, name, forbidden)
    result = CliRunner().invoke(main, ["encode", str(src), str(out), "--qp", "200"])
    assert result.exit_code == 0, result.output
    assert result.output.replace(str(out), "OUT") == REPORTS[2]["encode"]
