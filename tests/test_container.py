import tracemalloc

import numpy as np
import pytest

from voxgs import (
    AttributeLayout,
    QuantParams,
    decode_container,
    dequantize_cloud,
    encode_container,
    generate_synthetic,
    quantize_cloud,
    read_anchor_file,
    write_anchor_file,
)
from voxgs.container import MAGIC, analyze_container, quantize_cloud_kept, repeat_probability
from voxgs.errors import AnchorFileError, CorruptStreamError
from voxgs.geometry import sort_by_morton
from voxgs.quantize import quantize_positions
from voxgs.rlc import rlc_encode
from tests.conftest import assemble_container, random_cloud

BOX = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


def _float_cloud(seed=0, anchors=200, k=2, m=4, **kwargs):
    return generate_synthetic(
        seed=seed, anchors=anchors, layout=AttributeLayout(k=k, m=m), **kwargs
    )


class TestQuantizeCloud:
    def test_first_wins_on_duplicates(self):
        from voxgs import FloatAnchorCloud

        layout = AttributeLayout(k=1, m=1)
        fcloud = FloatAnchorCloud(
            positions=np.array([[0.5, 0.5, 0.5], [0.5001, 0.5, 0.5]]),
            offsets=np.array([[1.0, 1.0, 1.0], [9.0, 9.0, 9.0]]),
            features=np.array([[2.0], [8.0]]),
            scalings=np.tile([[0.0, 0, 0, 0, 0, 0]], (2, 1)),
            layout=layout,
            bbox=BOX,
        )
        cloud = quantize_cloud(fcloud, QuantParams(q_p=16))
        assert cloud.anchor_count == 1
        assert cloud.features[0, 0] == 2  # first input row survives

    def test_kept_rows_are_the_first_wins_map(self):
        rng = np.random.default_rng(80)
        for case in range(200):
            fcloud = _float_cloud(seed=case, anchors=int(rng.integers(0, 80)))
            q_p = int(rng.choice([1, 2, 4, 16, 256]))
            cloud, kept = quantize_cloud_kept(fcloud, QuantParams(q_p=q_p))
            _, dup = quantize_positions(fcloud.positions, q_p, fcloud.bbox)
            first = np.full(cloud.anchor_count, fcloud.anchor_count, dtype=np.int64)
            np.minimum.at(first, dup, np.arange(fcloud.anchor_count))
            assert np.array_equal(kept, first)
            assert cloud.equals(quantize_cloud(fcloud, QuantParams(q_p=q_p)))

    def test_round_trip_attributes(self):
        fcloud = _float_cloud(seed=1)
        quant = QuantParams(q_p=256)
        cloud = quantize_cloud(fcloud, quant)
        deq = dequantize_cloud(cloud)
        again = quantize_cloud(deq, quant)
        assert again.equals(cloud)

    def test_dequantize_positions_in_bbox(self):
        cloud = quantize_cloud(_float_cloud(seed=2), QuantParams(q_p=64))
        deq = dequantize_cloud(cloud)
        assert np.all(deq.positions >= cloud.bbox[0])
        assert np.all(deq.positions <= cloud.bbox[1])


class TestContainerRoundTrip:
    def test_random_clouds(self):
        rng = np.random.default_rng(70)
        for _ in range(30):
            cloud = random_cloud(rng)
            decoded = decode_container(encode_container(cloud))
            assert decoded.equals(sort_by_morton(cloud))

    def test_empty_cloud(self):
        cloud = random_cloud(np.random.default_rng(71), n=0)
        decoded = decode_container(encode_container(cloud))
        assert decoded.anchor_count == 0
        assert decoded.equals(cloud)

    def test_mlp_blob_carried(self):
        cloud = random_cloud(np.random.default_rng(72), n=20, mlp=b"\x00\x01\xfehello")
        assert decode_container(encode_container(cloud)).mlp_blob == b"\x00\x01\xfehello"

    def test_byte_determinism(self):
        cloud = random_cloud(np.random.default_rng(73), n=100)
        assert encode_container(cloud) == encode_container(cloud)

    def test_invalid_cloud_rejected(self):
        from voxgs import AnchorCloud

        cloud = random_cloud(np.random.default_rng(74), n=5, depth=2)
        bad = AnchorCloud(
            positions=np.vstack([cloud.positions, cloud.positions[:1]]),
            offsets=np.vstack([cloud.offsets, cloud.offsets[:1]]),
            features=np.vstack([cloud.features, cloud.features[:1]]),
            scalings=np.vstack([cloud.scalings, cloud.scalings[:1]]),
            layout=cloud.layout,
            quant=cloud.quant,
            bbox=cloud.bbox,
        )
        with pytest.raises(ValueError):
            encode_container(bad)

    def test_header_accounts_for_every_byte(self):
        cloud = random_cloud(np.random.default_rng(75), n=50)
        blob = encode_container(cloud)
        # Appending a byte must break the length identity check.
        with pytest.raises(CorruptStreamError):
            decode_container(blob + b"\x00")


class TestDecodeErrors:
    def _blob(self):
        return encode_container(random_cloud(np.random.default_rng(76), n=40))

    def test_bad_magic(self):
        blob = bytearray(self._blob())
        blob[0] ^= 0xFF
        with pytest.raises(CorruptStreamError, match="magic"):
            decode_container(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(self._blob())
        blob[4] = 99
        with pytest.raises(CorruptStreamError, match="version"):
            decode_container(bytes(blob))

    def test_truncated(self):
        blob = self._blob()
        for cut in (3, 10, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CorruptStreamError):
                decode_container(blob[:cut])

    def test_empty_input(self):
        with pytest.raises(CorruptStreamError):
            decode_container(b"")

    def test_magic_constant(self):
        assert self._blob()[:4] == MAGIC == b"VXGS"

    def test_layout_beyond_bound_is_corrupt(self):
        sections = [rlc_encode([]).serialized] * 4
        with pytest.raises(CorruptStreamError, match="must not exceed"):
            decode_container(assemble_container(0, 64, 2**16 + 1, 1, sections))

    def test_hostile_geometry_run_rejected_with_small_peak(self):
        # One anchor on a 2^21 grid, but a geometry section that is one run of
        # 299,593 occupancy bytes 0xFF: seven full octree levels.
        geometry = rlc_encode(np.full(299_593, 255)).serialized
        attributes = [rlc_encode([0]).serialized * dims for dims in (3, 1, 6)]
        data = assemble_container(1, 2**21, 1, 1, [geometry, *attributes])
        assert len(data) < 120
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError):
                decode_container(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_fuzz_random_bytes(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            data = bytes(rng.integers(0, 256, size=rng.integers(0, 120), dtype=np.uint8))
            try:
                decode_container(data)
            except CorruptStreamError:
                pass

    def test_fuzz_mutations(self):
        rng = np.random.default_rng(78)
        blob = np.frombuffer(self._blob(), dtype=np.uint8)
        for _ in range(1000):
            mutated = blob.copy()
            idx = rng.integers(0, mutated.size, size=rng.integers(1, 6))
            mutated[idx] = rng.integers(0, 256, size=idx.size)
            try:
                decode_container(mutated.tobytes())
            except CorruptStreamError:
                pass


class TestAnchorFile:
    def test_round_trip(self, tmp_path):
        fcloud = _float_cloud(seed=3, anchors=50, mlp_bytes=12)
        path = tmp_path / "cloud.txt"
        write_anchor_file(path, fcloud)
        back = read_anchor_file(path)
        assert np.array_equal(back.positions, fcloud.positions)
        assert np.array_equal(back.offsets, fcloud.offsets)
        assert np.array_equal(back.features, fcloud.features)
        assert np.array_equal(back.scalings, fcloud.scalings)
        assert back.mlp_blob == fcloud.mlp_blob

    def test_row_width_arithmetic(self, tmp_path):
        path = tmp_path / "two.txt"
        row = " ".join(["0.5"] * 14)  # 3 + 3*1 + 2 + 6 for k=1, m=2
        path.write_text(
            "voxgs-anchors 1\nanchors 2\nk 1\nm 2\nbbox 0 0 0 1 1 1\n" + row + "\n" + row + "\n"
        )
        cloud = read_anchor_file(path)
        assert cloud.anchor_count == 2
        assert cloud.layout.total_dims + 3 == 14

    def test_nan_cited_with_line(self, tmp_path):
        path = tmp_path / "nan.txt"
        row = " ".join(["0.5"] * 14)
        bad = " ".join(["0.5"] * 13 + ["nan"])
        path.write_text(
            "voxgs-anchors 1\nanchors 2\nk 1\nm 2\nbbox 0 0 0 1 1 1\n" + row + "\n" + bad + "\n"
        )
        with pytest.raises(AnchorFileError) as exc_info:
            read_anchor_file(path)
        assert exc_info.value.line == 7

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text(
            "voxgs-anchors 1\nanchors 1\nk 1\nm 2\nbbox 0 0 0 1 1 1\n0.5 0.5 0.5\n"
        )
        with pytest.raises(AnchorFileError) as exc_info:
            read_anchor_file(path)
        assert "columns" in str(exc_info.value)
        assert exc_info.value.line == 6

    def test_layout_beyond_bound_rejected(self, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("voxgs-anchors 1\nanchors 1\nk 1000000000\nm 2\nbbox 0 0 0 1 1 1\n0.5\n")
        with pytest.raises(AnchorFileError, match="must not exceed"):
            read_anchor_file(path)

    def test_short_rows_under_wide_header_rejected_before_allocation(self, tmp_path):
        # 1000 one-value rows under a header of 60000 * 3 + 1 + 9 columns.
        path = tmp_path / "short_rows.txt"
        path.write_text(
            "voxgs-anchors 1\nanchors 1000\nk 60000\nm 1\nbbox 0 0 0 1 1 1\n" + "0.5\n" * 1000
        )
        tracemalloc.start()
        try:
            with pytest.raises(AnchorFileError, match="columns") as exc_info:
                read_anchor_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc_info.value.line == 6
        assert peak < 1 << 20

    def test_missing_signature(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_text("hello\n")
        with pytest.raises(AnchorFileError):
            read_anchor_file(path)

    def test_missing_header_field(self, tmp_path):
        path = tmp_path / "hdr.txt"
        path.write_text("voxgs-anchors 1\nanchors 1\nk 1\nbbox 0 0 0 1 1 1\n")
        with pytest.raises(AnchorFileError, match="'m'"):
            read_anchor_file(path)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "count.txt"
        row = " ".join(["0.5"] * 14)
        path.write_text("voxgs-anchors 1\nanchors 2\nk 1\nm 2\nbbox 0 0 0 1 1 1\n" + row + "\n")
        with pytest.raises(AnchorFileError, match="expected 2"):
            read_anchor_file(path)

    def test_pipeline_round_trip(self, tmp_path):
        fcloud = _float_cloud(seed=4, anchors=10_000, k=2, m=6)
        path = tmp_path / "big.txt"
        write_anchor_file(path, fcloud)
        parsed = read_anchor_file(path)
        cloud = quantize_cloud(parsed, QuantParams(q_p=512))
        decoded = decode_container(encode_container(cloud))
        assert decoded.equals(sort_by_morton(cloud))


class TestGenerateSynthetic:
    def test_determinism(self):
        a = _float_cloud(seed=5)
        b = _float_cloud(seed=5)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.features, b.features)

    def test_run_bias_one_constant_channels(self):
        cloud = _float_cloud(seed=6, run_bias=1.0)
        for mat in (cloud.offsets, cloud.features, cloud.scalings):
            assert np.all(mat == mat[0])

    def test_run_bias_sweep_bits_decrease(self):
        sizes = []
        for bias in (0.0, 0.5, 0.9):
            total = 0
            for seed in range(3):
                cloud = quantize_cloud(
                    _float_cloud(seed=seed, anchors=1500, run_bias=bias),
                    QuantParams(q_p=256),
                )
                total += len(encode_container(cloud))
            sizes.append(total)
        assert sizes[0] > sizes[1] > sizes[2]

    def test_invalid_run_bias(self):
        with pytest.raises(ValueError):
            repeat_probability(1.5)
        with pytest.raises(ValueError):
            _float_cloud(run_bias=-0.1)

    def test_negative_anchor_count(self):
        with pytest.raises(ValueError):
            _float_cloud(anchors=-1)

    def test_empty(self):
        cloud = _float_cloud(seed=7, anchors=0)
        assert cloud.anchor_count == 0


class TestAnalyzeContainer:
    def test_report_shape(self):
        blob = encode_container(
            quantize_cloud(_float_cloud(seed=8, anchors=400, mlp_bytes=64), QuantParams(q_p=128))
        )
        report = analyze_container(blob)
        assert set(report.actual_bits) == {"P", "O", "A", "S", "MLP"}
        assert sum(report.percentages.values()) == pytest.approx(100.0, abs=0.1)
        assert report.actual_bits["MLP"] == 64 * 8
        assert report.alpha > 0
        assert report.total_bits > 0

    def test_empty_mlp_share_zero(self):
        blob = encode_container(
            quantize_cloud(_float_cloud(seed=9, anchors=100), QuantParams(q_p=64))
        )
        report = analyze_container(blob)
        assert report.percentages["MLP"] == 0.0
