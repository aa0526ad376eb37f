import dataclasses
import errno
import io
import os
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from voxgs import _pool
from voxgs import container as cont
from voxgs import (
    AnchorCloud,
    AttributeLayout,
    FloatAnchorCloud,
    QuantParams,
    decode_container,
    dequantize_cloud,
    encode_container,
    estimate_bits,
    fit_laplace,
    generate_synthetic,
    quantize_cloud,
    read_anchor_file,
    write_anchor_file,
)
from voxgs.container import MAGIC, analyze_container, quantize_cloud_kept, repeat_probability
from voxgs.errors import AnchorFileError, CorruptStreamError
from voxgs.geometry import sort_by_morton
from voxgs.model import GROUPS, validate
from voxgs.quantize import quantize_positions
from voxgs.rlc import MAX_ELEMENTS, rlc_encode
from tests.conftest import assemble_container, random_cloud
from tests.test_golden import GOLDEN
from tests.test_sizes import _golden

BOX = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


def _wide_box_cloud(half):
    """Five anchors on a 1024 grid inside the box [-half, half]^3."""
    rng = np.random.default_rng(15)
    return AnchorCloud(
        positions=[[0, 0, 0], [1023, 1023, 1023], [5, 900, 17], [512, 3, 3], [7, 7, 7]],
        offsets=rng.integers(-4, 5, (5, 3)),
        features=rng.integers(-4, 5, (5, 2)),
        scalings=np.zeros((5, 6)),
        layout=AttributeLayout(k=1, m=2),
        quant=QuantParams(q_p=1024),
        bbox=np.array([[-half] * 3, [half] * 3]),
    )


def _splice_box(blob, half):
    """blob with its box [-0.5, 0.5]^3 replaced by [-half, half]^3."""
    old = struct.pack("<6d", *[-0.5] * 3, *[0.5] * 3)
    assert blob.count(old) == 1
    return blob.replace(old, struct.pack("<6d", *[-half] * 3, *[half] * 3))


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

    @pytest.mark.parametrize("task_elements", [None, 64], ids=["one-span", "many-spans"])
    def test_groups_are_column_major(self, monkeypatch, task_elements):
        # The container's channel-major order, as decoded groups have it, so
        # encoding reads each channel without a transposing copy.
        if task_elements:
            monkeypatch.setattr(_pool, "_TASK_ELEMENTS", task_elements)
        fcloud = _float_cloud(seed=3, anchors=300, k=3, m=8)
        cloud = quantize_cloud(fcloud, QuantParams(q_p=256))
        assert (len(_pool.spans(cloud.anchor_count, 8)) > 1) == bool(task_elements)
        decoded = decode_container(encode_container(cloud))
        for name in GROUPS:
            assert cloud.group(name).flags.f_contiguous, name
            assert decoded.group(name).flags.f_contiguous, name

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

    @pytest.mark.parametrize("n", [0, 20])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_bbox_rejected(self, n, value):
        cloud = random_cloud(np.random.default_rng(77), n=n)
        bbox = cloud.bbox.copy()
        bbox[1, 0] = value
        with pytest.raises(ValueError, match="bounding box has non-finite values"):
            encode_container(dataclasses.replace(cloud, bbox=bbox))

    # At +-1e305 the extent is finite but extent * q_p is not; at +-1.7e308
    # the extent itself overflows.
    @pytest.mark.parametrize("half", [1.7e308, 1e305])
    def test_box_whose_extent_times_q_p_overflows_rejected(self, half):
        cloud = _wide_box_cloud(half)
        finding = "bounding box extent times q_p=1024 overflows float64"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate(cloud).findings == [finding]
            with pytest.raises(ValueError, match=f"^invalid cloud: {finding}$"):
                encode_container(cloud)

    # Inverted on x, flat on x, and inverted by more than float64 spans, which
    # also reads as overflow: the extent finding is the one reported.
    @pytest.mark.parametrize(
        "lo,hi", [(1, 0), (0, 0), (1e308, -1e308)], ids=["inverted", "flat", "inverted-huge"]
    )
    def test_box_without_positive_extent_rejected(self, lo, hi):
        bbox = np.array([[lo, 0.0, 0.0], [hi, 1.0, 1.0]])
        cloud = dataclasses.replace(_wide_box_cloud(0.5), bbox=bbox)
        finding = "bounding box must have positive extent on every axis"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate(cloud).findings == [finding]
            with pytest.raises(ValueError, match=f"^invalid cloud: {finding}$"):
                encode_container(cloud)

    @pytest.mark.parametrize(
        "anchors,q_p", [(0, 256), (1, 256), (50, 1024), (400, 256), (2000, 4), (3000, 2)]
    )
    def test_quantized_clouds_decode_to_themselves(self, anchors, q_p):
        # Quantized clouds come out in the decoder's Morton order, whatever the
        # input row order; q_p of 2 and 4 pile hundreds of anchors on each voxel.
        for seed in range(3):
            fcloud = _float_cloud(seed=seed, anchors=anchors)
            order = np.random.default_rng(seed).permutation(anchors)
            shuffled = dataclasses.replace(
                fcloud, **{f: getattr(fcloud, f)[order] for f in ("positions", *GROUPS)}
            )
            cloud = quantize_cloud(shuffled, QuantParams(q_p=q_p))
            assert decode_container(encode_container(cloud)).equals(cloud)

    def test_attribute_volume_beyond_decoder_limit_rejected(self):
        # 257 x 262150 is 67,372,550 elements, just over MAX_ELEMENTS. The
        # groups are zero pages that the check must not touch.
        layout = AttributeLayout(k=1 << 16, m=1 << 16)
        n = 257
        cloud = AnchorCloud(
            positions=np.column_stack([np.arange(n), np.zeros(n), np.zeros(n)]).astype(np.int64),
            **{g: np.zeros((n, layout.dims_for(g)), dtype=np.int32) for g in GROUPS},
            layout=layout,
            quant=QuantParams(q_p=512),
            bbox=BOX,
        )
        assert n * layout.total_dims > MAX_ELEMENTS
        with pytest.raises(ValueError, match="attribute volume exceeds the decoder limit"):
            encode_container(cloud)

    def test_occupancy_beyond_decoder_limit_rejected(self, monkeypatch):
        # With the limit at 1000, 60 scattered anchors at depth 21 keep their
        # attribute volume (600) within it but need about 1100 occupancy bytes,
        # more than the decoder's min(anchor_count * depth, limit) allows.
        cloud = random_cloud(
            np.random.default_rng(78), n=60, depth=21, layout=AttributeLayout(k=1, m=1)
        )
        blob = encode_container(cloud)
        monkeypatch.setattr(cont, "MAX_ELEMENTS", 1000)
        with pytest.raises(CorruptStreamError):
            decode_container(blob)
        with pytest.raises(ValueError, match="octree occupancy exceeds the decoder limit"):
            encode_container(cloud)

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

    @pytest.mark.parametrize("byte", [-1, 256, -(2**40), 2**40])
    def test_occupancy_byte_out_of_range_is_corrupt(self, byte):
        attributes = [rlc_encode([0]).serialized * dims for dims in (3, 1, 6)]
        data = assemble_container(1, 2, 1, 1, [rlc_encode([byte]).serialized, *attributes])
        with pytest.raises(CorruptStreamError, match="^occupancy byte out of range$"):
            decode_container(data)

    def test_inverted_box_still_decodes(self):
        # The encoder refuses such a box, but an older one wrote it, and the
        # format keeps every container it wrote decodable.
        cloud = _wide_box_cloud(0.5)
        inverted = _splice_box(encode_container(cloud), -0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decoded = decode_container(inverted)
            analyze_container(inverted)
        assert np.array_equal(decoded.bbox, [[0.5] * 3, [-0.5] * 3])
        assert decoded.equals(dataclasses.replace(sort_by_morton(cloud), bbox=decoded.bbox))

    @pytest.mark.parametrize("half", [1.7e308, 1e305])
    def test_box_whose_extent_times_q_p_overflows_is_corrupt(self, half):
        # The encoder refuses such a box, but an older one wrote it: splice
        # it into a container whose own box is the unit cube.
        blob = encode_container(_wide_box_cloud(0.5))
        wide = _splice_box(blob, half)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decode_container(_splice_box(blob, 8e304)).anchor_count == 5
            for parse in (decode_container, analyze_container):
                with pytest.raises(
                    CorruptStreamError,
                    match="^bounding box extent times q_p=1024 overflows float64$",
                ):
                    parse(wide)

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

    def test_rows_written_as_17_significant_digits(self, tmp_path):
        edge = [0.0, -0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308, 0.1, -1 / 3]
        layout = AttributeLayout(k=1, m=2)
        od, m = layout.offset_dims, layout.m
        row = np.resize(edge, 3 + layout.total_dims)
        for rows in (row[None, :], np.vstack([row, -row[::-1], row]), row[None, :][:0]):
            fcloud = FloatAnchorCloud(
                positions=rows[:, :3],
                offsets=rows[:, 3 : 3 + od],
                features=rows[:, 3 + od : 3 + od + m],
                scalings=rows[:, 3 + od + m :],
                layout=layout,
                bbox=BOX,
            )
            path = tmp_path / "edge.txt"
            write_anchor_file(path, fcloud)
            lines = path.read_text().splitlines()
            want = [" ".join(f"{v:.17g}" for v in r) for r in rows]
            assert lines[len(lines) - len(want) :] == want
            assert lines[4] == "bbox 0 0 0 1 1 1"
            assert len(lines) == 5 + len(want)

    def test_unreadable_file_names_its_path(self, tmp_path, monkeypatch):
        path = tmp_path / "scene.txt"
        write_anchor_file(path, _float_cloud(anchors=3))

        def failing_open(*args, **kwargs):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(cont, "open", failing_open, raising=False)
        message = f"cannot read {path}: {os.strerror(errno.EIO)}"
        with pytest.raises(AnchorFileError, match=f"^{re.escape(message)}$"):
            read_anchor_file(path)

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

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_bbox_rejected_at_its_line(self, tmp_path, value):
        path = tmp_path / "bbox.txt"
        row = " ".join(["0.5"] * 14)
        path.write_text(f"voxgs-anchors 1\nanchors 1\nk 1\nm 2\nbbox 0 0 0 {value} 1 1\n{row}\n")
        with pytest.raises(AnchorFileError, match="bbox values must be finite") as exc_info:
            read_anchor_file(path)
        assert exc_info.value.line == 5

    @pytest.mark.parametrize("value", ["--5", "\u00b2", "1_000", "+5", "5.0"])
    def test_integer_field_takes_only_ascii_digits(self, tmp_path, value):
        path = tmp_path / "int.txt"
        path.write_text(
            f"voxgs-anchors 1\nanchors {value}\nk 1\nm 2\nbbox 0 0 0 1 1 1\n", encoding="utf-8"
        )
        with pytest.raises(AnchorFileError, match="anchors needs one integer value") as exc_info:
            read_anchor_file(path)
        assert exc_info.value.line == 2

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


def _edge_rows(n):
    """n rows of 23 columns (k=1, m=11): one column per edge case, the rest repeating."""
    rng = np.random.default_rng(n)
    rows = rng.integers(-3, 4, size=(n, 23)) / 7  # few distinct values, as in a decoded file
    rows[:, 0] = rng.standard_normal(n) * 1e3  # every value distinct
    rows[:, 1] = 0.1  # every value equal
    rows[:, 4] = np.resize([0.0, -0.0, 0.0, -0.0, -0.0], n)  # both zeros in every span
    rows[:, 9] = np.resize([np.nan, np.inf, -np.inf, 1.5, -np.nan, -np.inf], n)
    rows[:, 22] = np.resize([5e-324, -1.7976931348623157e308, -0.0, 1 / 3], n)  # last column
    return rows


class TestAnchorFileBytes:
    """write_anchor_file's rows are byte for byte what np.savetxt writes."""

    LAYOUT = AttributeLayout(k=1, m=11)

    def _assert_savetxt_bytes(self, path, fcloud):
        write_anchor_file(path, fcloud)
        rows = np.hstack([fcloud.positions, fcloud.offsets, fcloud.features, fcloud.scalings])
        ref = io.BytesIO()
        np.savetxt(ref, rows, fmt="%.17g")
        data = path.read_bytes()
        assert data.endswith(ref.getvalue())
        assert data[: len(data) - len(ref.getvalue())].count(b"\n") == 5 + bool(fcloud.mlp_blob)

    # 23 columns: a task size of 23 elements makes spans of 1 row, 64 of 2 rows.
    @pytest.mark.parametrize("task_elements", [23, 64, None])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 50])
    def test_edge_columns(self, tmp_path, monkeypatch, task_elements, n):
        if task_elements is not None:
            monkeypatch.setattr(_pool, "_TASK_ELEMENTS", task_elements)
        rows = _edge_rows(n)
        od, m = self.LAYOUT.offset_dims, self.LAYOUT.m
        fcloud = FloatAnchorCloud(
            positions=rows[:, :3],
            offsets=rows[:, 3 : 3 + od],
            features=rows[:, 3 + od : 3 + od + m],
            scalings=rows[:, 3 + od + m :],
            layout=self.LAYOUT,
            bbox=BOX,
            mlp_blob=b"\x01\xfe",
        )
        self._assert_savetxt_bytes(tmp_path / "edge.txt", fcloud)

    def test_synthetic_and_decoded_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_pool, "_TASK_ELEMENTS", 1000)  # 11 rows a span at k=10, m=50
        scene = _float_cloud(seed=2, anchors=300, k=10, m=50)
        decoded = dequantize_cloud(decode_container(encode_container(
            quantize_cloud(scene, QuantParams(q_p=64, q_o=4, q_a=8, q_s=16))
        )))
        for name, fcloud in (("scene", scene), ("decoded", decoded)):
            self._assert_savetxt_bytes(tmp_path / f"{name}.txt", fcloud)

    def test_peak_memory_bounded_by_spans(self, tmp_path):
        # One object per value of the file would be as large as its float64
        # values; the spans keep the peak under half of that.
        scene = _float_cloud(seed=0, anchors=20_000, k=10, m=50, run_bias=0.5)
        decoded = dequantize_cloud(decode_container(encode_container(
            quantize_cloud(scene, QuantParams(q_p=1024, q_o=1, q_a=1, q_s=8))
        )))
        values = decoded.anchor_count * (3 + decoded.layout.total_dims) * 8
        tracemalloc.start()
        try:
            write_anchor_file(tmp_path / "decoded.txt", decoded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values / 2


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

    @pytest.mark.parametrize("golden", GOLDEN[:3])
    def test_estimates_run_in_channel_major_order(self, monkeypatch, golden):
        # Each group's estimate is taken over its channels one after another,
        # then each channel's, in the container's own order, bit for bit.
        blob = _golden(*golden[:6])[1]
        cloud = decode_container(blob)
        groups, expected = [], []
        for name in GROUPS:
            cols = cloud.group(name).T
            groups.append(estimate_bits(fit_laplace(cols.ravel()), cols.ravel()))
            expected += [groups[-1]] + [estimate_bits(fit_laplace(col), col) for col in cols]
        calls = []

        def spy(model, symbols):
            calls.append(estimate_bits(model, symbols))
            return calls[-1]

        monkeypatch.setattr(cont, "estimate_bits", spy)
        report = analyze_container(blob)
        assert [v.hex() for v in calls] == [v.hex() for v in expected]
        reported = [report.estimated_bits[key] for key in ("O", "A", "S")]
        assert [v.hex() for v in reported] == [v.hex() for v in groups]

    def test_empty_mlp_share_zero(self):
        blob = encode_container(
            quantize_cloud(_float_cloud(seed=9, anchors=100), QuantParams(q_p=64))
        )
        report = analyze_container(blob)
        assert report.percentages["MLP"] == 0.0
