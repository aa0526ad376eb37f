import tracemalloc
import warnings

import numpy as np
import pytest

from voxgs import (
    OctreePayload,
    morton_decode,
    morton_encode,
    octree_decode,
    octree_encode,
    sort_by_morton,
)
from voxgs.errors import CorruptStreamError
from tests.conftest import random_cloud


def morton_oracle(x, y, z):
    """Independent bit-interleave via string manipulation."""
    bx = format(x, "021b")
    by = format(y, "021b")
    bz = format(z, "021b")
    interleaved = "".join(bz[i] + by[i] + bx[i] for i in range(21))
    return int(interleaved, 2)


class TestMorton:
    def test_zero(self):
        assert morton_encode(np.array([0, 0, 0])) == 0

    def test_single_bit_placement(self):
        assert morton_encode(np.array([1, 0, 0])) == 1
        assert morton_encode(np.array([0, 1, 0])) == 2
        assert morton_encode(np.array([0, 0, 1])) == 4

    def test_small_triple_vs_oracle(self):
        assert morton_encode(np.array([3, 5, 6])) == morton_oracle(3, 5, 6)

    def test_random_triples_vs_oracle(self):
        rng = np.random.default_rng(11)
        pts = rng.integers(0, 1 << 21, size=(500, 3), dtype=np.int64)
        codes = morton_encode(pts)
        for (x, y, z), code in zip(pts.tolist(), codes.tolist()):
            assert code == morton_oracle(x, y, z)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            morton_encode(np.array([1 << 21, 0, 0]))
        with pytest.raises(ValueError):
            morton_encode(np.array([-1, 0, 0]))

    def test_decode_zero_and_seven(self):
        assert morton_decode(np.uint64(0)).tolist() == [0, 0, 0]
        assert morton_decode(np.uint64(7)).tolist() == [1, 1, 1]

    def test_bit_63_is_dropped(self):
        # Codes hold 63 bits; a set bit 63 is outside the grid and ignored.
        assert morton_decode(np.uint64(1 << 63)).tolist() == [0, 0, 0]
        codes = np.array([1 << 63 | 7, 1 << 63 | (1 << 63) - 1, 1 << 62], dtype=np.uint64)
        assert morton_decode(codes).tolist() == [
            [1, 1, 1], [2**21 - 1] * 3, [0, 0, 2**20]
        ]

    def test_round_trip_random_codes(self):
        rng = np.random.default_rng(12)
        codes = rng.integers(0, 1 << 63, size=100_000, dtype=np.uint64)
        assert np.array_equal(morton_encode(morton_decode(codes)), codes)

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(13)
        pts = rng.integers(0, 1 << 21, size=(100_000, 3), dtype=np.int64)
        assert np.array_equal(morton_decode(morton_encode(pts)), pts)


    @pytest.mark.parametrize(
        "points",
        [
            # One chunk per axis: the grid's max is 2**11 - 1.
            [[0, 0, 0], [1, 2, 3], [2**11 - 1, 0, 0], [0, 2**11 - 1, 0], [0, 0, 2**11 - 1],
             [2**11 - 1] * 3],
            # Two chunks per axis: the grid's max reaches 2**11 on one axis only.
            [[0, 0, 0], [2**11 - 1, 5, 9], [2**11, 0, 0], [0, 7, 2**11 - 1]],
            # Two chunks: every edge on every axis, up to 2**21 - 1.
            [[v if a == axis else 0 for a in range(3)]
             for axis in range(3) for v in (2**11 - 1, 2**11, 2**21 - 1)]
            + [[2**11] * 3, [2**21 - 1] * 3, [2**21 - 1, 2**11, 2**11 - 1]],
        ],
        ids=["one-chunk", "two-chunks-one-axis", "two-chunks-edges"],
    )
    def test_table_chunk_edges_vs_oracle(self, points):
        from voxgs import AnchorCloud, AttributeLayout, QuantParams, validate

        pts = np.array(points, dtype=np.int64)
        expected = [morton_oracle(x, y, z) for x, y, z in points]
        codes = morton_encode(pts)
        assert codes.tolist() == expected
        assert [int(morton_encode(p)) for p in pts] == expected
        assert np.array_equal(morton_decode(codes), pts)
        n = len(points)
        cloud = AnchorCloud(
            positions=pts,
            offsets=np.zeros((n, 3), dtype=np.int32),
            features=np.zeros((n, 1), dtype=np.int32),
            scalings=np.zeros((n, 6), dtype=np.int32),
            layout=AttributeLayout(k=1, m=1),
            quant=QuantParams(q_p=int(pts.max()) + 1),
            bbox=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
        )
        report = validate(cloud)
        assert report.valid
        assert report.morton_codes.tolist() == expected
        assert np.array_equal(morton_decode(report.morton_codes), pts)


class TestIntegerInput:
    """The entry points take only integers, through the cloud types' narrowing gate."""

    def test_fractional_coordinates_rejected(self):
        with pytest.raises(ValueError, match="^coordinates must hold finite integers$"):
            morton_encode([0.5, 0, 0])
        with pytest.raises(ValueError, match="^positions must hold finite integers$"):
            octree_encode([[0.7, 0, 0]], 1)
        with pytest.raises(ValueError, match="^codes must hold finite integers$"):
            morton_decode([7.5])

    @pytest.mark.parametrize(
        "value,message",
        [(np.nan, "must hold finite integers"), (-np.inf, "must hold finite integers"),
         (1e30, "integers overflow")],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda v: morton_encode(np.array([[v, 0.0, 0.0]])),
            lambda v: octree_encode(np.array([[0.0, v, 0.0]]), 2),
            lambda v: morton_decode(np.array([0.0, v])),
        ],
        ids=["morton_encode", "octree_encode", "morton_decode"],
    )
    def test_non_finite_and_huge_floats_rejected_without_warning(self, call, value, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                call(value)

    def test_negative_code_rejected(self):
        with pytest.raises(ValueError, match="^codes integers overflow uint64 storage$"):
            morton_decode([-1])

    def test_integral_floats_accepted(self):
        assert morton_encode([1.0, 2.0, 3.0]) == morton_encode([1, 2, 3]) == 53
        assert morton_decode(53.0).tolist() == [1, 2, 3]
        pts = [[1, 0, 3], [2, 2, 2]]
        expected = octree_encode(np.array(pts), 2)
        assert octree_encode(np.array(pts, dtype=np.float64), 2) == expected
        assert octree_encode(np.array(pts, dtype=np.uint8), 2) == expected


class TestSortByMorton:
    def test_idempotent_on_sorted(self):
        cloud = sort_by_morton(random_cloud(np.random.default_rng(20), n=100))
        assert sort_by_morton(cloud) is cloud

    def test_reversal_invariance(self):
        from voxgs import AnchorCloud

        cloud = random_cloud(np.random.default_rng(21), n=100)
        rev = AnchorCloud(
            positions=cloud.positions[::-1],
            offsets=cloud.offsets[::-1],
            features=cloud.features[::-1],
            scalings=cloud.scalings[::-1],
            layout=cloud.layout,
            quant=cloud.quant,
            bbox=cloud.bbox,
            mlp_blob=cloud.mlp_blob,
        )
        assert sort_by_morton(rev).equals(sort_by_morton(cloud))

    def test_rows_travel_with_anchors(self):
        # Tag-tracking oracle: feature channel 0 stores the input row index.
        from voxgs import AnchorCloud

        rng = np.random.default_rng(22)
        cloud = random_cloud(rng, n=500, depth=8)
        tags = np.arange(cloud.anchor_count, dtype=np.int32)
        feats = cloud.features.copy()
        feats[:, 0] = tags
        tagged = AnchorCloud(
            positions=cloud.positions,
            offsets=cloud.offsets,
            features=feats,
            scalings=cloud.scalings,
            layout=cloud.layout,
            quant=cloud.quant,
            bbox=cloud.bbox,
        )
        out = sort_by_morton(tagged)
        for i in range(out.anchor_count):
            src = int(out.features[i, 0])
            assert np.array_equal(out.positions[i], tagged.positions[src])
            assert np.array_equal(out.offsets[i], tagged.offsets[src])
            assert np.array_equal(out.scalings[i], tagged.scalings[src])

    def test_sorted_order_is_morton(self):
        cloud = sort_by_morton(random_cloud(np.random.default_rng(23), n=300))
        codes = morton_encode(cloud.positions)
        assert np.all(codes[1:] > codes[:-1])

    def test_duplicates_rejected(self):
        from voxgs import AnchorCloud, AttributeLayout, QuantParams

        layout = AttributeLayout(k=1, m=1)
        cloud = AnchorCloud(
            positions=np.array([[1, 1, 1], [1, 1, 1]]),
            offsets=np.zeros((2, 3), dtype=np.int32),
            features=np.zeros((2, 1), dtype=np.int32),
            scalings=np.zeros((2, 6), dtype=np.int32),
            layout=layout,
            quant=QuantParams(q_p=4),
            bbox=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
        )
        with pytest.raises(ValueError):
            sort_by_morton(cloud)


def pointer_octree_node_count(points, depth):
    """Independent pointer-based octree; counts internal nodes."""
    root = {}
    for x, y, z in points:
        node = root
        for level in range(depth - 1):
            shift = depth - 1 - level
            child = (((z >> shift) & 1) << 2) | (((y >> shift) & 1) << 1) | ((x >> shift) & 1)
            node = node.setdefault(child, {})
        node.setdefault((((z & 1) << 2) | ((y & 1) << 1) | (x & 1)), None)

    # Internal nodes are all dict nodes at levels 0..depth-1.
    def count_internal(node, level):
        if level >= depth:
            return 0
        total = 1
        for child in node.values():
            if isinstance(child, dict):
                total += count_internal(child, level + 1)
        return total

    return count_internal(root, 0) if points else 0


def octree_decode_reference(occupancy: bytes, depth: int, point_count: int):
    """octree_decode by plain per-level scans, faults reported in the codec's order.

    Each level is checked for truncation, then for a zero byte, then for
    holding more nodes than point_count; after the last level, for trailing
    bytes and for the leaf count. Returns the (x, y, z) leaves in order.
    """
    if point_count == 0:
        if occupancy:
            raise CorruptStreamError("trailing bytes in empty octree payload")
        return []
    nodes, pos = [0], 0
    for _ in range(depth):
        if pos + len(nodes) > len(occupancy):
            raise CorruptStreamError("truncated octree payload")
        level = occupancy[pos : pos + len(nodes)]
        pos += len(nodes)
        if 0 in level:
            raise CorruptStreamError("zero occupancy byte at internal node")
        nodes = [(node << 3) | j for node, byte in zip(nodes, level) for j in range(8) if byte >> j & 1]
        if len(nodes) > point_count:
            raise CorruptStreamError(
                f"octree level holds {len(nodes)} nodes, header says {point_count}"
            )
    if pos != len(occupancy):
        raise CorruptStreamError("trailing bytes in octree payload")
    if len(nodes) != point_count:
        raise CorruptStreamError(f"decoded {len(nodes)} voxels, header says {point_count}")
    return [
        tuple(sum((code >> (3 * b + axis) & 1) << b for b in range(depth)) for axis in range(3))
        for code in nodes
    ]


def _octree_outcome(decode, occupancy, depth, point_count):
    try:
        leaves = decode(occupancy, depth, point_count)
    except CorruptStreamError as exc:
        return str(exc)
    return [tuple(p) for p in np.asarray(leaves).reshape(-1, 3).tolist()]


def _mutants(data: bytes):
    """Each byte set to 0 and to 0xFF, dropped and duplicated; the data cut before it and extended."""
    for i, byte in enumerate(data):
        for value in (0x00, 0xFF):
            if value != byte:
                yield data[:i] + bytes([value]) + data[i + 1 :]
        yield data[:i] + data[i + 1 :]
        yield data[:i] + data[i : i + 1] + data[i:]
        yield data[:i]
    for tail in (b"\x00", b"\x01", b"\xff"):
        yield data + tail


class TestOctree:
    def test_single_faults_match_the_per_level_reference(self):
        rng = np.random.default_rng(32)

        def codec(occupancy, depth, point_count):
            return octree_decode(OctreePayload(depth, occupancy, point_count))

        cases = [
            (depth, np.unique(rng.integers(0, 1 << depth, size=(n, 3), dtype=np.int64), axis=0))
            for depth in range(1, 6)
            for n in (1, 2, 5, 12)
        ]
        # A one-voxel grid has no levels; the deepest has the largest
        # coordinate on every axis.
        cases.append((0, np.zeros((1, 3), dtype=np.int64)))
        cases.append((21, np.array([[0, 0, 0], [2**21 - 1, 5, 2**20], [2**21 - 1] * 3])))
        seen = set()
        for depth, pts in cases:
            data = octree_encode(pts, depth).occupancy_bytes
            for count in (len(pts) - 1, len(pts), len(pts) + 1):
                for mutated in [data, *_mutants(data)]:
                    expected = _octree_outcome(octree_decode_reference, mutated, depth, count)
                    assert _octree_outcome(codec, mutated, depth, count) == expected
                    seen.add(expected if isinstance(expected, str) else None)
        # Successes and every fault of the payload.
        for kind in (None, "truncated", "zero occupancy", "octree level holds", "trailing bytes in",
                     "decoded"):
            assert any(kind == m if kind is None else m and kind in m for m in seen), kind

    def test_level_beyond_point_count_rejected_with_small_peak(self):
        # Seven full levels of 0xFF for one point: each level is 8x the last.
        payload = OctreePayload(depth=21, occupancy_bytes=b"\xff" * 299_593, point_count=1)
        tracemalloc.start()
        try:
            with pytest.raises(CorruptStreamError, match="level"):
                octree_decode(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_single_point_depth1(self):
        payload = octree_encode(np.array([[0, 0, 0]]), 1)
        assert payload.occupancy_bytes == b"\x01"
        assert payload.point_count == 1

    def test_full_occupancy_depth1(self):
        pts = np.array([[x, y, z] for z in (0, 1) for y in (0, 1) for x in (0, 1)])
        payload = octree_encode(pts, 1)
        assert payload.occupancy_bytes == b"\xff"

    def test_single_point_payload_is_depth_bytes(self):
        for depth in range(1, 12):
            payload = octree_encode(np.array([[1, 0, 1]]) if depth > 1 else np.array([[0, 0, 0]]), depth)
            assert len(payload.occupancy_bytes) == depth

    def test_node_count_matches_pointer_octree(self):
        rng = np.random.default_rng(30)
        pts = np.unique(rng.integers(0, 256, size=(200, 3), dtype=np.int64), axis=0)
        payload = octree_encode(pts, 8)
        assert len(payload.occupancy_bytes) == pointer_octree_node_count(
            [tuple(p) for p in pts.tolist()], 8
        )

    def test_round_trip_random_sets(self):
        rng = np.random.default_rng(31)
        for depth in range(1, 11):
            for _ in range(5):
                n = int(rng.integers(0, min(8**depth, 500) + 1))
                pts = np.unique(rng.integers(0, 1 << depth, size=(n, 3), dtype=np.int64), axis=0)
                decoded = octree_decode(octree_encode(pts, depth))
                assert {tuple(p) for p in decoded.tolist()} == {tuple(p) for p in pts.tolist()}
                codes = morton_encode(decoded)
                assert np.all(codes[1:] > codes[:-1])

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError):
            octree_encode(np.array([[1, 1, 1], [1, 1, 1]]), 2)

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError):
            octree_encode(np.array([[2, 0, 0]]), 1)

    def test_decode_zero_byte_is_corrupt(self):
        with pytest.raises(CorruptStreamError):
            octree_decode(OctreePayload(depth=1, occupancy_bytes=b"\x00", point_count=1))

    def test_decode_truncated(self):
        with pytest.raises(CorruptStreamError):
            octree_decode(OctreePayload(depth=2, occupancy_bytes=b"\x03", point_count=2))

    def test_decode_trailing_bytes(self):
        with pytest.raises(CorruptStreamError):
            octree_decode(OctreePayload(depth=1, occupancy_bytes=b"\x01\x01", point_count=1))

    def test_decode_count_mismatch(self):
        with pytest.raises(CorruptStreamError):
            octree_decode(OctreePayload(depth=1, occupancy_bytes=b"\x03", point_count=1))

    def test_empty_set(self):
        payload = octree_encode(np.zeros((0, 3), dtype=np.int64), 4)
        assert payload.occupancy_bytes == b""
        assert octree_decode(payload).shape == (0, 3)
