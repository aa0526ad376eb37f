import tracemalloc

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

    def test_round_trip_random_codes(self):
        rng = np.random.default_rng(12)
        codes = rng.integers(0, 1 << 63, size=100_000, dtype=np.uint64)
        assert np.array_equal(morton_encode(morton_decode(codes)), codes)

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(13)
        pts = rng.integers(0, 1 << 21, size=(100_000, 3), dtype=np.int64)
        assert np.array_equal(morton_decode(morton_encode(pts)), pts)


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


class TestOctree:
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
