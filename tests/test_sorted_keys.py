"""The one-sort position paths against the np.unique versions they replaced.

octree_encode builds its levels bottom-up from one sorted array of Morton
codes, voxelize keys voxels by their 1-D Morton code, and validate finds
duplicates as equal neighbours of lexicographically sorted rows. Each is
compared here with a reference copy of the row-wise or per-level np.unique
implementation it replaced; the references are kept as the oracle.
"""

import sys

import numpy as np
import pytest

from voxgs import (
    AnchorCloud,
    AttributeLayout,
    QuantParams,
    encode_container,
    generate_synthetic,
    morton_encode,
    octree_encode,
    quantize_cloud,
    validate,
)
from voxgs.model import MAX_GRID
from voxgs.quantize import ste_round, voxelize

INT64_MIN = np.iinfo(np.int64).min
INT64_MAX = np.iinfo(np.int64).max


def octree_bytes_reference(positions, depth):
    """Occupancy bytes with one np.unique of the shifted codes per level."""
    codes = np.sort(morton_encode(np.asarray(positions, dtype=np.int64).reshape(-1, 3)))
    out = bytearray()
    if codes.size:
        for level in range(depth):
            children = np.unique(codes >> np.uint64(3 * (depth - level - 1)))
            parents = children >> np.uint64(3)
            slots = (children & np.uint64(7)).astype(np.uint8)
            starts = np.flatnonzero(np.r_[True, parents[1:] != parents[:-1]])
            occ = np.bitwise_or.reduceat(np.left_shift(1, slots).astype(np.uint8), starts)
            out.extend(occ.tobytes())
    return bytes(out)


def voxelize_reference(points, q_p, bbox):
    """(voxels, kept, dup_map) from a row-wise np.unique(axis=0) of the grid.

    The unique rows are reordered by their Morton codes, the row order of
    every quantized cloud.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    lo, hi = np.asarray(bbox, dtype=np.float64).reshape(2, 3)
    grid = ste_round((pts - lo) / (hi - lo) * q_p)
    np.clip(grid, 0, q_p - 1, out=grid)
    if grid.shape[0] == 0:
        return grid, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    uniq, first_idx, inverse = np.unique(grid, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(morton_encode(uniq), kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return uniq[order], first_idx[order], rank[inverse.ravel()]


def duplicate_finding_reference(positions):
    """validate's duplicate finding from np.unique(axis=0, return_counts=True)."""
    uniq, counts = np.unique(positions, axis=0, return_counts=True)
    dup = counts > 1
    if not dup.any():
        return []
    first = uniq[dup][0]
    return [f"{int(dup.sum())} duplicated position(s), e.g. {tuple(int(c) for c in first)}"]


def _distinct_points(rng, n, depth):
    pts = rng.integers(0, 1 << depth, size=(n, 3), dtype=np.int64)
    return pts[np.unique(morton_encode(pts), return_index=True)[1]]


class TestOctreeLevelsMatchPerLevelUnique:
    @pytest.mark.parametrize("depth", range(22))
    def test_random_sets(self, depth):
        rng = np.random.default_rng(1000 + depth)
        for n in (1, 2, 9, int(rng.integers(10, 400))):
            pts = rng.permutation(_distinct_points(rng, n, depth))
            got = octree_encode(pts, depth)
            assert got.occupancy_bytes == octree_bytes_reference(pts, depth)
            assert got.point_count == pts.shape[0]

    def test_grid_corner_at_depth_21(self):
        top = MAX_GRID - 1
        pts = np.array([[top, top, top], [0, 0, 0], [top, 0, top], [0, top, 0], [top, top, 0]])
        assert octree_encode(pts, 21).occupancy_bytes == octree_bytes_reference(pts, 21)

    def test_one_point(self):
        for depth in (0, 1, 21):
            pt = np.array([[(1 << depth) - 1, 0, (1 << depth) // 2]])
            assert octree_encode(pt, depth).occupancy_bytes == octree_bytes_reference(pt, depth)

    def test_dense_cube(self):
        axis = np.arange(8)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        assert octree_encode(pts, 3).occupancy_bytes == octree_bytes_reference(pts, 3)

    def test_empty_set(self):
        for depth in (0, 5, 21):
            got = octree_encode(np.zeros((0, 3), dtype=np.int64), depth)
            assert got.occupancy_bytes == octree_bytes_reference(np.zeros((0, 3)), depth) == b""
            assert got.point_count == 0


class TestVoxelizeMatchesRowWiseUnique:
    BOX = np.array([[-1.0, 0.0, 2.0], [3.0, 0.5, 2.25]])

    @pytest.mark.parametrize("q_p", [1, 2, 64, 1024, MAX_GRID])
    def test_many_collisions(self, q_p):
        rng = np.random.default_rng(q_p)
        lo, hi = self.BOX
        for pool_size in (1, 7, 300):
            pool = lo + rng.random((pool_size, 3)) * (hi - lo)
            pool[0] = hi  # the max corner clamps to q_p - 1
            pts = pool[rng.integers(0, pool_size, size=1000)]
            got = voxelize(pts, q_p, self.BOX)
            want = voxelize_reference(pts, q_p, self.BOX)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)

    def test_empty(self):
        got = voxelize(np.zeros((0, 3)), 64, self.BOX)
        want = voxelize_reference(np.zeros((0, 3)), 64, self.BOX)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype


class TestValidateDuplicatesMatchRowWiseUnique:
    def _findings(self, positions):
        n = positions.shape[0]
        cloud = AnchorCloud(
            positions=positions,
            offsets=np.zeros((n, 3), dtype=np.int32),
            features=np.zeros((n, 1), dtype=np.int32),
            scalings=np.zeros((n, 6), dtype=np.int32),
            layout=AttributeLayout(k=1, m=1),
            quant=QuantParams(q_p=4),
            bbox=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
        )
        return [f for f in validate(cloud).findings if "duplicated" in f]

    def test_random_clouds_in_and_out_of_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            lo, span = int(rng.integers(-6, 3)), int(rng.integers(1, 9))
            pos = rng.integers(lo, lo + span, size=(n, 3), dtype=np.int64)
            assert self._findings(pos) == duplicate_finding_reference(pos)

    def test_int64_extremes(self):
        rng = np.random.default_rng(6)
        values = np.array([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX])
        for _ in range(200):
            pos = values[rng.integers(0, values.size, size=(int(rng.integers(1, 30)), 3))]
            assert self._findings(pos) == duplicate_finding_reference(pos)

    def test_single_row_and_no_duplicates(self):
        assert self._findings(np.array([[INT64_MIN, 0, INT64_MAX]])) == []
        assert self._findings(np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]])) == []


def test_quantize_and_encode_sort_positions_without_row_wise_unique(monkeypatch):
    # One np.unique (voxelize's 1-D Morton key) for the whole pipeline; row-wise
    # and per-level uniques are what the one-sort paths replaced.
    fcloud = generate_synthetic(seed=0, anchors=2000, layout=AttributeLayout(k=2, m=4))
    calls = []
    real_unique = np.unique

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs))
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    encode_container(quantize_cloud(fcloud, QuantParams(q_p=1024)))
    assert len(calls) == 1
    nargs, kwargs = calls[0]
    assert nargs < 5 and "axis" not in kwargs


def test_quantize_and_encode_compute_morton_codes_twice(monkeypatch):
    # voxelize keys voxels, and encode computes the codes once, in validate:
    # octree_encode and encode_attributes read validate's codes.
    fcloud = generate_synthetic(seed=0, anchors=2000, layout=AttributeLayout(k=2, m=4))
    callers = []

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return morton_encode(*args, **kwargs)

    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "voxgs"]
    for module in modules:
        if getattr(module, "morton_encode", None) is morton_encode:
            monkeypatch.setattr(module, "morton_encode", spy)
    encode_container(quantize_cloud(fcloud, QuantParams(q_p=1024)))
    assert callers == ["voxelize", "validate"]
