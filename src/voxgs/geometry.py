"""Lossless geometry coding: Morton ordering and a breadth-first occupancy octree.

Bit layout: x occupies bit 0 of each interleaved triple, y bit 1, z bit 2,
and the octree child index is (z << 2) | (y << 1) | x. With that convention
the breadth-first leaf order of the octree coincides with ascending Morton
order, so no extra sort is needed after decoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CorruptStreamError
from .model import MAX_GRID, AnchorCloud

_U = np.uint64

_SPREAD_MASKS = (
    _U(0x1F00000000FFFF),
    _U(0x1F0000FF0000FF),
    _U(0x100F00F00F00F00F),
    _U(0x10C30C30C30C30C3),
    _U(0x1249249249249249),
)
_SPREAD_SHIFTS = (_U(32), _U(16), _U(8), _U(4), _U(2))


def _spread(v: np.ndarray) -> np.ndarray:
    """Space the low 21 bits of v three apart (00b2 00b1 00b0)."""
    v = v.astype(np.uint64) & _U(0x1FFFFF)
    for shift, mask in zip(_SPREAD_SHIFTS, _SPREAD_MASKS):
        v = (v | (v << shift)) & mask
    return v


def _compact(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64) & _SPREAD_MASKS[-1]
    for shift, mask in zip(reversed(_SPREAD_SHIFTS), reversed((_U(0x1FFFFF),) + _SPREAD_MASKS[:-1])):
        v = (v | (v >> shift)) & mask
    return v


def morton_encode(xyz) -> np.ndarray:
    """Interleave (x, y, z) triples into 63-bit Morton codes."""
    arr = np.asarray(xyz, dtype=np.int64)
    single = arr.ndim == 1
    arr = arr.reshape(-1, 3)
    if arr.size and (arr.min() < 0 or arr.max() >= MAX_GRID):
        raise ValueError(f"coordinates must lie in [0, {MAX_GRID})")
    codes = (
        _spread(arr[:, 0])
        | (_spread(arr[:, 1]) << _U(1))
        | (_spread(arr[:, 2]) << _U(2))
    )
    return codes[0] if single else codes


def morton_decode(codes) -> np.ndarray:
    """Invert morton_encode; returns (n, 3) or (3,) int64 coordinates."""
    arr = np.asarray(codes, dtype=np.uint64)
    single = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty((arr.size, 3), dtype=np.int64)
    out[:, 0] = _compact(arr).astype(np.int64)
    out[:, 1] = _compact(arr >> _U(1)).astype(np.int64)
    out[:, 2] = _compact(arr >> _U(2)).astype(np.int64)
    return out[0] if single else out


def sort_by_morton(cloud: AnchorCloud) -> AnchorCloud:
    """Permute anchors into ascending Morton order, carrying attribute rows."""
    codes = morton_encode(cloud.positions)
    if np.unique(codes).size != codes.size:
        raise ValueError("cloud contains duplicate positions")
    order = np.argsort(codes, kind="stable")
    if np.array_equal(order, np.arange(order.size)):
        return cloud
    return AnchorCloud(
        positions=cloud.positions[order],
        offsets=cloud.offsets[order],
        features=cloud.features[order],
        scalings=cloud.scalings[order],
        layout=cloud.layout,
        quant=cloud.quant,
        bbox=cloud.bbox,
        mlp_blob=cloud.mlp_blob,
    )


def is_morton_sorted(positions) -> bool:
    codes = morton_encode(np.asarray(positions, dtype=np.int64).reshape(-1, 3))
    return bool(np.all(codes[1:] > codes[:-1]))


@dataclass(frozen=True)
class OctreePayload:
    """Breadth-first occupancy serialization of a voxel set."""

    depth: int
    occupancy_bytes: bytes
    point_count: int


def octree_encode(positions, depth: int) -> OctreePayload:
    """Serialize a duplicate-free voxel set as one occupancy byte per internal node."""
    pos = np.asarray(positions, dtype=np.int64).reshape(-1, 3)
    if depth < 0 or depth > 21:
        raise ValueError("octree depth must be in [0, 21]")
    if pos.size and (pos.min() < 0 or pos.max() >= (1 << depth)):
        raise ValueError(f"coordinates exceed the depth-{depth} grid")
    codes = np.sort(morton_encode(pos))
    if codes.size and np.any(codes[1:] == codes[:-1]):
        raise ValueError("duplicate positions in octree input")

    out = bytearray()
    if codes.size:
        for level in range(depth):
            node_shift = _U(3 * (depth - level))
            child_shift = _U(3 * (depth - level - 1))
            children = np.unique(codes >> child_shift)
            parents = children >> _U(3)
            slots = (children & _U(7)).astype(np.uint8)
            starts = np.flatnonzero(np.r_[True, parents[1:] != parents[:-1]])
            occ = np.bitwise_or.reduceat(np.left_shift(1, slots).astype(np.uint8), starts)
            out.extend(occ.tobytes())
    return OctreePayload(depth=depth, occupancy_bytes=bytes(out), point_count=int(codes.size))


def octree_decode(payload: OctreePayload) -> np.ndarray:
    """Reconstruct the voxel set in Morton order; raises on malformed payloads."""
    buf = np.frombuffer(payload.occupancy_bytes, dtype=np.uint8)
    depth = payload.depth
    if depth < 0 or depth > 21:
        raise CorruptStreamError(f"invalid octree depth {depth}")

    if payload.point_count == 0:
        if buf.size:
            raise CorruptStreamError("trailing bytes in empty octree payload")
        return np.zeros((0, 3), dtype=np.int64)

    nodes = np.zeros(1, dtype=np.uint64)
    pos = 0
    for _level in range(depth):
        count = nodes.size
        if pos + count > buf.size:
            raise CorruptStreamError("truncated octree payload")
        occ = buf[pos : pos + count]
        pos += count
        if np.any(occ == 0):
            raise CorruptStreamError("zero occupancy byte at internal node")
        bits = np.unpackbits(occ[:, None], axis=1, bitorder="little").astype(bool)
        children = (nodes[:, None] << _U(3)) + np.arange(8, dtype=np.uint64)[None, :]
        nodes = children[bits]
        # Levels never shrink, so a level above point_count cannot end there;
        # failing here keeps each level's allocation within 8 * point_count.
        if nodes.size > payload.point_count:
            raise CorruptStreamError(
                f"octree level holds {nodes.size} nodes, header says {payload.point_count}"
            )
    if pos != buf.size:
        raise CorruptStreamError("trailing bytes in octree payload")
    if nodes.size != payload.point_count:
        raise CorruptStreamError(
            f"decoded {nodes.size} voxels, header says {payload.point_count}"
        )
    return morton_decode(nodes)
