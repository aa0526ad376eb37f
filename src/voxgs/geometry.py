"""Lossless geometry coding: Morton ordering and a breadth-first occupancy octree.

Bit layout: x occupies bit 0 of each interleaved triple, y bit 1, z bit 2,
and the octree child index is (z << 2) | (y << 1) | x. With that convention
the breadth-first leaf order of the octree coincides with ascending Morton
order, so no extra sort is needed after decoding. The interleave itself,
morton_encode and morton_decode, lives in model, whose validate keys
positions by it; this module re-exports it. morton_encode spreads each axis
by lookups into 2048-entry tables pre-shifted per axis, one 11-bit chunk per
axis, or two when the largest coordinate is 2**11 or more.

The encoder sorts the leaf codes unless they already ascend, then builds
the levels bottom-up: a new parent (code >> 3) starts wherever neighbouring
parents differ, its occupancy byte ORs its children's slot bits, and those
parents form the next level up. The decoder locates the first zero byte
once, before the levels, and builds each level's codes in int64 from the
unpacked bits of that level's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CorruptStreamError
from .model import AnchorCloud, _as_2d, morton_decode, morton_encode

_U = np.uint64


def sort_by_morton(cloud: AnchorCloud, codes=None) -> AnchorCloud:
    """Permute anchors into ascending Morton order, carrying attribute rows.

    codes, if given, are the positions' Morton codes in row order (a
    ValidationReport's morton_codes), so they are not computed again.
    """
    if codes is None:
        codes = morton_encode(cloud.positions)
    if np.all(codes[1:] > codes[:-1]):  # sorted and so duplicate-free, as quantized clouds are
        return cloud
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    if np.any(codes[1:] == codes[:-1]):
        raise ValueError("cloud contains duplicate positions")
    return replace(
        cloud,
        positions=cloud.positions[order],
        offsets=cloud.offsets[order],
        features=cloud.features[order],
        scalings=cloud.scalings[order],
    )


@dataclass(frozen=True)
class OctreePayload:
    """Breadth-first occupancy serialization of a voxel set."""

    depth: int
    occupancy_bytes: bytes
    point_count: int


def octree_encode(positions, depth: int, codes=None) -> OctreePayload:
    """Serialize a duplicate-free voxel set as one occupancy byte per internal node.

    codes, if given, are the positions' Morton codes in row order, so they
    are not computed again. Codes already strictly increasing, as a
    quantized cloud's are, are not sorted.
    """
    pos = _as_2d(positions, np.int64, 3, "positions", flat=True)
    if depth < 0 or depth > 21:
        raise ValueError("octree depth must be in [0, 21]")
    if pos.size and (pos.min() < 0 or pos.max() >= (1 << depth)):
        raise ValueError(f"coordinates exceed the depth-{depth} grid")
    if codes is None:
        codes = morton_encode(pos)
    if not np.all(codes[1:] > codes[:-1]):
        codes = np.sort(codes)
        if np.any(codes[1:] == codes[:-1]):
            raise ValueError("duplicate positions in octree input")

    levels = []
    nodes = codes
    # new[i]: node i's parent differs from node i - 1's; levels only shrink.
    new = np.empty(codes.size, dtype=bool)
    new[:1] = True
    for _level in range(depth if codes.size else 0):
        parents = nodes >> _U(3)
        slots = (nodes & _U(7)).astype(np.uint8)
        np.not_equal(parents[1:], parents[:-1], out=new[1 : nodes.size])
        starts = np.flatnonzero(new[: nodes.size])
        levels.append(np.bitwise_or.reduceat(np.left_shift(np.uint8(1), slots), starts))
        nodes = parents[starts]
    out = b"".join(occ.tobytes() for occ in reversed(levels))
    return OctreePayload(depth=depth, occupancy_bytes=out, point_count=int(codes.size))


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

    # The first zero byte's index, else buf.size; argmin allocates nothing.
    zero = int(buf.argmin()) if buf.size else 0
    if not buf.size or buf[zero]:
        zero = buf.size
    nodes = np.zeros(1, dtype=np.int64)
    pos = 0
    for _level in range(depth):
        count = nodes.size
        if pos + count > buf.size:
            raise CorruptStreamError("truncated octree payload")
        if zero < pos + count:
            raise CorruptStreamError("zero occupancy byte at internal node")
        # Set bit j of byte i is child j of node i, in breadth-first order.
        slots = np.flatnonzero(np.unpackbits(buf[pos : pos + count], bitorder="little"))
        pos += count
        nodes = (nodes[slots >> 3] << 3) | (slots & 7)
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
    return morton_decode(nodes.view(np.uint64))
