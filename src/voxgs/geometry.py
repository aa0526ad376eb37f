"""Lossless geometry coding: Morton ordering and a breadth-first occupancy octree.

Bit layout: x occupies bit 0 of each interleaved triple, y bit 1, z bit 2,
and the octree child index is (z << 2) | (y << 1) | x. With that convention
the breadth-first leaf order of the octree coincides with ascending Morton
order, so no extra sort is needed after decoding. The interleave itself,
morton_encode and morton_decode, lives in model, whose validate keys
positions by it; this module re-exports it. morton_encode spreads each axis
by lookups into 2048-entry tables pre-shifted per axis, one 11-bit chunk per
axis, or two when the largest coordinate is 2**11 or more. morton_decode
reads a code 12 bits at a time, 4 of each axis, through one 4096-entry
table, and only up to the largest code's top bit.

The encoder sorts the leaf codes unless they already ascend, then builds
the levels bottom-up: a new parent (code >> 3) starts wherever neighbouring
parents differ, its occupancy byte ORs its children's slot bits, and those
parents form the next level up. The decoder locates the first zero byte
once, then checks the levels top-down, each level's size being the popcount
of the bytes of the level above, so a malformed payload fails before any
level is built. It then builds the levels in int64 from two 256-entry
tables: the popcount of each byte and the slot of each of its set bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model
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


# Byte b has _POPCOUNT[b] children, and its r-th has slot _KTH_SLOT[8 * b + r].
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.intp)
_KTH_SLOT = np.array(
    [[j for j in range(8) if b >> j & 1] + [0] * (8 - bin(b).count("1")) for b in range(256)],
    dtype=np.uint8,
).ravel()
# Child t of a run of bytes, of byte b whose children end at t = k, is its
# (t - k + _POPCOUNT[b])-th, at _KTH_SLOT index _KTH_BASE[b] - k + t.
_KTH_BASE = 8 * np.arange(256, dtype=np.intp) + _POPCOUNT


def octree_decode(payload: OctreePayload) -> np.ndarray:
    """Reconstruct the voxel set in Morton order; raises on malformed payloads."""
    data = payload.occupancy_bytes
    buf = np.frombuffer(data, dtype=np.uint8)
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
    view = memoryview(data)
    sizes = [1]  # nodes per level, the root's first
    pos = 0
    for _level in range(depth):
        count = sizes[-1]
        if pos + count > buf.size:
            raise CorruptStreamError("truncated octree payload")
        if zero < pos + count:
            raise CorruptStreamError("zero occupancy byte at internal node")
        # The next level holds one node per set bit of this level's bytes.
        # Levels never shrink, so a level above point_count cannot end there;
        # failing here, before any level is built, keeps each within it.
        children = int.from_bytes(view[pos : pos + count], "little").bit_count()
        pos += count
        if children > payload.point_count:
            raise CorruptStreamError(
                f"octree level holds {children} nodes, header says {payload.point_count}"
            )
        sizes.append(children)
    if pos != buf.size:
        raise CorruptStreamError("trailing bytes in octree payload")
    if sizes[-1] != payload.point_count:
        raise CorruptStreamError(
            f"decoded {sizes[-1]} voxels, header says {payload.point_count}"
        )
    return morton_decode(_leaf_codes(buf, sizes).view(np.uint64))


def _leaf_codes(buf: np.ndarray, sizes: list) -> np.ndarray:
    """The leaves' Morton codes of a checked payload, sizes[i] nodes at level i.

    Levels are built in groups whose children fit one span
    (model._SPAN_ELEMENTS). Each group's child slots come from its bytes at
    once: the r-th child of byte b has slot _KTH_SLOT[8 * b + r]. Each level
    then repeats its nodes' codes, shifted up 3 bits, once per child and adds
    the slots.
    """
    nodes = np.zeros(1, dtype=np.int64)
    pos = level = 0
    while level < len(sizes) - 1:
        stop, children = level + 1, sizes[level + 1]
        while stop < len(sizes) - 1 and children + sizes[stop + 1] <= model._SPAN_ELEMENTS:
            stop += 1
            children += sizes[stop]
        end = pos + sum(sizes[level:stop])
        counts = _POPCOUNT.take(buf[pos:end])
        index = _KTH_BASE.take(buf[pos:end])
        index -= np.cumsum(counts)
        index = np.repeat(index, counts)
        index += np.arange(children)
        slots = _KTH_SLOT.take(index)
        first = done = 0
        for count in sizes[level:stop]:
            nodes <<= 3
            nodes = np.repeat(nodes, counts[first : first + count])
            nodes |= slots[done : done + nodes.size]
            first += count
            done += nodes.size
        pos, level = end, stop
    return nodes
