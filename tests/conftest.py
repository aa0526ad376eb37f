"""Shared helpers: randomized cloud construction for property suites."""

import struct

import numpy as np

from voxgs import AnchorCloud, AttributeLayout, QuantParams


def random_cloud(rng, n=None, depth=None, layout=None, mlp=None) -> AnchorCloud:
    """Build a valid random AnchorCloud with mixed attribute distributions."""
    if depth is None:
        depth = int(rng.integers(1, 11))
    if n is None:
        n = int(rng.integers(0, 200))
    if layout is None:
        layout = AttributeLayout(k=int(rng.integers(1, 5)), m=int(rng.integers(1, 9)))
    grid = 1 << depth

    pos = rng.integers(0, grid, size=(n, 3), dtype=np.int64)
    pos = np.unique(pos, axis=0)  # duplicate-free, sorted lexicographically

    m = pos.shape[0]

    def draw(dims):
        kind = rng.integers(0, 5)
        if kind == 0:
            vals = np.round(rng.laplace(0.0, 3.0, size=(m, dims)))
        elif kind == 1:
            vals = rng.integers(-50, 50, size=(m, dims))
        elif kind == 2:
            vals = np.full((m, dims), int(rng.integers(-5, 6)))
        elif kind == 3:
            vals = np.round(rng.normal(0.0, 100.0, size=(m, dims)))
        else:
            vals = np.round(rng.laplace(0.0, 1.0, size=(m, dims)))
            vals *= rng.random((m, dims)) > 0.6
        return vals.astype(np.int32)

    if mlp is None:
        mlp = bytes(rng.integers(0, 256, size=int(rng.integers(0, 40)), dtype=np.uint8))

    return AnchorCloud(
        positions=pos,
        offsets=draw(layout.offset_dims),
        features=draw(layout.feature_dims),
        scalings=draw(6),
        layout=layout,
        quant=QuantParams(q_p=grid),
        bbox=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
        mlp_blob=mlp,
    )


def assemble_container(anchor_count, q_p, k, m, sections, mlp=b"", scales=(1, 1, 1, 1, 8, 1)):
    """Container bytes from raw header fields and the four section payloads.

    Written from the documented layout, independently of the encoder, so a
    test can build containers the encoder would never write.
    """
    from voxgs.rlc import varint_pack

    table = []
    offset = 0
    for sec in sections:
        table += [offset, len(sec)]
        offset += len(sec)
    return (
        b"VXGS"
        + bytes([1])
        + varint_pack(np.array([anchor_count, q_p, *scales, k, m], dtype=np.uint64))
        + struct.pack("<6d", 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        + varint_pack(np.array([len(mlp), *table], dtype=np.uint64))
        + b"".join(sections)
        + mlp
    )
