"""Voxelization of positions and scalar quantization of attribute features.

Rounding is half-away-from-zero, which is sign-symmetric and therefore
compatible with the symmetric Laplace rate model. The rounding step carries
a straight-through gradient contract: downstream optimization treats the
derivative of the rounding as identity (see sandbox.py, which backprops by
hand against this contract).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .geometry import morton_encode
from .model import MAX_GRID

INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
INT64_LIMIT = 2.0**63  # rounded magnitudes must stay below this to fit int64


def ste_round(x):
    """Round to nearest integer, ties away from zero.

    Returns an int64 scalar or array. The associated backward-pass contract
    is identity (gradient 1 everywhere).
    """
    arr = np.asarray(x, dtype=np.float64)
    magnitude = np.abs(arr, out=np.empty_like(arr))  # an array even for 0-d input
    magnitude += 0.5
    np.floor(magnitude, out=magnitude)
    # Checked before the cast: numpy casts out-of-range floats with a warning
    # and an arbitrary result. NaN and +-inf fail the same comparison.
    if magnitude.size and not magnitude.max() < INT64_LIMIT:
        if not np.all(np.isfinite(arr)):
            raise ValueError("ste_round requires finite input")
        raise ValueError("ste_round input exceeds the int64 range")
    # copysign differs from sign * magnitude only in the sign of zero, which the cast drops.
    out = np.copysign(magnitude, arr, out=magnitude).astype(np.int64)
    if np.isscalar(x) or arr.ndim == 0:
        return int(out)
    return out


def quantize_features(f, q_f) -> np.ndarray:
    """Elementwise ste_round(f * q_f)."""
    scale = float(Fraction(q_f) if not isinstance(q_f, Fraction) else q_f)
    if scale <= 0:
        raise ValueError("quant scale must be positive")
    arr = np.asarray(f, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("quantize_features requires finite input")
    return ste_round(arr * scale)


def dequantize_features(fq, q_f) -> np.ndarray:
    """Elementwise fq / q_f."""
    scale = float(Fraction(q_f) if not isinstance(q_f, Fraction) else q_f)
    if scale <= 0:
        raise ValueError("quant scale must be positive")
    return np.asarray(fq, dtype=np.float64) / scale


def check_int32(values: np.ndarray, what: str = "attribute") -> np.ndarray:
    """Narrow quantized integers to the int32 storage width, or fail loudly."""
    if values.size and (values.min() < INT32_MIN or values.max() > INT32_MAX):
        raise ValueError(f"{what} integers overflow int32 storage")
    return values.astype(np.int32)


def voxelize(points, q_p: int, bbox):
    """Voxelize world positions onto the [0, q_p)^3 grid and drop duplicates.

    Coordinates are normalized through the bounding box, rounded, and
    clamped to the half-open grid (the bbox max corner lands on q_p - 1).

    Returns (voxels, kept, dup_map): voxels is the duplicate-free (m, 3)
    int64 grid array keeping the first occurrence of each voxel in input
    order, kept holds the input index of that first occurrence for each
    voxel row, and dup_map maps every input index to its surviving voxel row.
    """
    if q_p <= 0:
        raise ValueError("q_p must be positive")
    if q_p > MAX_GRID:
        raise ValueError(f"q_p={q_p} exceeds the Morton grid limit {MAX_GRID}")

    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    box = np.asarray(bbox, dtype=np.float64).reshape(2, 3)
    if not np.all(np.isfinite(box)):
        raise ValueError("bounding box must be finite")
    lo, hi = box[0], box[1]
    extent = hi - lo
    if not np.all(np.isfinite(pts)):
        raise ValueError("positions must be finite")
    if np.any(extent <= 0):
        raise ValueError("bounding box must have positive extent on every axis")
    if pts.size and (np.any(pts < lo) or np.any(pts > hi)):
        bad = np.flatnonzero(((pts < lo) | (pts > hi)).any(axis=1))[0]
        raise ValueError(f"point {bad} lies outside the bounding box")

    grid = ste_round((pts - lo) / extent * q_p)
    np.clip(grid, 0, q_p - 1, out=grid)

    # Morton codes are injective on the grid, so they key voxels in 1-D.
    _, first_idx, inverse = np.unique(
        morton_encode(grid), return_index=True, return_inverse=True
    )
    # np.unique sorts; restore first-occurrence input order.
    kept = np.sort(first_idx)
    return grid[kept], kept, np.searchsorted(kept, first_idx)[inverse]


def quantize_positions(points, q_p: int, bbox):
    """voxelize without the kept rows: returns (voxels, dup_map)."""
    voxels, _, dup_map = voxelize(points, q_p, bbox)
    return voxels, dup_map
