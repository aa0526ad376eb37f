"""Core domain types: quantization parameters, attribute layout, anchor clouds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# Morton codes pack three coordinates into 63 bits, so each axis is
# limited to 21 bits of grid resolution.
MAX_GRID_BITS = 21
MAX_GRID = 1 << MAX_GRID_BITS

SCALING_DIMS = 6
# Upper bound on k and m; it keeps any declared layout's row width bounded.
MAX_LAYOUT_DIM = 1 << 16

GROUPS = ("offsets", "features", "scalings")


def as_fraction(value) -> Fraction:
    """Coerce ints, floats, Fractions, or "num/den" strings to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    return Fraction(value).limit_denominator(10**9)


@dataclass(frozen=True)
class QuantParams:
    """Quantization scales for positions and the three attribute groups."""

    q_p: int
    q_o: Fraction = Fraction(1)
    q_a: Fraction = Fraction(1)
    q_s: Fraction = Fraction(8)

    def __post_init__(self):
        object.__setattr__(self, "q_o", as_fraction(self.q_o))
        object.__setattr__(self, "q_a", as_fraction(self.q_a))
        object.__setattr__(self, "q_s", as_fraction(self.q_s))
        if self.q_p <= 0 or self.q_o <= 0 or self.q_a <= 0 or self.q_s <= 0:
            raise ValueError("quant scale must be positive")
        # The container stores each scale's numerator and denominator as a uint64.
        if any(max(f.numerator, f.denominator) >= 2**64 for f in (self.q_o, self.q_a, self.q_s)):
            raise ValueError("quant scale numerator and denominator must be below 2**64")
        if self.q_p > MAX_GRID:
            raise ValueError(
                f"q_p={self.q_p} exceeds the {MAX_GRID_BITS}-bit grid limit"
            )

    @property
    def depth(self) -> int:
        """Octree depth needed to address the [0, q_p) grid."""
        return max(0, math.ceil(math.log2(self.q_p)))

    def scale_for(self, group: str) -> Fraction:
        return {"offsets": self.q_o, "features": self.q_a, "scalings": self.q_s}[group]


@dataclass(frozen=True)
class AttributeLayout:
    """Per-anchor attribute dimensionalities: 3*k offsets, m features, 6 scalings."""

    k: int
    m: int

    def __post_init__(self):
        if self.k <= 0 or self.m <= 0:
            raise ValueError("k and m must be positive")
        if self.k > MAX_LAYOUT_DIM or self.m > MAX_LAYOUT_DIM:
            raise ValueError(f"k and m must not exceed {MAX_LAYOUT_DIM}")

    @property
    def offset_dims(self) -> int:
        return 3 * self.k

    @property
    def feature_dims(self) -> int:
        return self.m

    @property
    def scaling_dims(self) -> int:
        return SCALING_DIMS

    @property
    def total_dims(self) -> int:
        return 3 * self.k + self.m + SCALING_DIMS

    def dims_for(self, group: str) -> int:
        return {
            "offsets": self.offset_dims,
            "features": self.feature_dims,
            "scalings": self.scaling_dims,
        }[group]


def _as_2d(a, dtype, cols, name):
    """a as an (n, cols) dtype array; integer storage takes only values it holds exactly."""
    arr = np.asarray(a)
    if arr.ndim != 2 or (arr.size and arr.shape[1] != cols):
        raise ValueError(f"{name} must have shape (n, {cols}), got {arr.shape}")
    # A cast numpy calls safe (bool or a narrower integer) keeps every value.
    if arr.size and np.issubdtype(dtype, np.integer) and not np.can_cast(arr.dtype, dtype):
        if arr.dtype.kind not in "iu":
            real = np.asarray(arr, dtype=np.float64)
            if not (np.isfinite(real).all() and (real == np.trunc(real)).all()):
                raise ValueError(f"{name} must hold finite integers")
        info = np.iinfo(dtype)
        # info.max + 1 is a power of two, so float input compares exactly too.
        if arr.min() < info.min or arr.max() >= info.max + 1:
            raise ValueError(f"{name} integers overflow {info.dtype} storage")
    return arr.astype(dtype, copy=False).reshape(-1, cols)


def _normalize(cloud, position_dtype, attribute_dtype):
    """Coerce a cloud's fields in place: positions, the three groups, bbox, blob."""
    object.__setattr__(cloud, "positions", _as_2d(cloud.positions, position_dtype, 3, "positions"))
    for name in GROUPS:
        rows = _as_2d(getattr(cloud, name), attribute_dtype, cloud.layout.dims_for(name), name)
        object.__setattr__(cloud, name, rows)
    object.__setattr__(cloud, "bbox", np.asarray(cloud.bbox, dtype=np.float64).reshape(2, 3))
    object.__setattr__(cloud, "mlp_blob", bytes(cloud.mlp_blob))


@dataclass(frozen=True)
class AnchorCloud:
    """Integer anchor cloud: grid positions plus quantized attribute rows.

    Positions hold the rounded grid integers, not dequantized reals;
    the bounding box recorded at voxelization time makes dequantization
    explicit and deterministic. Input of another dtype is stored only if
    every value is an integer the storage holds; otherwise ValueError.
    """

    positions: np.ndarray  # (n, 3) int64, componentwise in [0, q_p)
    offsets: np.ndarray    # (n, 3k) int32
    features: np.ndarray   # (n, m) int32
    scalings: np.ndarray   # (n, 6) int32
    layout: AttributeLayout
    quant: QuantParams
    bbox: np.ndarray       # (2, 3) float64 world bounds
    mlp_blob: bytes = b""

    def __post_init__(self):
        _normalize(self, np.int64, np.int32)
        for arr in (self.positions, self.offsets, self.features, self.scalings):
            arr.setflags(write=False)
        self.bbox.setflags(write=False)

    @property
    def anchor_count(self) -> int:
        return self.positions.shape[0]

    def group(self, name: str) -> np.ndarray:
        return {"offsets": self.offsets, "features": self.features, "scalings": self.scalings}[name]

    def equals(self, other: "AnchorCloud") -> bool:
        """Field-for-field equality, including metadata and the MLP blob."""
        return (
            self.layout == other.layout
            and self.quant == other.quant
            and np.array_equal(self.bbox, other.bbox)
            and self.mlp_blob == other.mlp_blob
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.scalings, other.scalings)
        )


@dataclass(frozen=True)
class FloatAnchorCloud:
    """Real-valued anchor cloud prior to quantization."""

    positions: np.ndarray  # (n, 3) float64, inside bbox
    offsets: np.ndarray
    features: np.ndarray
    scalings: np.ndarray
    layout: AttributeLayout
    bbox: np.ndarray       # (2, 3) float64
    mlp_blob: bytes = b""

    def __post_init__(self):
        _normalize(self, np.float64, np.float64)

    @property
    def anchor_count(self) -> int:
        return self.positions.shape[0]


@dataclass
class ValidationReport:
    """Findings from validate(); empty iff the cloud satisfies all invariants."""

    findings: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.findings

    def __iter__(self):
        return iter(self.findings)


def _extent_overflow(bbox, q_p: int):
    """The finding if a finite bbox's extent times q_p overflows float64 on an axis, else None.

    dequantize_cloud computes grid * extent / q_p with grid below q_p, so this
    keeps every decoded position finite. Computed in Python floats, which
    overflow to inf without a warning.
    """
    lo, hi = bbox.tolist()
    if any(math.isinf((h - l) * float(q_p)) for l, h in zip(lo, hi)):
        return f"bounding box extent times q_p={q_p} overflows float64"
    return None


def validate(cloud: AnchorCloud) -> ValidationReport:
    """Check cloud invariants; reports violations instead of raising."""
    report = ValidationReport()
    if not np.all(np.isfinite(cloud.bbox)):
        report.findings.append("bounding box has non-finite values")
    elif np.any(cloud.bbox[1] <= cloud.bbox[0]):  # an inverted box can also read as overflow
        report.findings.append("bounding box must have positive extent on every axis")
    elif overflow := _extent_overflow(cloud.bbox, cloud.quant.q_p):
        report.findings.append(overflow)
    n = cloud.anchor_count
    pos = cloud.positions
    if pos.min(initial=0) < 0 or pos.max(initial=0) >= cloud.quant.q_p:
        bad = np.flatnonzero((pos < 0).any(axis=1) | (pos >= cloud.quant.q_p).any(axis=1))
        report.findings.append(
            f"{bad.size} position(s) outside [0, {cloud.quant.q_p}) grid, first at row {bad[0]}"
        )

    # Sorted rows make each duplicated position one run of equal neighbours.
    rows = pos[np.lexsort(pos.T[::-1])]
    same = (rows[1:] == rows[:-1]).all(axis=1)
    run_starts = same & ~np.r_[False, same[:-1]]
    if run_starts.any():
        first = rows[np.argmax(run_starts)]
        report.findings.append(
            f"{int(run_starts.sum())} duplicated position(s), e.g. {tuple(int(c) for c in first)}"
        )

    for name in GROUPS:
        rows = cloud.group(name).shape[0]
        if rows != n:
            report.findings.append(f"{name} has {rows} rows for {n} anchors")

    return report
