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
    arr = np.asarray(a, dtype=dtype)
    if arr.ndim != 2 or (arr.size and arr.shape[1] != cols):
        raise ValueError(f"{name} must have shape (n, {cols}), got {arr.shape}")
    return arr.reshape(-1, cols)


@dataclass(frozen=True)
class AnchorCloud:
    """Integer anchor cloud: grid positions plus quantized attribute rows.

    Positions hold the rounded grid integers, not dequantized reals;
    the bounding box recorded at voxelization time makes dequantization
    explicit and deterministic.
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
        object.__setattr__(self, "positions", _as_2d(self.positions, np.int64, 3, "positions"))
        object.__setattr__(self, "offsets", _as_2d(self.offsets, np.int32, self.layout.offset_dims, "offsets"))
        object.__setattr__(self, "features", _as_2d(self.features, np.int32, self.layout.feature_dims, "features"))
        object.__setattr__(self, "scalings", _as_2d(self.scalings, np.int32, SCALING_DIMS, "scalings"))
        object.__setattr__(self, "bbox", np.asarray(self.bbox, dtype=np.float64).reshape(2, 3))
        object.__setattr__(self, "mlp_blob", bytes(self.mlp_blob))
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
        object.__setattr__(self, "positions", _as_2d(self.positions, np.float64, 3, "positions"))
        object.__setattr__(self, "offsets", _as_2d(self.offsets, np.float64, self.layout.offset_dims, "offsets"))
        object.__setattr__(self, "features", _as_2d(self.features, np.float64, self.layout.feature_dims, "features"))
        object.__setattr__(self, "scalings", _as_2d(self.scalings, np.float64, SCALING_DIMS, "scalings"))
        object.__setattr__(self, "bbox", np.asarray(self.bbox, dtype=np.float64).reshape(2, 3))
        object.__setattr__(self, "mlp_blob", bytes(self.mlp_blob))

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


def validate(cloud: AnchorCloud) -> ValidationReport:
    """Check cloud invariants; reports violations instead of raising."""
    report = ValidationReport()
    n = cloud.anchor_count
    if n == 0:
        return report

    pos = cloud.positions
    if pos.min(initial=0) < 0 or pos.max(initial=0) >= cloud.quant.q_p:
        bad = np.flatnonzero((pos < 0).any(axis=1) | (pos >= cloud.quant.q_p).any(axis=1))
        report.findings.append(
            f"{bad.size} position(s) outside [0, {cloud.quant.q_p}) grid, first at row {bad[0]}"
        )

    uniq, counts = np.unique(pos, axis=0, return_counts=True)
    dup = counts > 1
    if dup.any():
        first = uniq[dup][0]
        report.findings.append(
            f"{int(dup.sum())} duplicated position(s), e.g. {tuple(int(c) for c in first)}"
        )

    for name in GROUPS:
        rows = cloud.group(name).shape[0]
        if rows != n:
            report.findings.append(f"{name} has {rows} rows for {n} anchors")

    return report
