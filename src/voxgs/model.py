"""Core domain types: quantization parameters, attribute layout, anchor clouds,
the grid's Morton codes and the validity check."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# Morton codes pack three coordinates into 63 bits, so each axis is
# limited to 21 bits of grid resolution.
MAX_GRID = 1 << 21

SCALING_DIMS = 6
# Upper bound on k and m; it keeps any declared layout's row width bounded.
MAX_LAYOUT_DIM = 1 << 16

GROUPS = ("offsets", "features", "scalings")

# Elements per span: 2 MB of int64. A stage that works span by span holds one
# span's temporaries at a time, not the whole stage's, and a span is large
# enough that its few numpy calls cost little next to its work. parse_groups
# parses the three groups joined when their payloads together fit one span.
_SPAN_ELEMENTS = 1 << 18


def spans(units: int, unit_size: int):
    """Contiguous (start, stop) ranges tiling range(units).

    Each holds as many units of unit_size elements as fit in _SPAN_ELEMENTS,
    and at least one.
    """
    step = max(1, _SPAN_ELEMENTS // max(1, unit_size))
    return [(start, min(start + step, units)) for start in range(0, units, step)]


def as_fraction(value, name="scale") -> Fraction:
    """value as a quantization scale a container can store; else ValueError naming it.

    Fractions, ints and "num/den" strings convert exactly; floats go to the
    nearest fraction with a denominator of at most 10**9. The scale must be
    positive, with numerator and denominator below 2**64.
    """
    try:
        frac = value if isinstance(value, Fraction) else Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{name} value {value!r} is not a rational number") from None
    if isinstance(value, float):
        frac = frac.limit_denominator(10**9)
    if frac.numerator <= 0:  # a Fraction's denominator is positive
        raise ValueError(f"quant scale must be positive, got {name}={value!r}")
    # The container stores each scale's numerator and denominator as a uint64.
    if frac.numerator >= 2**64 or frac.denominator >= 2**64:
        raise ValueError("quant scale numerator and denominator must be below 2**64")
    return frac


def _is_int(value) -> bool:
    """The integer rule of q_p, k and m: an int or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_grid(q_p) -> int:
    """q_p as an int grid resolution; ValueError unless an integer in [1, MAX_GRID]."""
    if not _is_int(q_p) or not 1 <= q_p <= MAX_GRID:
        raise ValueError(f"q_p must be an integer in [1, {MAX_GRID}], got {q_p!r}")
    return int(q_p)


@dataclass(frozen=True)
class QuantParams:
    """Quantization scales for positions and the three attribute groups."""

    q_p: int
    q_o: Fraction = Fraction(1)
    q_a: Fraction = Fraction(1)
    q_s: Fraction = Fraction(8)

    def __post_init__(self):
        object.__setattr__(self, "q_p", as_grid(self.q_p))
        for name in ("q_o", "q_a", "q_s"):
            object.__setattr__(self, name, as_fraction(getattr(self, name), name))

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
        for name in ("k", "m"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
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


def _as_2d(a, dtype, cols, name, flat=False):
    """a (flat=True: its values) as (n, cols) dtype; integer storage takes only exact values."""
    arr = np.asarray(a)
    # NumPy rounds a sequence's integers past int64 to float64; as objects they stay exact.
    if not isinstance(a, np.ndarray) and arr.dtype.kind in "fO" and np.dtype(dtype).kind in "iu":
        arr = np.asarray(a, dtype=object)
    if flat:
        arr = arr.reshape(-1, cols)
    if arr.ndim != 2 or (arr.size and arr.shape[1] != cols):
        raise ValueError(f"{name} must have shape (n, {cols}), got {arr.shape}")
    # A cast numpy calls safe (bool or a narrower integer) keeps every value.
    if arr.size and np.issubdtype(dtype, np.integer) and not np.can_cast(arr.dtype, dtype):
        info = np.iinfo(dtype)
        if arr.dtype.kind not in "iu":
            try:
                real = np.asarray(arr, dtype=np.float64)
            except OverflowError:  # a Python integer beyond float64's range
                raise ValueError(f"{name} integers overflow {info.dtype} storage") from None
            if not (np.isfinite(real).all() and (real == np.trunc(real)).all()):
                raise ValueError(f"{name} must hold finite integers")
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


# The Morton codec (bit layout in geometry's docstring) lives here because
# validate keys positions by it; geometry sorts and builds the octree on it.
_U = np.uint64

# Encoding spreads each axis by table lookup, 11 bits at a time:
# _SPREAD[a][v] is v's bits spaced three apart (00b2 00b1 00b0) and moved up
# a bits to axis a; _SPREAD_HIGH is the same for coordinate bits 11 to 21.
_CHUNK = 11
_SPREAD = np.zeros((3, 1 << _CHUNK), dtype=np.uint64)
_values = np.arange(1 << _CHUNK, dtype=np.uint64)
for _bit in range(_CHUNK):
    _SPREAD[0] |= ((_values >> _U(_bit)) & _U(1)) << _U(3 * _bit)
_SPREAD[1:] = _SPREAD[0] << np.array([[1], [2]], dtype=np.uint64)
_SPREAD_HIGH = _SPREAD << _U(3 * _CHUNK)
del _bit, _values

# Decoding gathers 12 code bits at a time, 4 of each axis, by one lookup:
# _GATHER[v] holds axis a's 4 bits of v in bits 21a to 21a + 3 of the 63-bit
# (x, y, z) packing, and chunk j moves up 4j bits within each field.
_GATHER = np.zeros(1 << 12, dtype=np.int64)
_values = np.arange(1 << 12, dtype=np.int64)
for _bit in range(12):
    _GATHER |= ((_values >> _bit) & 1) << (21 * (_bit % 3) + _bit // 3)
_AXIS = (1 << 21) - 1
del _bit, _values


def morton_encode(xyz) -> np.ndarray:
    """Interleave (x, y, z) triples into 63-bit Morton codes."""
    single = np.ndim(xyz) == 1
    arr = _as_2d(xyz, np.int64, 3, "coordinates", flat=True)
    top = arr.max(initial=0)
    if top >= MAX_GRID or arr.min(initial=0) < 0:
        raise ValueError(f"coordinates must lie in [0, {MAX_GRID})")
    codes = np.zeros(arr.shape[0], dtype=np.uint64)
    # A grid below 2**11 needs only the low chunk of each axis.
    for low, high, col in zip(_SPREAD, _SPREAD_HIGH, arr.T):
        if top >> _CHUNK:
            codes |= low[col & ((1 << _CHUNK) - 1)]
            codes |= high[col >> _CHUNK]
        else:
            codes |= low[col]
    return codes[0] if single else codes


def morton_decode(codes) -> np.ndarray:
    """Invert morton_encode; returns (n, 3) or (3,) int64 coordinates.

    Bit 63 lies outside the grid and is dropped.
    """
    single = np.ndim(codes) == 0
    arr = _as_2d(codes, np.uint64, 1, "codes", flat=True)[:, 0]
    packed = np.zeros(arr.size, dtype=np.int64)
    # Only the chunks below the largest code's top bit hold set bits.
    for shift in range(0, min(int(arr.max(initial=0)).bit_length(), 63), 12):
        chunk = (arr >> _U(shift)).view(np.int64)
        chunk &= 0xFFF if shift < 60 else 0x7
        chunk = _GATHER.take(chunk)
        chunk <<= shift // 3
        packed |= chunk
    out = np.empty((arr.size, 3), dtype=np.int64)
    np.bitwise_and(packed, _AXIS, out=out[:, 0])
    packed >>= 21
    np.bitwise_and(packed, _AXIS, out=out[:, 1])
    np.right_shift(packed, 21, out=out[:, 2])
    return out[0] if single else out


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
    """Findings from validate(); empty iff the cloud satisfies all invariants.

    morton_codes holds the positions' Morton codes in row order when every
    position lies on the grid, else None; encode_container reads them
    rather than computing them again.
    """

    findings: list = field(default_factory=list)
    morton_codes: np.ndarray | None = field(default=None, repr=False, compare=False)

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
    """Check cloud invariants; reports violations instead of raising.

    Duplicates are found on the positions' Morton codes, which the report
    keeps. A strictly increasing code array, as every quantized cloud has,
    holds no duplicate; any other is sorted once. The rows are sorted
    lexicographically only once a duplicate or an off-grid position is
    found, to name the first duplicated position in that order.
    """
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
        duplicated = True  # off the grid, Morton codes cannot rule duplicates out
    else:
        codes = report.morton_codes = morton_encode(pos)
        duplicated = not np.all(codes[1:] > codes[:-1])
        if duplicated:
            codes = np.sort(codes)
            duplicated = bool(np.any(codes[1:] == codes[:-1]))

    if duplicated:
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
