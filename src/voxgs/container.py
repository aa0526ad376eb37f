"""Self-contained bitstream format plus anchor-file ingestion and synthesis.

Container layout (little-endian throughout):

    magic "VXGS" | version u8 | anchor_count varint | q_p varint
    | q_o, q_a, q_s as (num varint, den varint) | k varint | m varint
    | bbox: 6 x f64 | mlp_blob_len varint
    | section table: 4 x (offset varint, length varint) for geometry, O, A, S
    | sections | mlp blob

Section offsets are relative to the end of the header; the sections tile the
region between header and blob exactly, so header length + section lengths +
blob length always equals the file length.

Anchor text file format (one value per whitespace-separated column):

    voxgs-anchors 1
    anchors <n>
    k <k>
    m <m>
    bbox <minx> <miny> <minz> <maxx> <maxy> <maxz>
    [mlp <hex>]
    <n rows of 3 + 3k + m + 6 reals>
"""

from __future__ import annotations

import binascii
import struct
from fractions import Fraction

import numpy as np

from .errors import AnchorFileError, CorruptStreamError
from .geometry import OctreePayload, octree_decode, octree_encode, sort_by_morton
from .model import (
    GROUPS,
    AnchorCloud,
    AttributeLayout,
    FloatAnchorCloud,
    QuantParams,
    validate,
)
from .quantize import check_int32, dequantize_features, quantize_features, quantize_positions
from .rlc import (
    MAX_ELEMENTS,
    decode_attributes,
    encode_attributes,
    read_varints,
    rlc_decode,
    rlc_encode,
    varint_pack,
)

MAGIC = b"VXGS"
VERSION = 1

_SECTION_ORDER = ("geometry", "offsets", "features", "scalings")


def _varint_bytes(*values) -> bytes:
    return varint_pack(np.asarray(values, dtype=np.uint64))


class _Cursor:
    """Bounds-checked reader for header parsing."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptStreamError("truncated header")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def varints(self, count: int) -> list:
        values, self.pos = read_varints(self.data, self.pos, count)
        return values


def quantize_cloud(fcloud: FloatAnchorCloud, quant: QuantParams) -> AnchorCloud:
    """Voxelize positions (first-wins duplicate removal) and quantize attributes."""
    voxels, dup_map = quantize_positions(fcloud.positions, quant.q_p, fcloud.bbox)
    n_vox = voxels.shape[0]
    # Keep the first input anchor that landed on each voxel.
    first = np.full(n_vox, fcloud.anchor_count, dtype=np.int64)
    np.minimum.at(first, dup_map, np.arange(fcloud.anchor_count))
    rows = {
        name: check_int32(
            quantize_features(getattr(fcloud, name)[first], quant.scale_for(name)), name
        )
        for name in GROUPS
    }
    return AnchorCloud(
        positions=voxels,
        offsets=rows["offsets"],
        features=rows["features"],
        scalings=rows["scalings"],
        layout=fcloud.layout,
        quant=quant,
        bbox=fcloud.bbox,
        mlp_blob=fcloud.mlp_blob,
    )


def dequantize_cloud(cloud: AnchorCloud) -> FloatAnchorCloud:
    """Map grid integers back to world coordinates and attribute reals."""
    lo = cloud.bbox[0]
    extent = cloud.bbox[1] - cloud.bbox[0]
    positions = lo + cloud.positions.astype(np.float64) * extent / cloud.quant.q_p
    return FloatAnchorCloud(
        positions=positions,
        offsets=dequantize_features(cloud.offsets, cloud.quant.q_o),
        features=dequantize_features(cloud.features, cloud.quant.q_a),
        scalings=dequantize_features(cloud.scalings, cloud.quant.q_s),
        layout=cloud.layout,
        bbox=cloud.bbox,
        mlp_blob=cloud.mlp_blob,
    )


def encode_container(cloud: AnchorCloud) -> bytes:
    """Serialize a valid cloud; byte-deterministic for a given cloud."""
    report = validate(cloud)
    if not report.valid:
        raise ValueError("invalid cloud: " + "; ".join(report.findings))
    cloud = sort_by_morton(cloud)

    octree = octree_encode(cloud.positions, cloud.quant.depth)
    geometry = rlc_encode(np.frombuffer(octree.occupancy_bytes, dtype=np.uint8)).serialized
    payloads, _bits = encode_attributes(cloud)

    sections = [geometry, payloads["offsets"], payloads["features"], payloads["scalings"]]
    table = []
    offset = 0
    for sec in sections:
        table.extend((offset, len(sec)))
        offset += len(sec)

    q = cloud.quant
    header = bytearray()
    header += MAGIC
    header += bytes([VERSION])
    header += _varint_bytes(cloud.anchor_count, q.q_p)
    for frac in (q.q_o, q.q_a, q.q_s):
        header += _varint_bytes(frac.numerator, frac.denominator)
    header += _varint_bytes(cloud.layout.k, cloud.layout.m)
    header += struct.pack("<6d", *cloud.bbox.ravel())
    header += _varint_bytes(len(cloud.mlp_blob))
    header += _varint_bytes(*table)
    return bytes(header) + b"".join(sections) + cloud.mlp_blob


def decode_container(data: bytes) -> AnchorCloud:
    """Parse and fully verify a container; returns the cloud in Morton order."""
    cur = _Cursor(bytes(data))
    if cur.take(4) != MAGIC:
        raise CorruptStreamError("bad magic")
    version = cur.take(1)[0]
    if version != VERSION:
        raise CorruptStreamError(f"unsupported version {version}")

    anchor_count, q_p, *fractions, k, m = cur.varints(10)
    scales = []
    for name, num, den in zip(("q_o", "q_a", "q_s"), fractions[0::2], fractions[1::2]):
        if num == 0 or den == 0:
            raise CorruptStreamError(f"{name} must be a positive rational")
        scales.append(Fraction(num, den))
    bbox = np.array(struct.unpack("<6d", cur.take(48))).reshape(2, 3)
    if not np.all(np.isfinite(bbox)):
        raise CorruptStreamError("non-finite bounding box")
    blob_len, *spans = cur.varints(1 + 2 * len(_SECTION_ORDER))
    table = list(zip(spans[0::2], spans[1::2]))
    header_len = cur.pos

    if anchor_count > MAX_ELEMENTS:
        raise CorruptStreamError(f"implausible anchor count {anchor_count}")
    if k <= 0 or m <= 0 or k > 2**16 or m > 2**16:
        raise CorruptStreamError(f"implausible layout k={k} m={m}")
    if anchor_count * (3 * k + m + 6) > MAX_ELEMENTS:
        raise CorruptStreamError("attribute volume exceeds decoder limit")
    try:
        quant = QuantParams(q_p=q_p, q_o=scales[0], q_a=scales[1], q_s=scales[2])
    except ValueError as exc:
        raise CorruptStreamError(str(exc)) from exc

    body = cur.data[header_len:]
    expected = 0
    sections = {}
    for name, (off, length) in zip(_SECTION_ORDER, table):
        if off != expected:
            raise CorruptStreamError(f"section {name} offset {off}, expected {expected}")
        if off + length > len(body):
            raise CorruptStreamError(f"section {name} exceeds file bounds")
        sections[name] = body[off : off + length]
        expected = off + length
    if expected + blob_len != len(body):
        raise CorruptStreamError(
            f"file length mismatch: header {header_len} + sections {expected} "
            f"+ blob {blob_len} != {len(data)}"
        )
    mlp_blob = body[expected:]

    occupancy = rlc_decode(sections["geometry"], max_elements=MAX_ELEMENTS)
    if occupancy.size and (occupancy.min() < 0 or occupancy.max() > 255):
        raise CorruptStreamError("occupancy byte out of range")
    positions = octree_decode(
        OctreePayload(
            depth=quant.depth,
            occupancy_bytes=occupancy.astype(np.uint8).tobytes(),
            point_count=anchor_count,
        )
    )
    if positions.size and positions.max() >= q_p:
        raise CorruptStreamError("decoded voxel outside the q_p grid")

    layout = AttributeLayout(k=k, m=m)
    offsets, features, scalings = decode_attributes(
        {name: sections[name] for name in GROUPS}, layout, anchor_count
    )
    return AnchorCloud(
        positions=positions,
        offsets=offsets,
        features=features,
        scalings=scalings,
        layout=layout,
        quant=quant,
        bbox=bbox,
        mlp_blob=mlp_blob,
    )


def analyze_container(data: bytes):
    """Build a RateReport (actual vs Laplace-estimated bits) for a container."""
    from .rate import RateReport, estimate_bits, fit_laplace, pearson

    cloud = decode_container(data)
    payloads, actual_group_bits = encode_attributes(cloud)

    octree = octree_encode(cloud.positions, cloud.quant.depth)
    geometry_bits = 8 * len(
        rlc_encode(np.frombuffer(octree.occupancy_bytes, dtype=np.uint8)).serialized
    )

    short = {"offsets": "O", "features": "A", "scalings": "S"}
    actual = {"P": geometry_bits, "MLP": 8 * len(cloud.mlp_blob)}
    estimated = {}
    channel_est = []
    channel_act = []
    for name in GROUPS:
        mat = cloud.group(name)
        actual[short[name]] = actual_group_bits[name]
        if mat.size == 0:
            estimated[short[name]] = 0.0
            continue
        model = fit_laplace(mat.ravel())
        estimated[short[name]] = estimate_bits(model, mat.ravel())
        for c in range(mat.shape[1]):
            col = mat[:, c]
            channel_est.append(estimate_bits(fit_laplace(col), col))
            channel_act.append(rlc_encode(col).bits)

    est_total = sum(estimated.values())
    alpha = (
        sum(actual[g] for g in ("O", "A", "S")) / est_total if est_total else float("nan")
    )
    group_alpha = {
        g: (actual[g] / estimated[g] if estimated[g] else None) for g in ("O", "A", "S")
    }
    return RateReport(
        actual_bits=actual,
        estimated_bits=estimated,
        group_alpha=group_alpha,
        alpha=alpha,
        correlation=pearson(channel_est, channel_act),
    )


def write_anchor_file(path, fcloud: FloatAnchorCloud) -> None:
    layout = fcloud.layout
    with open(path, "w") as fh:
        fh.write("voxgs-anchors 1\n")
        fh.write(f"anchors {fcloud.anchor_count}\n")
        fh.write(f"k {layout.k}\n")
        fh.write(f"m {layout.m}\n")
        fh.write("bbox " + " ".join(f"{v:.17g}" for v in fcloud.bbox.ravel()) + "\n")
        if fcloud.mlp_blob:
            fh.write("mlp " + binascii.hexlify(fcloud.mlp_blob).decode() + "\n")
        rows = np.hstack([fcloud.positions, fcloud.offsets, fcloud.features, fcloud.scalings])
        for row in rows:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_anchor_file(path) -> FloatAnchorCloud:
    """Parse the documented tabular anchor format, validating as it goes."""
    with open(path) as fh:
        lines = fh.read().splitlines()

    def fail(lineno, message):
        raise AnchorFileError(message, line=lineno)

    if not lines or lines[0].split() != ["voxgs-anchors", "1"]:
        fail(1, "missing 'voxgs-anchors 1' signature")

    header = {}
    mlp_blob = b""
    idx = 1
    while idx < len(lines):
        parts = lines[idx].split()
        if not parts:
            idx += 1
            continue
        key = parts[0]
        if key not in ("anchors", "k", "m", "bbox", "mlp"):
            break
        if key == "bbox":
            if len(parts) != 7:
                fail(idx + 1, "bbox needs 6 values")
            try:
                header["bbox"] = [float(v) for v in parts[1:]]
            except ValueError:
                fail(idx + 1, "bbox values must be reals")
        elif key == "mlp":
            if len(parts) != 2:
                fail(idx + 1, "mlp takes one hex string")
            try:
                mlp_blob = binascii.unhexlify(parts[1])
            except (binascii.Error, ValueError):
                fail(idx + 1, "invalid hex in mlp line")
        else:
            if len(parts) != 2 or not parts[1].lstrip("-").isdigit():
                fail(idx + 1, f"{key} needs one integer value")
            header[key] = int(parts[1])
        idx += 1

    for key in ("anchors", "k", "m", "bbox"):
        if key not in header:
            fail(idx, f"missing header field '{key}'")
    n, k, m = header["anchors"], header["k"], header["m"]
    if n < 0:
        fail(idx, "anchors must be non-negative")
    try:
        layout = AttributeLayout(k=k, m=m)
    except ValueError as exc:
        fail(idx, str(exc))
    width = 3 + layout.total_dims
    # Every line after the header is a data row, so a declared count above
    # the lines present is an error before it becomes an allocation.
    present = sum(1 for line in lines[idx:] if line.strip())
    if n > present:
        fail(len(lines), f"expected {n} data rows, found {present}")

    rows = np.zeros((n, width))
    row = 0
    for lineno in range(idx, len(lines)):
        parts = lines[lineno].split()
        if not parts:
            continue
        if row >= n:
            fail(lineno + 1, f"more than {n} data rows")
        if len(parts) != width:
            fail(lineno + 1, f"expected {width} columns, got {len(parts)}")
        try:
            values = np.array([float(v) for v in parts])
        except ValueError:
            fail(lineno + 1, "non-numeric value")
        if not np.all(np.isfinite(values)):
            fail(lineno + 1, "non-finite value in row")
        rows[row] = values
        row += 1
    if row != n:
        fail(len(lines), f"expected {n} data rows, found {row}")

    bbox = np.array(header["bbox"]).reshape(2, 3)
    if np.any(bbox[1] <= bbox[0]):
        fail(idx, "bbox max must exceed bbox min on every axis")
    od = layout.offset_dims
    return FloatAnchorCloud(
        positions=rows[:, :3],
        offsets=rows[:, 3 : 3 + od],
        features=rows[:, 3 + od : 3 + od + m],
        scalings=rows[:, 3 + od + m :],
        layout=layout,
        bbox=bbox,
        mlp_blob=mlp_blob,
    )


def repeat_probability(run_bias: float) -> float:
    """Map run_bias in [0, 1] to the per-element repeat probability."""
    if not 0.0 <= run_bias <= 1.0:
        raise ValueError("run_bias must lie in [0, 1]")
    # Affine map onto [0.6, 1.0]: even run_bias=0 keeps some short runs so the
    # estimator-vs-RLC efficiency ratio stays in a regime where a single alpha
    # fits the whole corpus, while run_bias=1 still pins channels constant.
    return 0.6 + 0.4 * float(run_bias)


def generate_synthetic(
    seed: int,
    anchors: int,
    layout: AttributeLayout,
    run_bias: float = 0.5,
    value_scale: float = 2.0,
    mlp_bytes: int = 0,
) -> FloatAnchorCloud:
    """Seeded synthetic float cloud whose RLC efficiency tracks run_bias.

    Each channel is a repeat-or-redraw chain along the fine-grid Morton
    order of the positions; the repeat probability grows with run_bias,
    and run_bias=1 makes every attribute channel constant.
    """
    if anchors < 0:
        raise ValueError("anchors must be non-negative")
    rng = np.random.default_rng(seed)
    rho = repeat_probability(run_bias)

    positions = rng.random((anchors, 3))
    bbox = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    if anchors:
        # Attribute runs must survive the codec's Morton sort, so generate the
        # correlated chains along fine-grid Morton order of the positions.
        from .geometry import morton_encode
        from .model import MAX_GRID

        fine = np.clip((positions * MAX_GRID).astype(np.int64), 0, MAX_GRID - 1)
        positions = positions[np.argsort(morton_encode(fine), kind="stable")]

    def channel(n, fresh):
        values = fresh(n)
        if n == 0:
            return values
        keep = rng.random(n) < rho
        keep[0] = False
        idx = np.where(keep, 0, np.arange(n))
        np.maximum.accumulate(idx, out=idx)
        return values[idx]

    def group(dims, fresh):
        if anchors == 0:
            return np.zeros((0, dims))
        return np.column_stack([channel(anchors, fresh) for _ in range(dims)])

    offsets = group(
        layout.offset_dims,
        lambda n: rng.laplace(0.0, value_scale, n) * (rng.random(n) > 0.6),
    )
    features = group(layout.feature_dims, lambda n: rng.laplace(0.0, value_scale, n))
    scalings = group(6, lambda n: rng.uniform(-value_scale, value_scale, n))

    return FloatAnchorCloud(
        positions=positions,
        offsets=offsets,
        features=features,
        scalings=scalings,
        layout=layout,
        bbox=bbox,
        mlp_blob=bytes(rng.integers(0, 256, size=mlp_bytes, dtype=np.uint8)) if mlp_bytes else b"",
    )
