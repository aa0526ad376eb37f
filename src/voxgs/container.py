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

The container is the one source of size facts: section_bits reads each
section's size from the header alone, and analyze_container takes each
attribute channel's size from the decoder's parse. Nothing is re-encoded to
measure it, so a container that decodes but is not canonical reports the
bytes it holds.

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
from .quantize import check_int32, dequantize_features, quantize_features, voxelize
from .rlc import (
    MAX_ELEMENTS,
    decode_groups,
    encode_attributes,
    read_varints,
    rlc_decode,
    rlc_encode,
    varint_pack,
)

MAGIC = b"VXGS"
VERSION = 1

# Sections in file order, then the MLP blob, keyed as RateReport.actual_bits.
_SECTIONS = {"P": "geometry", "O": "offsets", "A": "features", "S": "scalings", "MLP": "mlp"}
_SECTION_ORDER = tuple(_SECTIONS.values())[:-1]


def _varint_bytes(*values) -> bytes:
    return varint_pack(np.asarray(values, dtype=np.uint64))


def quantize_cloud_kept(fcloud: FloatAnchorCloud, quant: QuantParams):
    """quantize_cloud plus the input row index of the anchor kept on each voxel.

    Returns (cloud, kept); row i of the cloud comes from input row kept[i].
    """
    voxels, kept, _ = voxelize(fcloud.positions, quant.q_p, fcloud.bbox)
    rows = {
        name: check_int32(
            quantize_features(getattr(fcloud, name)[kept], quant.scale_for(name)), name
        )
        for name in GROUPS
    }
    cloud = AnchorCloud(
        positions=voxels,
        offsets=rows["offsets"],
        features=rows["features"],
        scalings=rows["scalings"],
        layout=fcloud.layout,
        quant=quant,
        bbox=fcloud.bbox,
        mlp_blob=fcloud.mlp_blob,
    )
    return cloud, kept


def quantize_cloud(fcloud: FloatAnchorCloud, quant: QuantParams) -> AnchorCloud:
    """Voxelize positions (first-wins duplicate removal) and quantize attributes."""
    return quantize_cloud_kept(fcloud, quant)[0]


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
    lengths = [len(sec) for sec in sections]
    table = np.column_stack([np.cumsum([0] + lengths[:-1]), lengths]).ravel()

    q = cloud.quant
    fractions = [v for frac in (q.q_o, q.q_a, q.q_s) for v in (frac.numerator, frac.denominator)]
    header = (
        MAGIC
        + bytes([VERSION])
        + _varint_bytes(cloud.anchor_count, q.q_p, *fractions, cloud.layout.k, cloud.layout.m)
        + struct.pack("<6d", *cloud.bbox.ravel())
        + _varint_bytes(len(cloud.mlp_blob), *table)
    )
    return header + b"".join(sections) + cloud.mlp_blob


def _parse_header(data: bytes):
    """Parse and check a container's header and section table.

    Returns (anchor_count, quant, layout, bbox, sections): sections maps each
    name of _SECTIONS to its zero-copy slice of the data.
    """
    data = bytes(data)
    if len(data) < len(MAGIC) + 1:
        raise CorruptStreamError("truncated header")
    if data[:4] != MAGIC:
        raise CorruptStreamError("bad magic")
    if data[4] != VERSION:
        raise CorruptStreamError(f"unsupported version {data[4]}")

    (anchor_count, q_p, *fractions, k, m), pos = read_varints(data, 5, 10)
    scales = []
    for name, num, den in zip(("q_o", "q_a", "q_s"), fractions[0::2], fractions[1::2]):
        if num == 0 or den == 0:
            raise CorruptStreamError(f"{name} must be a positive rational")
        scales.append(Fraction(num, den))
    if pos + 48 > len(data):
        raise CorruptStreamError("truncated header")
    bbox = np.array(struct.unpack_from("<6d", data, pos)).reshape(2, 3)
    if not np.all(np.isfinite(bbox)):
        raise CorruptStreamError("non-finite bounding box")
    (blob_len, *spans), header_len = read_varints(data, pos + 48, 1 + 2 * len(_SECTION_ORDER))

    if anchor_count > MAX_ELEMENTS:
        raise CorruptStreamError(f"implausible anchor count {anchor_count}")
    try:
        layout = AttributeLayout(k=k, m=m)
        quant = QuantParams(q_p=q_p, q_o=scales[0], q_a=scales[1], q_s=scales[2])
    except ValueError as exc:
        raise CorruptStreamError(str(exc)) from exc
    if anchor_count * layout.total_dims > MAX_ELEMENTS:
        raise CorruptStreamError("attribute volume exceeds decoder limit")

    body = memoryview(data)[header_len:]
    expected = 0
    sections = {}
    for name, off, length in zip(_SECTION_ORDER, spans[0::2], spans[1::2]):
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
    sections["mlp"] = body[expected:]
    return anchor_count, quant, layout, bbox, sections


def section_bits(data: bytes) -> dict:
    """Bits of each section (keys P, O, A, S, MLP), read from the header alone."""
    sections = _parse_header(data)[-1]
    return {key: 8 * len(sections[name]) for key, name in _SECTIONS.items()}


def _decode(data: bytes):
    """decode_container plus each attribute channel's byte length, by group."""
    anchor_count, quant, layout, bbox, sections = _parse_header(data)

    # Each internal node has one occupancy byte, and none of the depth
    # levels holds more nodes than the anchor_count leaves.
    max_nodes = min(anchor_count * quant.depth, MAX_ELEMENTS)
    occupancy = rlc_decode(sections["geometry"], max_elements=max_nodes)
    if occupancy.size and (occupancy.min() < 0 or occupancy.max() > 255):
        raise CorruptStreamError("occupancy byte out of range")
    positions = octree_decode(
        OctreePayload(
            depth=quant.depth,
            occupancy_bytes=occupancy.astype(np.uint8).tobytes(),
            point_count=anchor_count,
        )
    )
    if positions.size and positions.max() >= quant.q_p:
        raise CorruptStreamError("decoded voxel outside the q_p grid")

    groups, channel_bytes = decode_groups(sections, layout, anchor_count)
    cloud = AnchorCloud(
        positions=positions,
        offsets=groups["offsets"],
        features=groups["features"],
        scalings=groups["scalings"],
        layout=layout,
        quant=quant,
        bbox=bbox,
        mlp_blob=sections["mlp"],
    )
    return cloud, channel_bytes


def decode_container(data: bytes) -> AnchorCloud:
    """Parse and fully verify a container; returns the cloud in Morton order."""
    return _decode(data)[0]


def analyze_container(data: bytes):
    """Build a RateReport (actual vs Laplace-estimated bits) for a container.

    Actual bits are the container's own sizes: each section's length from
    the header and each attribute channel's length from the decoder.
    """
    from .rate import RateReport, estimate_bits, fit_laplace, pearson

    cloud, channel_bytes = _decode(data)
    actual = section_bits(data)
    estimated = {}
    channel_est = []
    channel_act = []
    for key in ("O", "A", "S"):
        name = _SECTIONS[key]
        mat = cloud.group(name)
        if mat.size == 0:
            estimated[key] = 0.0
            continue
        estimated[key] = estimate_bits(fit_laplace(mat.ravel()), mat.ravel())
        for c in range(mat.shape[1]):
            col = mat[:, c]
            channel_est.append(estimate_bits(fit_laplace(col), col))
        channel_act.extend(8 * channel_bytes[name])

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
    # Every line after the header is a data row, and a row of width values
    # takes at least 2 * width - 1 characters, so a declared count above the
    # rows present or a row too short for the header's width is an error
    # before it becomes an allocation.
    data_lines = [i for i in range(idx, len(lines)) if lines[i].strip()]
    if n > len(data_lines):
        fail(len(lines), f"expected {n} data rows, found {len(data_lines)}")
    for lineno in data_lines[:n]:
        if len(lines[lineno]) < 2 * width - 1:
            fail(lineno + 1, f"expected {width} columns, got {len(lines[lineno].split())}")

    rows = np.zeros((n, width))
    for row, lineno in enumerate(data_lines):
        parts = lines[lineno].split()
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


def markov_channels(rng, n: int, dims: int, fresh, repeat_prob: float) -> np.ndarray:
    """(n, dims) matrix of repeat-or-redraw chains, drawn one column at a time.

    Each column draws fresh(n), then each element after the first repeats
    its predecessor with probability repeat_prob.
    """
    columns = []
    for _ in range(dims):
        values = fresh(n)
        keep = rng.random(n) < repeat_prob
        keep[:1] = False
        idx = np.where(keep, 0, np.arange(n))
        np.maximum.accumulate(idx, out=idx)
        columns.append(values[idx])
    return np.column_stack(columns)


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

    def group(dims, fresh):
        return markov_channels(rng, anchors, dims, fresh, rho)

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
