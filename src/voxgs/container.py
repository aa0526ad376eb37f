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
import itertools
import re
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import AnchorFileError, CorruptStreamError
from .geometry import OctreePayload, morton_encode, octree_decode, octree_encode
from .model import (
    GROUPS,
    MAX_GRID,
    AnchorCloud,
    AttributeLayout,
    FloatAnchorCloud,
    QuantParams,
    _as_2d,
    _extent_overflow,
    as_fraction,
    spans,
    validate,
)
from .quantize import dequantize_features, quantize_features, voxelize
from .rate import RateReport, _value_counts, channel_bits, estimate_bits, fit_laplace, pearson
from .rlc import (
    MAX_ELEMENTS,
    _decode_tokens,
    decode_groups,
    encode_attributes,
    parse_groups,
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


def _quantize_rows(values: np.ndarray, kept: np.ndarray, scale):
    """quantize_features(values[kept], scale) as int32, quantized in spans of rows.

    Column-major (channel-major), as decoded groups are. Each span goes
    straight into the output: its rows are gathered and scaled in place,
    one more float buffer takes ste_round's abs, + 0.5, floor and copysign,
    and one assignment writes it to the int32 columns. Raises ValueError for
    a span that holds NaN or inf or rounds outside int32; quantize_cloud_kept
    then quantizes the groups whole to raise their error.
    """
    factor = float(as_fraction(scale, "q_f"))
    out = np.empty((kept.size, values.shape[1]), dtype=np.int32, order="F")
    for a, b in spans(kept.size, values.shape[1]):
        rows = values[kept[a:b]]
        rows *= factor
        rounded = np.abs(rows)
        rounded += 0.5
        np.floor(rounded, out=rounded)
        # NaN fails every comparison; a magnitude of 2**31 fits only as -2**31.
        fits = rounded.max() < 2.0**31
        np.copysign(rounded, rows, out=rounded)
        if not (fits or (rounded.min() >= -(2.0**31) and rounded.max() < 2.0**31)):
            raise ValueError("rows must round to int32 values")
        out[a:b] = rounded
    return out


def quantize_cloud_kept(fcloud: FloatAnchorCloud, quant: QuantParams):
    """quantize_cloud plus the input row index of the anchor kept on each voxel.

    Returns (cloud, kept); row i of the cloud comes from input row kept[i].
    """
    voxels, kept, _ = voxelize(fcloud.positions, quant.q_p, fcloud.bbox)
    try:
        groups = {
            name: _quantize_rows(getattr(fcloud, name), kept, quant.scale_for(name))
            for name in GROUPS
        }
    except ValueError:
        # Quantized whole, the groups raise the error that fails first, whatever
        # the spans: ste_round's for any group, then AnchorCloud's int32 check.
        groups = {
            name: quantize_features(getattr(fcloud, name)[kept], quant.scale_for(name))
            for name in GROUPS
        }
    cloud = AnchorCloud(
        positions=voxels,
        **groups,
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
    # The decoder refuses anything beyond MAX_ELEMENTS, so the encoder does too.
    if cloud.anchor_count * cloud.layout.total_dims > MAX_ELEMENTS:
        raise ValueError(f"attribute volume exceeds the decoder limit {MAX_ELEMENTS}")

    # validate's Morton codes key the octree's leaves and the attribute rows' order.
    codes = report.morton_codes
    octree = octree_encode(cloud.positions, cloud.quant.depth, codes)
    if len(octree.occupancy_bytes) > MAX_ELEMENTS:
        raise ValueError(f"octree occupancy exceeds the decoder limit {MAX_ELEMENTS}")
    geometry = rlc_encode(np.frombuffer(octree.occupancy_bytes, dtype=np.uint8)).serialized
    payloads, _bits = encode_attributes(cloud, codes)

    sections = [geometry, payloads["offsets"], payloads["features"], payloads["scalings"]]
    lengths = [len(sec) for sec in sections]
    table = np.column_stack([np.cumsum([0] + lengths[:-1]), lengths]).ravel()

    q = cloud.quant
    fractions = [v for frac in (q.q_o, q.q_a, q.q_s) for v in (frac.numerator, frac.denominator)]
    header = (
        MAGIC
        + bytes([VERSION])
        + varint_pack([cloud.anchor_count, q.q_p, *fractions, cloud.layout.k, cloud.layout.m])
        + struct.pack("<6d", *cloud.bbox.ravel())
        + varint_pack([len(cloud.mlp_blob), *table])
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
    if overflow := _extent_overflow(bbox, q_p):
        raise CorruptStreamError(overflow)
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


def _section_bits(sections) -> dict:
    return {key: 8 * len(sections[name]) for key, name in _SECTIONS.items()}


def section_bits(data: bytes) -> dict:
    """Bits of each section (keys P, O, A, S, MLP), read from the header alone."""
    return _section_bits(_parse_header(data)[-1])


def _decode(data: bytes):
    """(anchor_count, quant, layout, bbox, sections, positions); checks all but the groups."""
    anchor_count, quant, layout, bbox, sections = _parse_header(data)

    # Each internal node has one occupancy byte, and none of the depth
    # levels holds more nodes than the anchor_count leaves.
    max_nodes = min(anchor_count * quant.depth, MAX_ELEMENTS)
    occupancy = rlc_decode(sections["geometry"], max_elements=max_nodes)
    try:
        occupancy = _as_2d(occupancy[:, None], np.uint8, 1, "occupancy").tobytes()
    except ValueError:
        raise CorruptStreamError("occupancy byte out of range") from None
    positions = octree_decode(
        OctreePayload(depth=quant.depth, occupancy_bytes=occupancy, point_count=anchor_count)
    )
    if positions.size and positions.max() >= quant.q_p:
        raise CorruptStreamError("decoded voxel outside the q_p grid")
    return anchor_count, quant, layout, bbox, sections, positions


def decode_container(data: bytes) -> AnchorCloud:
    """Parse and fully verify a container; returns the cloud in Morton order."""
    anchor_count, quant, layout, bbox, sections, positions = _decode(data)
    groups, _ = decode_groups(sections, layout, anchor_count)
    return AnchorCloud(
        positions=positions, **groups, layout=layout, quant=quant, bbox=bbox, mlp_blob=sections["mlp"]
    )


def analyze_container(data: bytes):
    """Build a RateReport (actual vs Laplace-estimated bits) for a container.

    Actual bits are the container's own sizes: each section's length from
    the header and each attribute channel's length from the decoder. The
    container is checked as decode_container checks it but never expanded:
    _value_counts turns each span of channels' tokens into value counts,
    channel_bits prices a group's channels in one pass, and fit_laplace and
    estimate_bits price the group from its channels' counts, merged.
    """
    anchor_count, _, layout, _, sections, _ = _decode(data)
    actual = _section_bits(sections)
    estimated = dict.fromkeys("OAS", 0.0)
    channel_est, channel_act = [], []
    # Not zipped with the keys: zip would hold each group's tokens while the
    # next group is parsed.
    for name, pairs, bounds, nbytes in parse_groups(sections, layout, anchor_count):
        if anchor_count == 0:
            continue
        key = "OAS"[GROUPS.index(name)]
        rows = []
        for a, b in spans(len(bounds) - 1, anchor_count):
            values, runs = _decode_tokens(pairs[bounds[a] : bounds[b]])
            channels, v, n = _value_counts(values, runs, np.diff(bounds[a : b + 1]))
            rows.append((channels + a, v, n))
        channels, v, n = map(np.concatenate, zip(*rows))
        channel_est.extend(channel_bits(channels, v, n))
        _, v, n = _value_counts(v, n, [v.size])
        estimated[key] = estimate_bits(fit_laplace(v, n), v, n)
        channel_act.extend(8 * nbytes)
        del pairs, values, runs  # so the next group's parse does not hold these tokens

    est_total = sum(estimated.values())
    alpha = sum(actual[g] for g in "OAS") / est_total if est_total else float("nan")
    group_alpha = {g: actual[g] / estimated[g] if estimated[g] else None for g in "OAS"}
    return RateReport(actual, estimated, group_alpha, alpha, pearson(channel_est, channel_act))


def write_anchor_file(path, fcloud: FloatAnchorCloud) -> None:
    """Write fcloud in the anchor text format read_anchor_file parses.

    Each row is positions, offsets, features and scalings, every value
    formatted "%.17g" (exact for float64; nan, inf and -inf as such),
    separated by single spaces and ended by "\\n": the bytes
    np.savetxt(fh, rows, fmt="%.17g") writes. The rows go out in spans of
    model.spans rows. Within a span each column's values are grouped by
    their bit pattern, so -0.0 stays apart from 0.0, and each distinct
    value is formatted once; the span's strings are gathered back into row
    order and written with one join.
    """
    layout = fcloud.layout
    groups = (fcloud.positions, fcloud.offsets, fcloud.features, fcloud.scalings)
    columns = [group[:, j] for group in groups for j in range(group.shape[1])]
    formats = ["%.17g "] * (len(columns) - 1) + ["%.17g\n"]
    with open(path, "w") as fh:
        fh.write("voxgs-anchors 1\n")
        fh.write(f"anchors {fcloud.anchor_count}\n")
        fh.write(f"k {layout.k}\n")
        fh.write(f"m {layout.m}\n")
        fh.write("bbox " + " ".join(f"{v:.17g}" for v in fcloud.bbox.ravel()) + "\n")
        if fcloud.mlp_blob:
            fh.write("mlp " + binascii.hexlify(fcloud.mlp_blob).decode() + "\n")
        for start, stop in spans(fcloud.anchor_count, len(columns)):
            block = np.empty((stop - start, len(columns)), dtype=object)
            for c, (column, fmt) in enumerate(zip(columns, formats)):
                bits, inverse = np.unique(column[start:stop].view(np.int64), return_inverse=True)
                text = list(map(fmt.__mod__, bits.view(np.float64).tolist()))
                block[:, c] = np.array(text, dtype=object)[inverse]
            fh.write("".join(block.ravel().tolist()))


def read_anchor_file(path) -> FloatAnchorCloud:
    """Parse the documented tabular anchor format, validating as it goes.

    A well-formed file is parsed by one np.loadtxt call as it streams in.
    Any other file is parsed line by line, which gives the same result and
    is the parse that names the line of an error.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            parsed = _bulk_rows(fh)
        if parsed is None:
            with open(path, "rb") as fh:
                parsed = _checked_rows(fh.read())
    except OSError as exc:
        raise AnchorFileError(f"cannot read {path}: {exc.strerror or exc}") from exc

    header, rows = parsed
    bbox = np.array(header.bbox).reshape(2, 3)
    if np.any(bbox[1] <= bbox[0]):
        raise AnchorFileError("bbox max must exceed bbox min on every axis", line=header.idx)
    od, m = header.layout.offset_dims, header.layout.m
    return FloatAnchorCloud(
        positions=rows[:, :3],
        offsets=rows[:, 3 : 3 + od],
        features=rows[:, 3 + od : 3 + od + m],
        scalings=rows[:, 3 + od + m :],
        layout=header.layout,
        bbox=bbox,
        mlp_blob=header.mlp_blob,
    )


@dataclass(frozen=True)
class _AnchorHeader:
    n: int
    layout: AttributeLayout
    bbox: list
    mlp_blob: bytes
    idx: int  # 0-based index of the first line after the header

    @property
    def width(self) -> int:
        return 3 + self.layout.total_dims


def _parse_anchor_header(lines):
    """(_AnchorHeader, first data line or None) from an iterator over a file's lines."""

    def fail(lineno, message):
        raise AnchorFileError(message, line=lineno)

    line = next(lines, None)
    if line is None or line.split() != ["voxgs-anchors", "1"]:
        fail(1, "missing 'voxgs-anchors 1' signature")

    fields = {}
    idx = 1
    for line in lines:
        parts = line.split()
        if not parts:
            idx += 1
            continue
        key = parts[0]
        if key not in ("anchors", "k", "m", "bbox", "mlp"):
            break
        if key in fields:
            fail(idx + 1, f"duplicate header field '{key}'")
        if key == "bbox":
            if len(parts) != 7:
                fail(idx + 1, "bbox needs 6 values")
            try:
                fields["bbox"] = [float(v) for v in parts[1:]]
            except ValueError:
                fail(idx + 1, "bbox values must be reals")
            if not np.all(np.isfinite(fields["bbox"])):
                fail(idx + 1, "bbox values must be finite")
        elif key == "mlp":
            if len(parts) != 2:
                fail(idx + 1, "mlp takes one hex string")
            try:
                fields["mlp"] = binascii.unhexlify(parts[1])
            except (binascii.Error, ValueError):
                fail(idx + 1, "invalid hex in mlp line")
        else:
            if len(parts) != 2 or not re.fullmatch(r"-?[0-9]+", parts[1]):
                fail(idx + 1, f"{key} needs one integer value")
            fields[key] = int(parts[1])
        idx += 1
    else:
        line = None

    for key in ("anchors", "k", "m", "bbox"):
        if key not in fields:
            fail(idx, f"missing header field '{key}'")
    if fields["anchors"] < 0:
        fail(idx, "anchors must be non-negative")
    try:
        layout = AttributeLayout(k=fields["k"], m=fields["m"])
    except ValueError as exc:
        fail(idx, str(exc))
    header = _AnchorHeader(fields["anchors"], layout, fields["bbox"], fields.get("mlp", b""), idx)
    return header, line


# Characters other than "\n" and "\r" at which str.splitlines() breaks a line;
# the non-ASCII ones ("\x85", "\u2028", "\u2029") fail isascii() first.
_ASCII_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


def _plain_lines(fh):
    """The lines of a text file; ValueError at a non-ASCII or extra line-break character.

    Without those characters a text file's lines are exactly those
    str.splitlines() finds, and on them np.loadtxt splits fields as
    str.split() does and parses every value it accepts as float() does.
    """
    for line in fh:
        if not line.isascii() or any(c in line for c in _ASCII_BREAKS):
            raise ValueError("line needs the line-by-line parse")
        yield line


def _bulk_rows(fh):
    """(_AnchorHeader, rows) from one np.loadtxt call, or None to parse line by line."""
    lines = _plain_lines(fh)
    try:
        header, first = _parse_anchor_header(lines)
        if header.n == 0 or first is None:
            return None
        rows = np.loadtxt(
            itertools.chain((first,), lines), dtype=np.float64, comments=None, ndmin=2
        )
    except (AnchorFileError, ValueError):
        # ValueError: a loadtxt parse error, a line _plain_lines refuses, or UnicodeDecodeError.
        return None
    if rows.shape != (header.n, header.width) or not np.isfinite(rows).all():
        return None
    return header, rows


def _checked_rows(data: bytes):
    """(_AnchorHeader, rows) from a file's bytes, naming the line of any error."""

    def fail(lineno, message):
        raise AnchorFileError(message, line=lineno)

    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # The "x" stands in for the bad byte, so a line break just before it counts.
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise AnchorFileError("not UTF-8 text", line=line) from None
    header, _ = _parse_anchor_header(iter(lines))
    n, width = header.n, header.width
    # Every line after the header is a data row, and a row of width values
    # takes at least 2 * width - 1 characters, so a declared count above the
    # rows present or a row too short for the header's width is an error
    # before it becomes an allocation.
    data_lines = [i for i in range(header.idx, len(lines)) if lines[i].strip()]
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
    return header, rows


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
