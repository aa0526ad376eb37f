"""Run-length coding of integer streams with varint/zigzag serialization.

Per-channel byte format (bit-exact):
    [varint element_count] then repeated [varint run_length >= 1][varint zigzag(value)]
until element_count elements have been produced. Varints are little-endian
base-128 with continuation bit 0x80. Runs are maximal: adjacent tokens carry
distinct values. There is no further entropy-coding stage (bypass mode).

An attribute group is its channels' streams concatenated, channel-major.
Channel streams are independent, so a group is coded in spans of channels
on the pool (see _pool): each span is flattened channel-major with a run
break forced at every channel start, tokenized at once and packed with one
varint_pack call, and the spans' bytes are joined in order. Decoding
unpacks the group once, walks its channels in order and drops their count
slots, so the group's tokens are one array of (run, zigzag value) pairs and
a channel's tokens are a slice of it. Faults are checked in one order:
varints, the walk, a run of zero, a channel count, trailing bytes, and last
an int32 overflow. Each span of channels is then expanded with one repeat
into its columns of the output, on the calling thread: np.repeat holds the
interpreter lock, so tasks would not overlap, and the spans bound the
temporaries. A single channel (rlc_encode, rlc_decode) is the one-channel
case of the same kernels, and varint_pack and _varint_unpack hold the only
LEB128 writer and decoding rule of the codec.

The decoder also reports each channel's serialized byte length, read from
the varint boundaries it parses anyway (decode_groups). Those are the bytes
actually in the stream: a stream that decodes but is not canonical, such as
one run split into two equal-valued runs or an overlong varint, counts as
the bytes it holds, not as the size its re-encoding would have.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pool import run, spans
from .errors import CorruptStreamError
from .geometry import sort_by_morton
from .model import GROUPS, AnchorCloud, AttributeLayout, _as_2d

# Decoders refuse element counts above this to keep allocations bounded on
# hostile input; legitimate streams in this codec stay far below it.
MAX_ELEMENTS = 1 << 26

_MAX_VARINT_BYTES = 10  # enough for any uint64


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.uint64)
    return ((v >> np.uint64(1)).astype(np.int64)) ^ -((v & np.uint64(1)).astype(np.int64))


# Smallest value that needs j + 1 bytes, for j = 1 .. 9: 2**7, 2**14, ..., 2**63.
_VARINT_THRESHOLDS = np.array(
    [1 << (7 * j) for j in range(1, _MAX_VARINT_BYTES)], dtype=np.uint64
)


def _septet(values: np.ndarray, j: int, more: np.ndarray) -> np.ndarray:
    """Byte j of each value's varint: 7 value bits plus the continuation bit."""
    low = (values >> np.uint64(7 * j)) & np.uint64(0x7F)
    return (low | (more.astype(np.uint64) << np.uint64(7))).astype(np.uint8)


def varint_pack(values: np.ndarray) -> bytes:
    """Serialize integers as concatenated LEB128 varints; ValueError unless uint64 holds each."""
    v = _as_2d(np.reshape(values, (-1, 1)), np.uint64, 1, "values")[:, 0]
    if v.size == 0:
        return b""
    width = int(np.searchsorted(_VARINT_THRESHOLDS, v.max(), side="right")) + 1
    nbytes = np.ones(v.size, dtype=np.int64)
    for threshold in _VARINT_THRESHOLDS[: width - 1]:
        nbytes += v >= threshold
    starts = np.cumsum(nbytes) - nbytes
    out = np.empty(int(starts[-1] + nbytes[-1]), dtype=np.uint8)
    out[starts] = _septet(v, 0, nbytes > 1)
    # Later bytes touch only the values that are still that long.
    idx = np.flatnonzero(nbytes > 1)
    for j in range(1, width):
        idx = idx[nbytes[idx] > j]
        out[starts[idx] + j] = _septet(v[idx], j, nbytes[idx] > j + 1)
    return out.tobytes()


def _varint_unpack(data):
    """Parse every varint in the buffer; raises on truncation or overlength.

    Returns (values, ends): ends holds the index of each varint's last byte.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if buf.size == 0:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    cont = buf >= 0x80
    if cont[-1]:
        raise CorruptStreamError("truncated varint at end of stream")
    ends = np.flatnonzero(~cont)
    lengths = np.diff(ends, prepend=-1)
    width = int(lengths.max())
    if width > _MAX_VARINT_BYTES:
        raise CorruptStreamError("varint longer than 10 bytes")
    starts = ends + 1 - lengths
    values = (buf[starts] & 0x7F).astype(np.uint64)
    idx = np.flatnonzero(lengths > 1)
    for j in range(1, width):
        idx = idx[lengths[idx] > j]
        values[idx] |= (buf[starts[idx] + j] & 0x7F).astype(np.uint64) << np.uint64(7 * j)
    return values, ends


def varint_unpack_all(data: bytes) -> np.ndarray:
    """Parse every varint in the buffer; raises on truncation or overlength."""
    return _varint_unpack(data)[0]


def read_varints(data: bytes, pos: int, count: int):
    """Read count consecutive varints starting at data[pos].

    Decodes through varint_unpack_all, so it keeps the same rule and errors,
    and also fails when the data ends before count varints are complete.
    Returns (list of ints, position just past the last varint).
    """
    window = data[pos : pos + count * _MAX_VARINT_BYTES]
    ends = np.flatnonzero(np.frombuffer(window, dtype=np.uint8) < 0x80)[:count]
    stop = int(ends[-1]) + 1 if ends.size else 0
    values = varint_unpack_all(window[:stop])
    if ends.size < count:
        # The unterminated tail is either a varint that runs past 10 bytes
        # or one cut off by the end of the data.
        if len(window) - stop >= _MAX_VARINT_BYTES:
            raise CorruptStreamError("varint longer than 10 bytes")
        raise CorruptStreamError("truncated varint")
    return [int(v) for v in values], pos + stop


@dataclass(frozen=True)
class RlcStream:
    """Serialized maximal-run coding of one integer sequence."""

    serialized: bytes

    @property
    def bits(self) -> int:
        return 8 * len(self.serialized)


def _encode_channels(mat: np.ndarray) -> bytes:
    """Tokenize and serialize every column of an (n, c) matrix in one pass.

    The matrix is flattened channel-major and a run break is forced at every
    channel start, so runs stay maximal within a channel and never cross into
    the next. The serialization is the per-channel streams concatenated.
    """
    n, dims = mat.shape
    flat = np.asarray(mat).ravel(order="F")
    if flat.size:
        brk = np.empty(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=brk[1:])
        brk[::n] = True
        starts = np.flatnonzero(brk)
    else:
        starts = np.zeros(0, dtype=np.int64)
    pairs = np.empty((starts.size, 2), dtype=np.uint64)
    pairs[:, 0] = np.diff(starts, append=flat.size)
    pairs[:, 1] = zigzag_encode(flat[starts])
    # Each channel's count slot goes before the pair of its first token.
    first_token = np.searchsorted(starts // max(n, 1), np.arange(dims))
    slots = np.insert(pairs.ravel(), 2 * first_token, n)
    return varint_pack(slots)


def rlc_encode(values) -> RlcStream:
    """Encode a signed integer sequence; empty sequences are allowed.

    Raises ValueError for a value that is not an integer int64 holds.
    """
    seq = _as_2d(np.reshape(values, (-1, 1)), np.int64, 1, "values")
    return RlcStream(serialized=_encode_channels(seq))


def _parse_channels(data, dims: int, max_elements: int):
    """Parse dims consecutive channel streams from the start of a byte buffer.

    Run sums come from one prefix sum per slot parity over the whole group.
    A channel's end is then a binary search within its own window of
    2 * count slots, so no channel scans the slots of the channels after it.
    Returns (pairs, bounds, counts, nbytes): pairs holds each token as a
    uint64 (run, zigzag value) row, channel c's at pairs[bounds[c]:bounds[c + 1]],
    and nbytes each channel's byte length from the varint boundaries, which
    sum to len(data) exactly when no bytes follow the last channel.
    """
    varints, ends = _varint_unpack(data)
    # Clipping keeps the prefix sums from wrapping; a clipped run still
    # overshoots any count the caller accepts. Freed before the pairs exist.
    clipped = np.minimum(varints, max_elements + 1).astype(np.int64)
    prefix = [np.concatenate(([0], np.cumsum(clipped[p::2]))) for p in (0, 1)]
    del clipped
    counts = []
    firsts = []
    bounds = [0]
    cursor = 0
    for _ in range(dims):
        if cursor >= varints.size:
            raise CorruptStreamError("missing channel stream")
        count = int(varints[cursor])
        if count > max_elements:
            raise CorruptStreamError(f"element count {count} exceeds limit {max_elements}")
        first = cursor + 1
        cum = prefix[first & 1][first >> 1 :][: count + 1]
        target = cum[0] + count
        t = int(cum.searchsorted(target))
        if t == cum.size or cum[t] != target:
            raise CorruptStreamError("run lengths do not sum to the element count")
        cursor = first + 2 * t
        if cursor > varints.size:
            raise CorruptStreamError("truncated token stream")
        counts.append(count)
        firsts.append(first)
        bounds.append(bounds[-1] + t)
    firsts = np.asarray(firsts, dtype=np.int64)
    # The inverse of _encode_channels' np.insert of the count slots, written
    # back into varints: a new array would pin the freed parse temporaries.
    keep = np.ones(cursor, dtype=bool)
    keep[firsts - 1] = False
    varints[: cursor - dims] = varints[:cursor][keep]
    pairs = varints[: cursor - dims].reshape(-1, 2)
    if not pairs[:, 0].all():
        raise CorruptStreamError("run length of zero")
    # A channel's bytes end with its last varint, the slot before the next count.
    nbytes = np.diff(ends[np.append(firsts[1:] - 2, cursor - 1)] + 1, prepend=0)
    return pairs, bounds, counts, nbytes


def rlc_decode(data, max_elements: int = MAX_ELEMENTS) -> np.ndarray:
    """Decode a single serialized channel stream back to the exact sequence."""
    if isinstance(data, RlcStream):
        data = data.serialized
    data = bytes(data)
    if not data:
        raise CorruptStreamError("empty stream")
    pairs, _, _, nbytes = _parse_channels(data, 1, max_elements)
    if nbytes[0] != len(data):
        raise CorruptStreamError("trailing bytes after stream")
    return np.repeat(zigzag_decode(pairs[:, 1]), pairs[:, 0].astype(np.int64))


def encode_attributes(cloud: AnchorCloud):
    """RLC-encode the three attribute groups, rows sorted into Morton order first.

    Morton order is the octree's leaf order, which the decoder returns. Channels
    are serialized channel-major: within each group, all anchors' channel 0,
    then channel 1, and so on, each channel an independent stream. Each span
    of a group's channels is tokenized and serialized in one pass; the bytes
    are those of the per-channel streams concatenated. Returns (payloads,
    bits) keyed by group.
    """
    cloud = sort_by_morton(cloud)
    payloads = {}
    bits = {}
    for name in GROUPS:
        mat = cloud.group(name)
        parts = run(lambda a, b: _encode_channels(mat[:, a:b]), spans(mat.shape[1], mat.shape[0]))
        payloads[name] = b"".join(parts)
        bits[name] = 8 * len(payloads[name])
    return payloads, bits


def decode_groups(payloads, layout: AttributeLayout, anchor_count: int):
    """Decode the attribute groups and measure their channel streams.

    Each group is parsed with one varint pass; spans of its channels' tokens
    are then expanded on the calling thread straight into their columns.
    Returns (matrices, channel_bytes), dicts keyed by group name: the
    (anchor_count, dims) int32 matrix, column-major so that each channel is
    contiguous, and each channel's serialized byte length as found in the
    payload.
    """
    if anchor_count < 0 or anchor_count > MAX_ELEMENTS:
        raise CorruptStreamError(f"implausible anchor count {anchor_count}")
    matrices = {}
    channel_bytes = {}
    for name in GROUPS:
        dims = layout.dims_for(name)
        payload = payloads[name]
        pairs, bounds, counts, nbytes = _parse_channels(payload, dims, anchor_count)
        for c, count in enumerate(counts):
            if count != anchor_count:
                raise CorruptStreamError(
                    f"{name} channel {c} decodes {count} elements, expected {anchor_count}"
                )
        if nbytes.sum() != len(payload):
            raise CorruptStreamError(f"trailing bytes after {name} channels")
        out = np.empty((anchor_count, dims), dtype=np.int32, order="F")
        for a, b in spans(dims, anchor_count):
            # Copied, not strided views: that keeps a 10^5-anchor round's peak RSS lower.
            runs, zigzag = pairs[bounds[a] : bounds[b]].T.copy()
            try:
                values = _as_2d(zigzag_decode(zigzag)[:, None], np.int32, 1, name)[:, 0]
            except ValueError:
                raise CorruptStreamError(f"{name} values overflow int32") from None
            out.T[a:b] = np.repeat(values, runs.astype(np.int64)).reshape(b - a, anchor_count)
        matrices[name] = out
        channel_bytes[name] = nbytes
    return matrices, channel_bytes


def decode_attributes(payloads, layout: AttributeLayout, anchor_count: int):
    """Invert encode_attributes; returns (offsets, features, scalings) int32 matrices."""
    matrices, _ = decode_groups(payloads, layout, anchor_count)
    return matrices["offsets"], matrices["features"], matrices["scalings"]
