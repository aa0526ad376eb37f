"""Run-length coding of integer streams with varint/zigzag serialization.

Per-channel byte format (bit-exact):
    [varint element_count] then repeated [varint run_length >= 1][varint zigzag(value)]
until element_count elements have been produced. Varints are little-endian
base-128 with continuation bit 0x80. Runs are maximal: adjacent tokens carry
distinct values. There is no further entropy-coding stage (bypass mode).

An attribute group is its channels' streams concatenated, channel-major.
The whole group is coded in one pass: it is flattened channel-major with a
run break forced at every channel start, tokenized at once and packed with
one varint_pack call; decoding unpacks the group once and expands it with
one repeat. A single channel (rlc_encode, rlc_decode) is the one-channel
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

from .errors import CorruptStreamError
from .geometry import is_morton_sorted
from .model import GROUPS, AnchorCloud, AttributeLayout

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
    """Serialize an array of uint64 as concatenated LEB128 varints."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
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
    """Maximal-run tokenization of an integer sequence plus its serialization."""

    values: np.ndarray       # (t,) int64 token values, adjacent entries distinct
    run_lengths: np.ndarray  # (t,) int64, all >= 1
    serialized: bytes

    @property
    def element_count(self) -> int:
        return int(self.run_lengths.sum())

    @property
    def bits(self) -> int:
        return 8 * len(self.serialized)


def _encode_channels(mat: np.ndarray):
    """Tokenize and serialize every column of an (n, c) matrix in one pass.

    The matrix is flattened channel-major and a run break is forced at every
    channel start, so runs stay maximal within a channel and never cross into
    the next. The serialization is the per-channel streams concatenated.
    Returns (token values, run lengths, serialized bytes).
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
    token_values = flat[starts].astype(np.int64, copy=False)
    runs = np.diff(starts, append=flat.size)
    pairs = np.empty((token_values.size, 2), dtype=np.uint64)
    pairs[:, 0] = runs
    pairs[:, 1] = zigzag_encode(token_values)
    # Each channel's count slot goes before the pair of its first token.
    first_token = np.searchsorted(starts // max(n, 1), np.arange(dims))
    slots = np.insert(pairs.ravel(), 2 * first_token, n)
    return token_values, runs, varint_pack(slots)


def tokenize_runs(values: np.ndarray):
    """Split a sequence into (token values, run lengths) with maximal runs."""
    seq = np.asarray(values, dtype=np.int64).ravel()
    token_values, runs, _ = _encode_channels(seq[:, None])
    return token_values, runs


def rlc_encode(values) -> RlcStream:
    """Encode a signed integer sequence; empty sequences are allowed."""
    seq = np.asarray(values, dtype=np.int64).ravel()
    token_values, runs, serialized = _encode_channels(seq[:, None])
    return RlcStream(values=token_values, run_lengths=runs, serialized=serialized)


def _decode_channels(data, dims: int, max_elements: int):
    """Decode dims consecutive channel streams from the start of a byte buffer.

    Run sums come from one prefix sum per slot parity over the whole group.
    A channel's end is then a binary search within its own window of
    2 * count slots, so no channel scans the slots of the channels after it.
    Returns (the channels' elements concatenated, each channel's element
    count, each channel's byte length). The byte lengths are taken from the
    varint boundaries of the parse; they sum to len(data) exactly when no
    bytes follow the last channel.
    """
    varints, ends = _varint_unpack(data)
    # Clipping keeps the prefix sums from wrapping; a clipped run still
    # overshoots any count the caller accepts.
    clipped = np.minimum(varints, max_elements + 1).astype(np.int64)
    prefix = [np.concatenate(([0], np.cumsum(clipped[p::2]))) for p in (0, 1)]
    counts = []
    firsts = []
    tokens = []
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
        tokens.append(t)
    tokens = np.asarray(tokens, dtype=np.int64)
    firsts = np.asarray(firsts, dtype=np.int64)
    before = np.cumsum(tokens) - tokens
    run_slots = np.repeat(firsts - 2 * before, tokens) + 2 * np.arange(tokens.sum())
    runs = varints[run_slots].astype(np.int64)
    if np.any(runs < 1):
        raise CorruptStreamError("run length of zero")
    # A channel's bytes end with the last byte of its last varint.
    nbytes = np.diff(ends[firsts + 2 * tokens - 1] + 1, prepend=0)
    return np.repeat(zigzag_decode(varints[run_slots + 1]), runs), counts, nbytes


def rlc_decode(data, max_elements: int = MAX_ELEMENTS) -> np.ndarray:
    """Decode a single serialized channel stream back to the exact sequence."""
    if isinstance(data, RlcStream):
        data = data.serialized
    data = bytes(data)
    if not data:
        raise CorruptStreamError("empty stream")
    decoded, _, nbytes = _decode_channels(data, 1, max_elements)
    if nbytes[0] != len(data):
        raise CorruptStreamError("trailing bytes after stream")
    return decoded


def encode_attributes(cloud: AnchorCloud):
    """RLC-encode the three attribute groups of a Morton-sorted cloud.

    Channels are serialized channel-major: within each group, all anchors'
    channel 0, then channel 1, and so on, each channel an independent stream.
    Each group is tokenized and serialized in one pass; the bytes are those
    of the per-channel streams concatenated.
    Returns (payloads, bits) dicts keyed by group name.
    """
    if cloud.anchor_count > 1 and not is_morton_sorted(cloud.positions):
        raise ValueError("cloud must be sorted in Morton order before attribute coding")
    payloads = {}
    bits = {}
    for name in GROUPS:
        payloads[name] = _encode_channels(cloud.group(name))[2]
        bits[name] = 8 * len(payloads[name])
    return payloads, bits


def decode_groups(payloads, layout: AttributeLayout, anchor_count: int):
    """Decode the attribute groups and measure their channel streams.

    Each group is parsed with one varint pass and expanded with one repeat.
    Returns (matrices, channel_bytes), dicts keyed by group name: the
    (anchor_count, dims) int32 matrix, and each channel's serialized byte
    length as found in the payload.
    """
    if anchor_count < 0 or anchor_count > MAX_ELEMENTS:
        raise CorruptStreamError(f"implausible anchor count {anchor_count}")
    matrices = {}
    channel_bytes = {}
    for name in GROUPS:
        dims = layout.dims_for(name)
        payload = payloads[name]
        flat, counts, nbytes = _decode_channels(payload, dims, anchor_count)
        for c, count in enumerate(counts):
            if count != anchor_count:
                raise CorruptStreamError(
                    f"{name} channel {c} decodes {count} elements, expected {anchor_count}"
                )
        if nbytes.sum() != len(payload):
            raise CorruptStreamError(f"trailing bytes after {name} channels")
        if flat.size and (flat.min() < -(2**31) or flat.max() > 2**31 - 1):
            raise CorruptStreamError(f"{name} values overflow int32")
        matrices[name] = np.ascontiguousarray(flat.reshape(dims, anchor_count).T, dtype=np.int32)
        channel_bytes[name] = nbytes
    return matrices, channel_bytes


def decode_attributes(payloads, layout: AttributeLayout, anchor_count: int):
    """Invert encode_attributes; returns (offsets, features, scalings) int32 matrices."""
    matrices, _ = decode_groups(payloads, layout, anchor_count)
    return matrices["offsets"], matrices["features"], matrices["scalings"]
