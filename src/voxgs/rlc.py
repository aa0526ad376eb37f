"""Run-length coding of integer streams with varint/zigzag serialization.

Per-channel byte format (bit-exact):
    [varint element_count] then repeated [varint run_length >= 1][varint zigzag(value)]
until element_count elements have been produced. Varints are little-endian
base-128 with continuation bit 0x80. Runs are maximal: adjacent tokens carry
distinct values. There is no further entropy-coding stage (bypass mode).

An attribute group is its channels' streams concatenated, channel-major.
Channel streams are independent, so a group is coded in spans of channels
(model.spans): each span is flattened channel-major with a run break forced
at every channel start, tokenized at once and packed with one varint_pack
call, and the spans' bytes are joined in order. varint_pack's work grows
with the multi-byte varints (values of 128 or more), not with the varints:
every value's low byte is its first byte, and only the multi-byte varints
set its continuation bit and have their later bytes built and inserted
after it.

The parse (parse_groups) unpacks a group once with _varint_unpack, whose work
grows with the continuation bytes (>= 0x80), not with the varints: the bytes
left once those are removed are every one-byte varint's value and every
longer varint's last septet, and only the longer varints fold in their lower
septets. Besides the values it returns, for each continuation byte, the
index of the varint that owns it. The parse then walks the group's channels
on sums of the run slots in blocks of B slots, per slot parity, and drops
their count slots in place, so a group's tokens are one array of (run,
zigzag value) pairs, held in the unpacked varints' own memory, and a
channel's a slice of it. A block is one slot while a stream holds fewer
than _BLOCKED_VARINTS (8192) varints per channel, as every joined small
payload does, and the sums are then two whole prefix sums, the columns of
one array; longer streams use blocks of _BLOCK_SLOTS (64) slots, summed by
np.add.reduceat a chunk at a time, so the walk's extra memory is a
B-th of the varints. The walk is a Python loop on Python ints read through
memoryviews, with one bisect of the block sums per channel for its end and,
for longer blocks, a scan of at most B slots in the block where the channel
starts and in the block where it ends; then each channel's tokens move down
over the count slots before them, one slice assignment per channel, and the
channels' bounds and ends are built as arrays. It checks
every fault, in order: varints, the walk, a run of zero, a channel count,
trailing bytes, and last an int32 overflow (a zigzag code of 2**32 or
more). One routine, _parse_joined, parses and checks groups and raises the
first fault. Payloads that together fit one span (model._SPAN_ELEMENTS
bytes) are parsed joined, in one call, so a small container pays the
per-call costs once, not once per group; if that raises, and always for
larger payloads, it runs per group on each payload in place, and a group's
tokens are released before the next group's parse. _decode_tokens turns a
span of channels' tokens into int32 values and run lengths, unchecked and
in 32 bits, which the int32 check allows: decode_groups repeats them into
each span's columns, the spans bounding the temporaries, and
analyze_container, which runs only the parse, counts them. A single channel
(rlc_encode, rlc_decode) is the one-channel case of the same kernels, and
varint_pack and _varint_unpack hold the only LEB128 writer and decoding
rule of the codec.

The parse also reports each channel's serialized byte length. Varint i ends
at byte i plus the number of continuation bytes owned by varints 0..i, so a
channel's end is one search of its last varint in the owners. Those are the
bytes actually in the stream: a stream that decodes but is not canonical,
such as one run split into two equal-valued runs or an overlong varint,
counts as the bytes it holds, not as the size its re-encoding would have.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from . import model
from .errors import CorruptStreamError
from .geometry import sort_by_morton
from .model import GROUPS, AnchorCloud, AttributeLayout, _as_2d, spans

# Decoders refuse element counts above this to keep allocations bounded on
# hostile input; legitimate streams in this codec stay far below it.
MAX_ELEMENTS = 1 << 26

_MAX_VARINT_BYTES = 10  # enough for any uint64

# The channel walk sums the run slots of a parity in blocks of _BLOCK_SLOTS
# once a stream holds _BLOCKED_VARINTS varints per channel, and in blocks of
# one slot below that; longer blocks are clipped and summed _CHUNK_BLOCKS at
# a time.
_BLOCK_SLOTS = 64
_BLOCKED_VARINTS = 1 << 13
_CHUNK_BLOCKS = 1024


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


def varint_pack(values: np.ndarray) -> bytes:
    """Serialize integers as concatenated LEB128 varints; ValueError unless uint64 holds each.

    The work grows with the multi-byte varints, not with the values: every
    value's low byte is its first byte, and only the values of 128 or more
    get their continuation bit set and their later septets built and
    inserted after it. A stream with no such value is one astype(uint8).
    """
    v = _as_2d(values, np.uint64, 1, "values", flat=True)[:, 0]
    first = v.astype(np.uint8)
    wide = np.flatnonzero(v >= 0x80)
    if not wide.size:
        return first.tobytes()
    first[wide] |= 0x80
    # Septets after the first per wide value: the thresholds it reaches.
    tails = np.searchsorted(_VARINT_THRESHOLDS, v[wide], side="right")
    ends = np.cumsum(tails)
    owner = np.repeat(wide, tails)  # the value index of each tail byte
    k = np.arange(1, ends[-1] + 1)
    septet = k - np.repeat(ends - tails, tails)
    tail = (v[owner] >> (7 * septet).astype(np.uint64)).astype(np.uint8)
    tail |= 0x80
    tail[ends - 1] &= 0x7F  # a value's last byte does not continue
    # Tail byte k lands k bytes past its value's index: after the first
    # byte and the k - 1 tail bytes before it.
    at = owner + k
    out = np.empty(v.size + ends[-1], dtype=np.uint8)
    keep = np.ones(out.size, dtype=bool)
    keep[at] = False
    out[keep] = first
    out[at] = tail
    return out.tobytes()


def _varint_unpack(data):
    """Parse every varint in the buffer; raises on truncation or overlength.

    Returns (values, owner): values as uint64, bits above 2**64 dropped, and
    for each continuation byte (>= 0x80), in byte order, the index of the
    varint that owns it, so varint i ends at byte
    i + owner.searchsorted(i, side="right"). The work grows with the
    continuation bytes, not with the varints: with them removed, the buffer
    holds each varint's last septet, which is all of a one-byte varint, and
    only the longer varints shift it up and fold their lower septets in.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    cont = buf >= 0x80
    cpos = cont.nonzero()[0]
    if not cpos.size:
        return buf.astype(np.uint64), cpos
    if cont[-1]:
        raise CorruptStreamError("truncated varint at end of stream")
    values = buf[~cont].astype(np.uint64)
    at = np.arange(cpos.size)
    owner = cpos - at
    # Each run of equal owners is one varint's continuation bytes.
    edge = np.empty(cpos.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(owner[1:], owner[:-1], out=edge[1:-1])
    edges = edge.nonzero()[0]
    first = edges[:-1]
    runs = edges[1:] - first
    if runs.max() >= _MAX_VARINT_BYTES:
        raise CorruptStreamError("varint longer than 10 bytes")
    # Septet j of a varint moves up 7 * j bits; the terminator's shift drops
    # any bits above 2**64, as a uint64 does.
    shift = ((at - np.repeat(first, runs)) * 7).astype(np.uint64)
    low = np.bitwise_or.reduceat(np.bitwise_and(buf[cpos], 0x7F, dtype=np.uint64) << shift, first)
    multi = owner[first]
    values[multi] = values[multi] << (runs * 7).astype(np.uint64) | low
    return values, owner


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
    ends = (np.frombuffer(window, dtype=np.uint8) < 0x80).nonzero()[0][:count]
    stop = int(ends[-1]) + 1 if ends.size else 0
    values = varint_unpack_all(window[:stop])
    if ends.size < count:
        # The unterminated tail is either a varint that runs past 10 bytes
        # or one cut off by the end of the data.
        if len(window) - stop >= _MAX_VARINT_BYTES:
            raise CorruptStreamError("varint longer than 10 bytes")
        raise CorruptStreamError("truncated varint")
    return values.tolist(), pos + stop


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
    # Each channel's count slot goes before the pair of its first token.
    first_token = np.searchsorted(starts // max(n, 1), np.arange(dims))
    slots = np.empty(2 * starts.size + dims, dtype=np.uint64)
    head = np.zeros(slots.size, dtype=bool)
    head[2 * first_token + np.arange(dims)] = True
    slots[head] = n
    if starts.size:
        pairs = np.empty((starts.size, 2), dtype=np.uint64)
        np.subtract(starts[1:], starts[:-1], out=pairs[:-1, 0], casting="unsafe")
        pairs[-1, 0] = flat.size - starts[-1]
        pairs[:, 1] = zigzag_encode(flat[starts])
        slots[~head] = pairs.ravel()
    return varint_pack(slots)


def rlc_encode(values) -> RlcStream:
    """Encode a signed integer sequence; empty sequences are allowed.

    Raises ValueError for a value that is not an integer int64 holds.
    """
    return RlcStream(serialized=_encode_channels(_as_2d(values, np.int64, 1, "values", flat=True)))


def _block_prefix(varints, block: int, cap: int):
    """Per slot parity, 0 and then the running sums of its slots in blocks of block, each
    slot clipped to cap: entry k is the sum of the parity's first k * block slots.

    Returns two int64 memoryviews; a parity's last block may be short. Blocks
    of one slot are both whole prefixes, the columns of one array of slot
    pairs: the varints are clipped into it and summed down its columns in
    place. Longer blocks are clipped and summed by np.add.reduceat, a chunk
    of _CHUNK_BLOCKS blocks of a parity at a time, so no temporary grows
    with the varints.
    """
    size = varints.size
    if block == 1:
        cums = np.empty(((size + 1) // 2 + 1, 2), dtype=np.int64)
        cums[0] = 0
        sums = cums[1:].view(np.uint64)
        flat = sums.reshape(-1)
        np.minimum(varints, cap, out=flat[:size])
        flat[size:] = 0  # an odd last pair's missing odd slot
        np.cumsum(sums, axis=0, out=sums)
        return memoryview(cums[:, 0]), memoryview(cums[: size // 2 + 1, 1])
    chunk = block * _CHUNK_BLOCKS
    heads = np.arange(0, chunk, block)
    clipped = np.empty(min(chunk, (size + 1) // 2), dtype=np.uint64)
    prefix = []
    for parity in (0, 1):
        slots = varints[parity::2]
        cum = np.empty(1 - (-slots.size // block), dtype=np.int64)
        cum[0] = 0
        sums = cum[1:].view(np.uint64)
        for at in range(0, slots.size, chunk):
            part = np.minimum(slots[at : at + chunk], cap, out=clipped[: slots.size - at])
            first = at // block
            np.add.reduceat(part, heads[: sums.size - first], out=sums[first : first + _CHUNK_BLOCKS])
        np.cumsum(sums, out=sums)
        prefix.append(memoryview(cum))
    return prefix


def _block_walk(cum, run, start: int, count: int, block: int, cap: int):
    """(end, exact): the first slot at or after start where the sum of run's slots from
    start, each clipped to cap, reaches count, or start if none; and whether it equals count.

    run is one parity's slots and cum its _block_prefix. The clipped slots of
    start's block before start are added to the block's entry, and a bisect
    finds the first block edge at or past that plus count. The sum reaches
    it in the block before that edge, which is scanned from start or from
    its first slot without clipping: only the slot that reaches the target
    can exceed cap, and that slot overshoots it either way.
    """
    edge, lo = divmod(start, block)
    target = cum[edge] + count
    if lo:
        before = run[start - lo : start]
        part = sum(before)
        # A sum of at most cap has no slot above it to clip.
        target += part if part <= cap else sum(map(min, before, repeat(cap)))
    edge = bisect_left(cum, target, edge)
    if edge == len(cum):
        return start, False
    # An edge at or before start is start's block's own, reached by a count of zero.
    lo = max(start, (edge - 1) * block)
    base = target - count if lo == start else cum[edge - 1]
    sums = list(accumulate(run[lo : edge * block], initial=base))
    end = bisect_left(sums, target)
    return lo + end, sums[end] == target


def _parse_channels(data, dims: int, max_elements: int):
    """Parse dims consecutive channel streams from the start of a byte buffer.

    Run sums come per slot parity, in blocks of B slots (_block_prefix): one
    slot while the stream holds fewer than _BLOCKED_VARINTS varints per
    channel, _BLOCK_SLOTS from there on. Every slot is clipped to
    max_elements + 1 first, so the sums cannot wrap and a clipped run still
    overshoots any count the caller accepts. The walk reads each channel's
    count and its parity's block sums as Python ints from memoryviews. With
    one-slot blocks, one bisect from the channel's start finds the first
    sum at least the sum there plus its count; with longer blocks,
    _block_walk bisects the block sums and scans at most B slots in the
    block where the channel starts and in the block where it ends. The runs
    sum to the count exactly when that sum equals it no more than count
    tokens on. Each channel's tokens then move down over the count slots
    before them, one slice assignment per channel, and token bounds and
    byte ends are built from the slot positions.
    Returns (pairs, bounds, counts, nbytes): pairs holds each token as a
    uint64 (run, zigzag value) row, channel c's at pairs[bounds[c]:bounds[c + 1]],
    and nbytes each channel's byte length, found from the continuation bytes
    owned by its varints; they sum to len(data) exactly when no bytes follow
    the last channel.
    """
    varints, owner = _varint_unpack(data)
    size = varints.size
    block = _BLOCK_SLOTS if size >= _BLOCKED_VARINTS * dims else 1
    cap = max_elements + 1
    prefix = _block_prefix(varints, block, cap)
    values = memoryview(varints)
    runs = (values[0::2], values[1::2]) if block > 1 else None
    slots = []  # each channel's count slot, then the end of the last
    cursor = 0
    for _ in range(dims):
        if cursor >= size:
            raise CorruptStreamError("missing channel stream")
        count = values[cursor]
        if count > max_elements:
            raise CorruptStreamError(f"element count {count} exceeds limit {max_elements}")
        slots.append(cursor)
        cursor += 1
        cum = prefix[cursor & 1]
        start = cursor >> 1
        if block == 1:
            target = cum[start] + count
            end = bisect_left(cum, target, start)
            exact = end < len(cum) and cum[end] == target
        else:
            end, exact = _block_walk(cum, runs[cursor & 1], start, count, block, cap)
        if end - start > count or not exact:
            raise CorruptStreamError("run lengths do not sum to the element count")
        cursor += 2 * (end - start)
        if cursor > size:
            raise CorruptStreamError("truncated token stream")
    slots.append(cursor)
    del prefix, cum, runs
    at = np.array(slots)
    counts = varints[at[:-1]]  # read before the tokens move over the count slots
    # The inverse of _encode_channels' placement of the count slots, in place:
    # channel c's tokens move down over the c + 1 count slots before them.
    for c, (head, stop) in enumerate(zip(slots, slots[1:])):
        values[head - c : stop - c - 1] = values[head + 1 : stop]
    del values
    pairs = varints[: cursor - dims].reshape(-1, 2)
    if not pairs[:, 0].all():
        raise CorruptStreamError("run length of zero")
    # Channel c holds the slots after its count up to the next count slot.
    lasts = at[1:] - 1
    bounds = np.zeros(dims + 1, dtype=np.int64)
    np.cumsum((lasts - at[:-1]) >> 1, out=bounds[1:])
    # Varint i ends at byte i plus the continuation bytes owned up to it.
    stops = np.zeros(dims + 1, dtype=np.int64)
    np.add(lasts, owner.searchsorted(lasts, side="right") + 1, out=stops[1:])
    nbytes = stops[1:] - stops[:-1]
    return pairs, bounds, counts, nbytes


def rlc_decode(data, max_elements: int = MAX_ELEMENTS) -> np.ndarray:
    """Decode a single serialized channel stream back to the exact sequence.

    A memoryview is parsed in place; other input goes through bytes().
    """
    if isinstance(data, RlcStream):
        data = data.serialized
    elif not isinstance(data, memoryview):
        data = bytes(data)
    if not data:
        raise CorruptStreamError("empty stream")
    pairs, _, _, nbytes = _parse_channels(data, 1, max_elements)
    if nbytes[0] != len(data):
        raise CorruptStreamError("trailing bytes after stream")
    return np.repeat(zigzag_decode(pairs[:, 1]), pairs[:, 0].astype(np.int64))


def encode_attributes(cloud: AnchorCloud, codes=None):
    """RLC-encode the three attribute groups, rows sorted into Morton order first.

    Morton order is the octree's leaf order, which the decoder returns. Channels
    are serialized channel-major: within each group, all anchors' channel 0,
    then channel 1, and so on, each channel an independent stream. Each span
    of a group's channels is tokenized and serialized in one pass; the bytes
    are those of the per-channel streams concatenated. Returns (payloads,
    bits) keyed by group. codes, if given, are the positions' Morton codes in
    row order, which sort_by_morton then reads instead of computing.
    """
    cloud = sort_by_morton(cloud, codes)
    payloads = {}
    bits = {}
    for name in GROUPS:
        mat = cloud.group(name)
        parts = (_encode_channels(mat[:, a:b]) for a, b in spans(mat.shape[1], mat.shape[0]))
        payloads[name] = b"".join(parts)
        bits[name] = 8 * len(payloads[name])
    return payloads, bits


def _parse_joined(payloads, names, layout: AttributeLayout, anchor_count: int):
    """parse_groups' tuples for the named groups, from one _parse_channels call over
    their payloads joined; one name's payload is parsed as is, with no copy.

    Raises CorruptStreamError at the first fault: the parse's own, then per
    group a count other than anchor_count, bytes after its last channel, and
    a value int32 cannot hold. Once every group passes, each group's last
    channel ends exactly at its payload's end, so every varint lies inside
    its own payload and each group's tokens, bounds and byte lengths are
    those its own parse would find.
    """
    edges = list(accumulate(map(layout.dims_for, names), initial=0))
    data = payloads[names[0]] if len(names) == 1 else b"".join(payloads[name] for name in names)
    pairs, bounds, counts, nbytes = _parse_channels(data, edges[-1], anchor_count)
    groups = []
    for name, a, b in zip(names, edges[:-1], edges[1:]):
        if (short := np.flatnonzero(counts[a:b] != anchor_count)).size:
            c = short[0]
            raise CorruptStreamError(
                f"{name} channel {c} decodes {counts[a + c]} elements, expected {anchor_count}"
            )
        if nbytes[a:b].sum() != len(payloads[name]):
            raise CorruptStreamError(f"trailing bytes after {name} channels")
        tokens = pairs[bounds[a] : bounds[b]]
        # A value fits int32 exactly when its zigzag code is below 2**32.
        if tokens.size and tokens[:, 1].max() >= 1 << 32:
            raise CorruptStreamError(f"{name} values overflow int32")
        groups.append((name, tokens, bounds[a : b + 1] - bounds[a], nbytes[a:b]))
    return groups


def parse_groups(payloads, layout: AttributeLayout, anchor_count: int):
    """Yield (name, pairs, bounds, nbytes) per group, in order, once all its checks pass:
    _parse_channels' tokens, each value an int32, and each channel's payload bytes.

    One routine, _parse_joined, parses and checks the groups and raises their
    faults. Payloads that together fit one span are parsed joined, in one
    call; if that raises, the groups are parsed one at a time, as larger
    payloads always are, so the first fault is the same either way.
    """
    if anchor_count < 0 or anchor_count > MAX_ELEMENTS:
        raise CorruptStreamError(f"implausible anchor count {anchor_count}")
    if sum(len(payloads[name]) for name in GROUPS) <= model._SPAN_ELEMENTS:
        try:
            groups = _parse_joined(payloads, GROUPS, layout, anchor_count)
        except CorruptStreamError:
            pass  # the per-group parse below raises the first fault
        else:
            yield from groups
            return
    for name in GROUPS:
        (group,) = _parse_joined(payloads, (name,), layout, anchor_count)
        yield group
        del group  # so the next group's parse does not hold this group's tokens


def _decode_tokens(tokens):
    """(values, runs) of parse_groups' (run, zigzag value) rows: int32 values, intp runs.

    parse_groups checked every zigzag code below 2**32, so each decodes in 32
    bits; the casts copy each column contiguous.
    """
    zigzag = tokens[:, 1].astype(np.uint32)
    values = zigzag >> 1
    values ^= -(zigzag & 1)
    return values.view(np.int32), tokens[:, 0].astype(np.intp)


def decode_groups(payloads, layout: AttributeLayout, anchor_count: int):
    """Decode the attribute groups and measure their channel streams.

    Each group is expanded before the next is parsed; payloads small enough
    to be parsed joined are parsed before the first is expanded. Returns
    (matrices, channel_bytes), dicts keyed by group name: the (anchor_count,
    dims) int32 matrix, column-major so each channel is contiguous, and each
    channel's serialized byte length as found in the payload.
    """
    matrices = {}
    channel_bytes = {}
    for name, pairs, bounds, nbytes in parse_groups(payloads, layout, anchor_count):
        out = np.empty((anchor_count, len(bounds) - 1), dtype=np.int32, order="F")
        for a, b in spans(len(bounds) - 1, anchor_count):
            values, runs = _decode_tokens(pairs[bounds[a] : bounds[b]])
            out.T[a:b] = np.repeat(values, runs).reshape(b - a, anchor_count)
        matrices[name] = out
        channel_bytes[name] = nbytes
        del pairs, values, runs
    return matrices, channel_bytes


def decode_attributes(payloads, layout: AttributeLayout, anchor_count: int):
    """Invert encode_attributes; returns (offsets, features, scalings) int32 matrices."""
    matrices, _ = decode_groups(payloads, layout, anchor_count)
    return matrices["offsets"], matrices["features"], matrices["scalings"]
