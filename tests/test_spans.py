"""Spans bound each codec stage: the same bytes, clouds, reports and errors
for any span size, and no thread started by the codec."""

import hashlib
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

import voxgs
import voxgs.container as container
import voxgs.model as model
import voxgs.rlc as rlc
from voxgs import (
    AnchorCloud,
    AttributeLayout,
    FloatAnchorCloud,
    QuantParams,
    analyze_container,
    decode_container,
    encode_attributes,
    encode_container,
    generate_synthetic,
    morton_decode,
    quantize_cloud,
)
from voxgs.cli import main
from voxgs.container import quantize_cloud_kept
from voxgs.errors import CorruptStreamError
from voxgs.model import GROUPS
from voxgs.quantize import quantize_features
from voxgs.rlc import decode_groups, rlc_encode, varint_pack
from tests.conftest import assemble_container, random_cloud
from tests.test_golden import GOLDEN
from tests.test_sizes import REPORTS, _golden, _sections

LAYOUT = AttributeLayout(k=10, m=50)
QUANT = QuantParams(q_p=1024)


def _small_spans(monkeypatch, span_elements):
    """Split every stage into spans of span_elements elements."""
    monkeypatch.setattr(model, "_SPAN_ELEMENTS", span_elements)


# Budget 1 puts one unit in each span and parses every group on its own;
# budget 64 puts several rows or channels of a small group in a span and
# parses small payloads joined.
SPAN_SIZES = pytest.mark.parametrize("span_elements", [1, 64], ids=["span-1", "span-64"])


FINITE = "ste_round requires finite input"
INT64_RANGE = "ste_round input exceeds the int64 range"


def _fields(report):
    """Every field of a RateReport; repr keeps each float's bits and makes NaN equal NaN."""
    return repr(asdict(report))


class TestHelper:
    @pytest.mark.parametrize(
        "units,unit_size",
        [(0, 5), (1, 0), (1, 1000), (10, 64), (10, 7), (64, 1), (65, 1), (130, 1), (3, 65)],
    )
    def test_spans_tile_the_units(self, monkeypatch, units, unit_size):
        monkeypatch.setattr(model, "_SPAN_ELEMENTS", 64)
        ranges = model.spans(units, unit_size)
        assert [u for start, stop in ranges for u in range(start, stop)] == list(range(units))
        for start, stop in ranges:
            assert stop - start == 1 or (stop - start) * unit_size <= 64


class TestSameResults:
    @SPAN_SIZES
    @pytest.mark.parametrize("golden", GOLDEN)
    def test_golden_digests(self, monkeypatch, span_elements, golden):
        seed, anchors, k, m, q_p, mlp_bytes, size, digest = golden
        _small_spans(monkeypatch, span_elements)
        blob = _golden(seed, anchors, k, m, q_p, mlp_bytes)[1]
        assert len(blob) == size
        assert hashlib.sha256(blob).hexdigest() == digest

    @SPAN_SIZES
    @pytest.mark.parametrize("golden,pinned", zip(GOLDEN, REPORTS))
    def test_golden_reports(self, monkeypatch, span_elements, golden, pinned):
        blob = _golden(*golden[:6])[1]
        expected = _fields(analyze_container(blob))
        _small_spans(monkeypatch, span_elements)
        report = analyze_container(blob)
        assert _fields(report) == expected
        assert report.to_kv() == pinned["kv"]
        assert report.to_text() == pinned["text"]

    @SPAN_SIZES
    def test_round_trips(self, monkeypatch, span_elements):
        rng = np.random.default_rng(71)
        clouds = [random_cloud(rng) for _ in range(12)] + [random_cloud(rng, n=0)]
        fcloud = generate_synthetic(72, 600, LAYOUT, run_bias=0.5)
        blobs = [encode_container(c) for c in clouds]
        quantized = quantize_cloud(fcloud, QUANT)
        big = encode_container(quantized)
        reports = [_fields(analyze_container(b)) for b in blobs + [big]]

        _small_spans(monkeypatch, span_elements)
        assert quantize_cloud(fcloud, QUANT).equals(quantized)
        assert encode_container(quantized) == big
        assert decode_container(big).equals(quantized)
        for cloud, blob in zip(clouds, blobs):
            assert encode_container(cloud) == blob
            assert decode_container(blob).equals(voxgs.sort_by_morton(cloud))
        assert [_fields(analyze_container(b)) for b in blobs + [big]] == reports

    @SPAN_SIZES
    @pytest.mark.parametrize(
        "faults,message",
        [
            ({"offsets": (3, 2.0**31)}, "offsets integers overflow int32 storage"),
            ({"features": (150, -(2.0**31) - 1)}, "features integers overflow int32 storage"),
            # Each group quantized whole: ste_round's errors for every group come
            # before the int32 check of any.
            ({"offsets": (3, 2.0**31), "features": (150, np.nan)}, FINITE),
            ({"scalings": (0, 1e300), "features": (150, np.inf)}, FINITE),
            ({"features": (0, 1e300), "scalings": (150, 2.0**31)}, INT64_RANGE),
        ],
    )
    def test_quantize_raises_what_whole_groups_raise(
        self, monkeypatch, span_elements, faults, message
    ):
        fcloud = generate_synthetic(73, 200, AttributeLayout(k=2, m=3), run_bias=0.5)
        kept = quantize_cloud_kept(fcloud, QUANT)[1]
        groups = {name: getattr(fcloud, name).copy() for name in GROUPS}
        for name, (row, value) in faults.items():
            groups[name][kept[row], 0] = value
        bad = FloatAnchorCloud(
            positions=fcloud.positions, **groups, layout=fcloud.layout, bbox=fcloud.bbox
        )
        _small_spans(monkeypatch, span_elements)
        with pytest.raises(ValueError, match=f"^{message}$"):
            quantize_cloud(bad, QUANT)


# Values of a feature row at scale 1: ties, signed zeros, the int32 edges and
# the first magnitudes past them, NaN and infinities.
EDGE = 2.0**31
QUANTIZE_CASES = {
    "ties": [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1e6 + 0.5, -1e6 - 0.5],
    "signed-zero": [-0.0, 0.0, -0.49999999999999994, 0.49999999999999994],
    "int32-min": [-EDGE],
    "below-edge": [np.nextafter(EDGE - 0.5, 0), -np.nextafter(EDGE - 0.5, 0)],
    "edge-tie-negative": [-(EDGE - 0.5)],
    "edge-tie-positive": [EDGE - 0.5],
    "past-edge-positive": [EDGE + 0.5],
    "past-edge-negative": [-(EDGE + 0.5)],
    "nan": [np.nan],
    "inf": [np.inf],
    "-inf": [-np.inf],
}


def _quantize_reference(values, kept, scale):
    """quantize_features(values[kept], scale) as int32, or None where that
    raises or a rounded value does not fit int32."""
    try:
        rounded = quantize_features(values[kept], scale)
    except ValueError:
        return None
    if rounded.min() < -(2**31) or rounded.max() > 2**31 - 1:
        return None
    return rounded.astype(np.int32)


class TestQuantizeRows:
    @SPAN_SIZES
    @pytest.mark.parametrize("case", QUANTIZE_CASES)
    @pytest.mark.parametrize("scale", [1, Fraction(3, 2)], ids=["scale-1", "scale-3/2"])
    def test_matches_quantize_features_as_int32(self, monkeypatch, span_elements, case, scale):
        rng = np.random.default_rng(sorted(QUANTIZE_CASES).index(case))
        values = rng.normal(0.0, 40.0, size=(300, 7))
        kept = np.sort(rng.choice(values.shape[0], size=200, replace=False))
        cases = np.array(QUANTIZE_CASES[case]) / float(scale)
        rows = rng.choice(kept, size=cases.size, replace=False)
        values[rows, rng.integers(0, values.shape[1], size=cases.size)] = cases
        want = _quantize_reference(values, kept, scale)
        _small_spans(monkeypatch, span_elements)
        if want is None:
            with pytest.raises(ValueError):
                container._quantize_rows(values, kept, scale)
        else:
            got = container._quantize_rows(values, kept, scale)
            assert got.dtype == np.int32 and got.flags.f_contiguous
            assert np.array_equal(got, want)

    @SPAN_SIZES
    def test_int32_min_quantizes_without_the_whole_group_path(self, monkeypatch, span_elements):
        fcloud = generate_synthetic(74, 200, AttributeLayout(k=2, m=3), run_bias=0.5)
        kept = quantize_cloud_kept(fcloud, QUANT)[1]
        features = fcloud.features.copy()
        features[kept[150], 0] = -EDGE
        good = FloatAnchorCloud(
            positions=fcloud.positions,
            offsets=fcloud.offsets,
            features=features,
            scalings=fcloud.scalings,
            layout=fcloud.layout,
            bbox=fcloud.bbox,
        )
        _small_spans(monkeypatch, span_elements)
        monkeypatch.setattr(container, "quantize_features", None)  # the whole-group path
        cloud = quantize_cloud(good, QUANT)
        assert cloud.features[150, 0] == -(2**31)
        assert cloud.features.flags.f_contiguous


def _varints(data: bytes):
    """Every LEB128 value and the index of its last byte, by a plain byte scan.

    Raises as the codec does: a buffer ending inside a varint first, then any
    varint longer than 10 bytes. Values wrap modulo 2**64 like the codec's uint64.
    """
    values, ends, value, length, longest = [], [], 0, 0, 0
    for i, byte in enumerate(data):
        value |= (byte & 0x7F) << (7 * length)
        length += 1
        if byte < 0x80:
            values.append(value % 2**64)
            ends.append(i)
            longest = max(longest, length)
            value, length = 0, 0
    if length:
        raise CorruptStreamError("truncated varint at end of stream")
    if longest > 10:
        raise CorruptStreamError("varint longer than 10 bytes")
    return values, ends


def decode_groups_reference(payloads, layout, n):
    """decode_groups by plain scans, one group at a time, faults reported in the codec's order.

    A group fails on its varints, then on its channel walk (missing stream,
    count above n, runs not summing to the count, a token without its value),
    then on a run of zero anywhere in it, on a channel count other than n, on
    bytes after the last channel, and last on a value int32 cannot hold.
    """
    matrices, channel_bytes = {}, {}
    for name in GROUPS:
        data = bytes(payloads[name])
        varints, ends = _varints(data)
        channels, cursor = [], 0
        for _ in range(layout.dims_for(name)):
            if cursor >= len(varints):
                raise CorruptStreamError("missing channel stream")
            count, first = varints[cursor], cursor + 1
            if count > n:
                raise CorruptStreamError(f"element count {count} exceeds limit {n}")
            total = tokens = 0
            while total < count:
                if tokens == count or first + 2 * tokens >= len(varints):
                    break
                total += min(varints[first + 2 * tokens], n + 1)
                tokens += 1
            if total != count:
                raise CorruptStreamError("run lengths do not sum to the element count")
            cursor = first + 2 * tokens
            if cursor > len(varints):
                raise CorruptStreamError("truncated token stream")
            channels.append((count, varints[first:cursor], ends[cursor - 1] + 1))
        if any(run == 0 for _, pairs, _ in channels for run in pairs[0::2]):
            raise CorruptStreamError("run length of zero")
        for c, (count, _, _) in enumerate(channels):
            if count != n:
                raise CorruptStreamError(
                    f"{name} channel {c} decodes {count} elements, expected {n}"
                )
        if channels[-1][2] != len(data):
            raise CorruptStreamError(f"trailing bytes after {name} channels")
        columns = []
        for _, pairs, _ in channels:
            column = []
            for run, zz in zip(pairs[0::2], pairs[1::2]):
                column += [zz // 2 if zz % 2 == 0 else -(zz + 1) // 2] * run
            columns.append(column)
        if any(not -(2**31) <= v < 2**31 for column in columns for v in column):
            raise CorruptStreamError(f"{name} values overflow int32")
        matrices[name] = np.array(columns, dtype=np.int64).reshape(len(columns), n).T
        channel_bytes[name] = np.diff([0] + [end for _, _, end in channels])
    return matrices, channel_bytes


def _outcome(decode, payloads, layout, n):
    try:
        matrices, channel_bytes = decode(payloads, layout, n)
    except CorruptStreamError as exc:
        return str(exc)
    return [(matrices[g].tolist(), list(channel_bytes[g])) for g in GROUPS]


def _single_faults(data: bytes):
    """Every byte replaced by a few values, removed and repeated, and the data cut before it."""
    for i, byte in enumerate(data):
        for value in {0x00, 0x01, 0x7F, 0x80, 0xFF, byte ^ 0x01, byte ^ 0x40}:
            if value != byte:
                yield data[:i] + bytes([value]) + data[i + 1 :]
        yield data[:i] + data[i + 1 :]
        yield data[:i] + data[i : i + 1] + data[i:]
        yield data[:i]


class TestSameErrors:
    @SPAN_SIZES
    def test_single_faults_match_the_reference(self, monkeypatch, span_elements):
        rng = np.random.default_rng(74)
        cloud = random_cloud(rng, n=24, depth=4, layout=AttributeLayout(k=1, m=2))
        n = cloud.anchor_count
        payloads = encode_attributes(cloud)[0]
        _small_spans(monkeypatch, span_elements)
        seen = set()
        for name in GROUPS:
            for mutated in _single_faults(payloads[name]):
                faulty = {**payloads, name: mutated}
                expected = _outcome(decode_groups_reference, faulty, cloud.layout, n)
                assert _outcome(decode_groups, faulty, cloud.layout, n) == expected
                if isinstance(expected, str):
                    seen.add(expected)
        # The mutations reach every fault a single byte can cause.
        for kind in (
            "truncated varint at end of stream",
            "element count",
            "run lengths do not sum to the element count",
            "run length of zero",
            "missing channel stream",
            "truncated token stream",
            "decodes",
            "trailing bytes after",
        ):
            assert any(kind in message for message in seen), kind

    @SPAN_SIZES
    @pytest.mark.parametrize(
        "channels,message",
        [
            # (count, [(run, value), ...]) per scalings channel; two faults each.
            ([(8, [(8, 0)]), (8, [(8, 2**31)])] + [(8, [(8, 0)])] * 3 + [(8, [(0, 1), (8, 0)])],
             "run length of zero"),
            ([(7, [(7, 0)])] + [(8, [(8, 0)])] * 4 + [(8, [(0, 1), (8, 0)])], "run length of zero"),
            ([(8, [(8, 0)]), (7, [(7, 2**31)])] + [(8, [(8, 0)])] * 4,
             "scalings channel 1 decodes 7 elements, expected 8"),
            ([(8, [(8, 2**31)])] + [(8, [(8, 0)])] * 4 + [(8, [(4, 1), (4, -(2**31) - 1)])],
             "scalings values overflow int32"),
        ],
    )
    def test_two_faults_report_the_first_in_codec_order(
        self, monkeypatch, span_elements, channels, message
    ):
        rng = np.random.default_rng(75)
        cloud = random_cloud(rng, n=8, depth=3, layout=AttributeLayout(k=1, m=1))
        while cloud.anchor_count != 8:
            cloud = random_cloud(rng, n=8, depth=3, layout=AttributeLayout(k=1, m=1))
        payloads = encode_attributes(cloud)[0]
        slots = []
        for count, tokens in channels:
            zigzag = [(run, 2 * abs(value) - (value < 0)) for run, value in tokens]
            slots += [count] + [v for pair in zigzag for v in pair]
        payloads["scalings"] = varint_pack(np.array(slots, dtype=np.uint64))
        assert _outcome(decode_groups_reference, payloads, cloud.layout, 8) == message
        _small_spans(monkeypatch, span_elements)
        assert _outcome(decode_groups, payloads, cloud.layout, 8) == message
        if "elements" in message:
            payloads["scalings"] += rlc_encode([0]).serialized
            assert _outcome(decode_groups, payloads, cloud.layout, 8) == message


def _slots(*slots):
    """A stream from varint slots: an int packed canonically, bytes taken as written."""
    return b"".join(
        s if isinstance(s, bytes) else varint_pack(np.array([s], dtype=np.uint64)) for s in slots
    )


def _zz(value):
    return 2 * abs(value) - (value < 0)


def _overlong(value, length):
    """value as a length-byte varint: canonical septets padded with zero septets."""
    septets = [(value >> (7 * j)) & 0x7F for j in range(length)]
    return bytes([s | 0x80 for s in septets[:-1]] + [septets[-1]])


def _channel(n, c):
    """A channel of n elements in two runs above 127, values with 2- and 3-byte zigzag codes."""
    return [n, 130, _zz(1000 + c), n - 130, _zz(-70000 - c)]


def _quirky_channels(n):
    """Six valid scalings channels whose varints a canonical encoder would not write."""
    return [
        # b"\x81\x80\x00" is 1 in three bytes.
        _slots(n, 130, 7, n - 130, b"\x81\x80\x00"),
        _slots(_overlong(n, 3), *_channel(n, 1)[1:]),
        # 2**64 + 130 and 2**64 in ten bytes; the bits above 2**64 are dropped.
        _slots(n, _overlong(130, 10)[:9] + b"\x02", b"\x80" * 9 + b"\x02", n - 130, 5),
        *(_slots(*_channel(n, c)) for c in range(3, 6)),
    ]


def _multibyte_cases(n):
    """(label, scalings payload) pairs whose varints are mostly 2-11 bytes long."""
    ok = [_slots(*_channel(n, c)) for c in range(6)]
    cases = {
        "runs, values and counts": ok,
        "overlong and wrapped varints": _quirky_channels(n),
        "10-byte value overflows int32": [*ok[:5], _slots(n, n, b"\x80" * 9 + b"\x01")],
        "11-byte varint": [*ok[:3], _slots(n, n, b"\x80" * 10 + b"\x01"), *ok[4:]],
        "11-byte varint after a walk fault": [
            _slots(n, 130, 2, n - 131, 2), *ok[1:5], _slots(n, n, b"\xff" * 10 + b"\x01"),
        ],
        "3-byte count over the limit": [*ok[:4], _slots(20000, 20000, 2), ok[5]],
        "truncated multi-byte varint": [*ok, b"\xff\xff"],
        "runs above 127 miss the count": [*ok[:5], _slots(n, 130, 2, n - 131, 2)],
        "overlong zero run": [ok[0], _slots(n, 130, 2, b"\x80\x00", 4, n - 130, 2), *ok[2:]],
        "bytes after the last channel": [*ok, _slots(300)],
    }
    return {label: b"".join(parts) for label, parts in cases.items()}


def _multibyte_cloud():
    rng = np.random.default_rng(79)
    cloud = random_cloud(rng, n=150, depth=4, layout=AttributeLayout(k=1, m=2))
    assert cloud.anchor_count > 130
    return cloud


def _parsed_bytes(payloads, layout, n):
    """Each group's channel byte lengths as parse_groups, analyze's parse, reports them."""
    try:
        return [list(nbytes) for _, _, _, nbytes in container.parse_groups(payloads, layout, n)]
    except CorruptStreamError as exc:
        return str(exc)


class TestMultiByteVarints:
    """Decode and analyze against the reference on streams of 2- to 11-byte varints."""

    @SPAN_SIZES
    @pytest.mark.parametrize("label", list(_multibyte_cases(140)))
    def test_cases_match_the_reference(self, monkeypatch, span_elements, label):
        cloud = _multibyte_cloud()
        n = cloud.anchor_count
        blob = encode_container(cloud)
        payloads = encode_attributes(cloud)[0]
        payloads["scalings"] = _multibyte_cases(n)[label]
        expected = _outcome(decode_groups_reference, payloads, cloud.layout, n)
        _small_spans(monkeypatch, span_elements)
        assert _outcome(decode_groups, payloads, cloud.layout, n) == expected
        parsed = _parsed_bytes(payloads, cloud.layout, n)
        if isinstance(expected, str):
            assert parsed == expected
        else:
            assert parsed == [channel_bytes for _, channel_bytes in expected]
        geometry, offsets, features, _, mlp = _sections(blob)
        sections = [geometry, offsets, features, payloads["scalings"]]
        try:
            analyze_container(assemble_container(n, 16, 1, 2, sections, mlp=mlp))
            refused = None
        except CorruptStreamError as exc:
            refused = str(exc)
        assert refused == (expected if isinstance(expected, str) else None)

    def test_cases_reach_each_fault(self):
        cloud = _multibyte_cloud()
        n = cloud.anchor_count
        payloads = encode_attributes(cloud)[0]
        outcomes = {}
        for label, payload in _multibyte_cases(n).items():
            outcome = _outcome(decode_groups_reference, {**payloads, "scalings": payload},
                               cloud.layout, n)
            outcomes[label] = outcome if isinstance(outcome, str) else None
        assert outcomes == {
            "runs, values and counts": None,
            "overlong and wrapped varints": None,
            "10-byte value overflows int32": "scalings values overflow int32",
            "11-byte varint": "varint longer than 10 bytes",
            "11-byte varint after a walk fault": "varint longer than 10 bytes",
            "3-byte count over the limit": f"element count 20000 exceeds limit {n}",
            "truncated multi-byte varint": "truncated varint at end of stream",
            "runs above 127 miss the count": "run lengths do not sum to the element count",
            "overlong zero run": "run length of zero",
            "bytes after the last channel": "trailing bytes after scalings channels",
        }

    @SPAN_SIZES
    def test_single_faults_match_the_reference(self, monkeypatch, span_elements):
        cloud = _multibyte_cloud()
        n = cloud.anchor_count
        payloads = encode_attributes(cloud)[0]
        stream = b"".join(_quirky_channels(n))
        _small_spans(monkeypatch, span_elements)
        for mutated in _single_faults(stream):
            faulty = {**payloads, "scalings": mutated}
            expected = _outcome(decode_groups_reference, faulty, cloud.layout, n)
            assert _outcome(decode_groups, faulty, cloud.layout, n) == expected
            parsed = _parsed_bytes(faulty, cloud.layout, n)
            assert parsed == (
                expected if isinstance(expected, str) else [b for _, b in expected]
            )


@SPAN_SIZES
def test_analyze_refuses_what_decode_refuses_and_never_expands(monkeypatch, span_elements):
    rng = np.random.default_rng(78)
    cloud = random_cloud(rng, n=24, depth=4, layout=AttributeLayout(k=1, m=2))
    blob = encode_container(cloud)
    _small_spans(monkeypatch, span_elements)
    # decode_groups is the parse plus the expansion; analyze runs only the parse.
    expansions = []
    expand = rlc.decode_groups

    def spy(*args):
        expansions.append(args)
        return expand(*args)

    monkeypatch.setattr(rlc, "decode_groups", spy)
    # Scalings channel 0 at the int32 bounds and one step past them.
    geometry, offsets, features, _, mlp = _sections(blob)
    n = cloud.anchor_count
    edges = []
    for value in (-(2**31), 2**31 - 1, 2**31, -(2**31) - 1):
        slots = [n, n, 2 * abs(value) - (value < 0)] + [n, n, 0] * 5
        scalings = varint_pack(np.array(slots, dtype=np.uint64))
        sections = [geometry, offsets, features, scalings]
        edges.append(assemble_container(n, 16, 1, 2, sections, mlp=mlp))
    seen = set()
    for mutated in [blob, *edges, *_single_faults(blob)]:
        outcomes, expanded = [], []
        for call in (decode_container, analyze_container):
            expansions.clear()
            try:
                call(mutated)
                outcomes.append(None)
            except CorruptStreamError as exc:
                outcomes.append(str(exc))
            expanded.append(len(expansions))
        assert outcomes[1] == outcomes[0]
        assert expanded[1] == 0
        if outcomes[0] is None:
            assert expanded[0] == 1
        seen.add(outcomes[0])
    # Successes and faults of the header, the geometry and each group.
    kinds = (None, "bad magic", "section", "occupancy", "offsets", "features", "scalings")
    for kind in (*kinds, "scalings values overflow int32"):
        assert any(kind == m if kind is None else m and kind in m for m in seen), kind


def test_joined_parse_matches_the_per_group_parse(monkeypatch):
    """Payloads within the merge budget parse joined; any failed check reparses per group.

    Budget 0 parses any nonempty region per group, and 2**30 tries the
    joined parse first. Each mutant is a single fault of the whole attribute
    region, split back at the original section ends, so a dropped or
    repeated byte moves bytes across a section end.
    """
    rng = np.random.default_rng(79)
    cloud = random_cloud(rng, n=16, depth=4, layout=AttributeLayout(k=1, m=2))
    n = cloud.anchor_count
    geometry, offsets, features, scalings, mlp = _sections(encode_container(cloud))
    ends = (len(offsets), len(offsets) + len(features))
    parsed_dims = []
    parse = rlc._parse_channels

    def spy(data, dims, max_elements):
        if dims != 1:  # the geometry section's one channel
            parsed_dims.append(dims)
        return parse(data, dims, max_elements)

    monkeypatch.setattr(rlc, "_parse_channels", spy)

    def outcomes(region, budget):
        monkeypatch.setattr(model, "_SPAN_ELEMENTS", budget)
        payloads = dict(zip(GROUPS, (region[: ends[0]], region[ends[0] : ends[1]], region[ends[1] :])))
        blob = assemble_container(n, 16, 1, 2, [geometry, *payloads.values()], mlp=mlp)
        try:
            report = _fields(analyze_container(blob))
        except CorruptStreamError as exc:
            report = str(exc)
        return _outcome(decode_groups, payloads, cloud.layout, n), report, payloads

    region = offsets + features + scalings
    # The offsets section ends on a continuation byte: joined, its last
    # varint would run on into the features.
    open_end = offsets[:-1] + bytes([offsets[-1] | 0x80]) + features + scalings
    seen = set()
    for mutated in [region, open_end, *_single_faults(region)]:
        parsed_dims.clear()
        per_group = outcomes(mutated, 0)
        assert (11 in parsed_dims) == (not mutated)  # only an empty region fits budget 0
        parsed_dims.clear()
        joined = outcomes(mutated, 1 << 30)
        assert parsed_dims[0] == 11
        assert joined[:2] == per_group[:2]
        assert per_group[0] == _outcome(decode_groups_reference, per_group[2], cloud.layout, n)
        if isinstance(per_group[0], list):  # decode_groups and analyze each parse once
            assert parsed_dims == [11, 11]
        seen.add(per_group[0] if isinstance(per_group[0], str) else None)
    assert outcomes(open_end, 1 << 30)[0] == "truncated varint at end of stream"
    for kind in (None, "offsets", "features", "scalings", "trailing bytes after", "missing channel"):
        assert any(kind == m if kind is None else m and kind in m for m in seen), kind


def _sweep_rows():
    args = ["sweep", "--axis", "q_p", "--values", "128,256,512", "--synthetic", "300"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return len(result.output.splitlines())


@pytest.mark.parametrize("stage", ["quantize", "encode", "decode", "analyze", "sweep"])
def test_the_codec_starts_no_thread(monkeypatch, stage):
    fcloud = generate_synthetic(77, 20_000, LAYOUT, run_bias=0.5)
    cloud = quantize_cloud(fcloud, QUANT)
    # Quantize, encode and decode each run several spans of this cloud.
    assert len(model.spans(cloud.anchor_count, LAYOUT.m)) > 1
    blob = encode_container(cloud)
    report = _fields(analyze_container(blob))
    run = {
        "quantize": lambda: quantize_cloud(fcloud, QUANT).equals(cloud),
        "encode": lambda: encode_container(cloud) == blob,
        "decode": lambda: decode_container(blob).equals(cloud),
        "analyze": lambda: _fields(analyze_container(blob)) == report,
        "sweep": lambda: _sweep_rows() == 4,
    }[stage]

    threads = threading.active_count()
    started, submitted = [], []
    start, submit = threading.Thread.start, ThreadPoolExecutor.submit

    def start_spy(self):
        started.append(self)
        return start(self)

    def submit_spy(self, fn, /, *args, **kwargs):
        submitted.append(fn)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", start_spy)
    monkeypatch.setattr(ThreadPoolExecutor, "submit", submit_spy)
    assert run()
    assert threading.active_count() == threads
    assert started == [] and submitted == []


def test_decode_peak_memory_below_the_whole_group_expansion():
    fcloud = generate_synthetic(0, 20_000, LAYOUT, run_bias=0.5)
    cloud = quantize_cloud(fcloud, QUANT)
    blob = encode_container(cloud)
    output = cloud.anchor_count * (3 * 8 + LAYOUT.total_dims * 4)
    tracemalloc.start()
    try:
        decode_container(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Expanding each group into one int64 array and transposing it peaked at
    # 4.81x the decoded cloud; span-wise expansion into the output, 2.77x.
    assert peak < 3.5 * output


# The parse of each group in place and alone: a copy of a group's varints to
# drop its count slots peaked at 3.54x input plus output on decode and 3.16x
# on analyze, and holding the previous group's tokens during the next parse
# at 4.24x and 3.87x; with both, 4.45x and 4.05x.
@pytest.mark.parametrize("stage,bound", [("decode", 3.45), ("analyze", 3.07)])
def test_run_free_peak_memory_has_no_parse_copy(stage, bound):
    # Every value takes one byte and no channel repeats a value, so every
    # token is a run of one, the most varints a byte buffer can hold.
    n = 20_000
    rows = np.arange(n)[:, None]
    cloud = AnchorCloud(
        positions=morton_decode(np.arange(n, dtype=np.uint64)),
        offsets=(rows * 5 + np.arange(LAYOUT.offset_dims)) % 127 - 63,
        features=(rows * 7 + np.arange(LAYOUT.feature_dims)) % 127 - 63,
        scalings=(rows * 11 + np.arange(6)) % 127 - 63,
        layout=LAYOUT,
        quant=QUANT,
        bbox=np.array([[0.0] * 3, [1.0] * 3]),
    )
    blob = encode_container(cloud)
    assert len(blob) > 2 * n * LAYOUT.total_dims
    output = n * (3 * 8 + LAYOUT.total_dims * 4)
    run = {"decode": decode_container, "analyze": analyze_container}[stage]
    tracemalloc.start()
    try:
        result = run(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stage == "analyze" or result.equals(cloud)
    assert peak < bound * (len(blob) + output)
