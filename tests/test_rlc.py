import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voxgs.rlc as rlc
from voxgs import (
    AnchorCloud,
    AttributeLayout,
    QuantParams,
    RlcStream,
    analyze_container,
    decode_attributes,
    decode_container,
    encode_attributes,
    encode_container,
    octree_encode,
    rlc_decode,
    rlc_encode,
)
from voxgs.errors import CorruptStreamError
from voxgs.geometry import sort_by_morton
from voxgs.rlc import (
    read_varints,
    varint_pack,
    varint_unpack_all,
    zigzag_decode,
    zigzag_encode,
)
from tests.conftest import random_cloud
from tests.test_pool import _fields, _single_faults, _varints
from tests.test_sizes import _sections


def varint_len_oracle(value):
    """Independent LEB128 length: 7 value bits per byte, at least one byte."""
    length = 1
    value >>= 7
    while value:
        length += 1
        value >>= 7
    return length


def zigzag_oracle(value):
    return 2 * value if value >= 0 else -2 * value - 1


def leb128_oracle(value):
    """Independent LEB128 bytes of one unsigned value."""
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if not value:
            out.append(byte)
            return bytes(out)
        out.append(byte | 0x80)


def stream_oracle(column):
    """One channel stream, [count](run, zigzag)* over maximal runs, by a plain scan."""
    out = bytearray(leb128_oracle(len(column)))
    i = 0
    while i < len(column):
        j = i
        while j < len(column) and column[j] == column[i]:
            j += 1
        out += leb128_oracle(j - i) + leb128_oracle(zigzag_oracle(column[i]))
        i = j
    return bytes(out)


INT32_EXTREMES = [-(2**31), -(2**31) + 1, -1, 0, 1, 2**31 - 2, 2**31 - 1]


@st.composite
def attribute_clouds(draw):
    """(n, k, m, row-major values) for a small cloud; few distinct values make runs."""
    n = draw(st.integers(0, 12))
    k = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3))
    width = 3 * k + m + 6
    value = st.sampled_from(INT32_EXTREMES) | st.integers(-(2**31), 2**31 - 1)
    values = draw(st.lists(value, min_size=n * width, max_size=n * width))
    return n, k, m, values


def cloud_from(n, k, m, values):
    layout = AttributeLayout(k=k, m=m)
    rows = np.array(values, dtype=np.int32).reshape(n, 3 * k + m + 6)
    od = layout.offset_dims
    # Points along the x axis are distinct and already in Morton order.
    positions = np.zeros((n, 3), dtype=np.int64)
    positions[:, 0] = np.arange(n)
    return AnchorCloud(
        positions=positions,
        offsets=rows[:, :od],
        features=rows[:, od : od + m],
        scalings=rows[:, od + m :],
        layout=layout,
        quant=QuantParams(q_p=16),
        bbox=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
    )


class TestZigzag:
    def test_known_values(self):
        v = np.array([0, -1, 1, -2, 2, 2**31 - 1, -(2**31)], dtype=np.int64)
        expected = [zigzag_oracle(int(x)) for x in v]
        assert zigzag_encode(v).tolist() == expected

    def test_round_trip(self):
        rng = np.random.default_rng(40)
        v = rng.integers(-(2**62), 2**62, size=10_000, dtype=np.int64)
        assert np.array_equal(zigzag_decode(zigzag_encode(v)), v)


class TestVarint:
    def test_known_encodings(self):
        assert varint_pack(np.array([0], dtype=np.uint64)) == b"\x00"
        assert varint_pack(np.array([127], dtype=np.uint64)) == b"\x7f"
        assert varint_pack(np.array([128], dtype=np.uint64)) == b"\x80\x01"
        assert varint_pack(np.array([300], dtype=np.uint64)) == b"\xac\x02"

    def test_round_trip_random(self):
        rng = np.random.default_rng(41)
        # Mix of magnitudes so every byte length occurs.
        v = (rng.integers(0, 2**63, size=5000, dtype=np.uint64) >>
             rng.integers(0, 63, size=5000, dtype=np.uint64))
        packed = varint_pack(v)
        assert len(packed) == sum(varint_len_oracle(int(x)) for x in v)
        assert np.array_equal(varint_unpack_all(packed), v)

    def test_every_length_boundary(self):
        # 2**7j - 1 is the largest value of j bytes, 2**7j the smallest of j + 1.
        edges = [0, 2**64 - 1]
        for j in range(1, 10):
            edges += [2**(7 * j) - 1, 2**(7 * j)]
        for value in edges:
            packed = varint_pack(np.array([value], dtype=np.uint64))
            assert packed == leb128_oracle(value), value
            assert len(packed) == varint_len_oracle(value)
        v = np.array(edges, dtype=np.uint64)
        packed = varint_pack(v)
        assert packed == b"".join(leb128_oracle(int(x)) for x in v)
        assert np.array_equal(varint_unpack_all(packed), v)

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0],
            [127],
            [128],
            [2**14 - 1],
            [2**14],
            [2**63],
            [2**64 - 1],
            list(range(128)),
            [128, 2**14, 2**21 + 5, 2**63, 2**64 - 1, 200, 2**56 - 1],
            [0, 2**64 - 1, 0, 128, 127, 2**14, 0],
        ],
        ids=[
            "empty", "0", "127", "128", "2**14-1", "2**14", "2**63", "2**64-1",
            "all-narrow", "all-wide", "mixed-ends",
        ],
    )
    def test_matches_scalar_leb128(self, values):
        v = np.array(values, dtype=np.uint64)
        assert varint_pack(v) == b"".join(leb128_oracle(x) for x in values)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_mixes_match_scalar_leb128(self, seed):
        # Mostly one-byte values with multi-byte ones of every length among them,
        # from streams with none to streams with only those.
        rng = np.random.default_rng(900 + seed)
        for wide_share in (0.0, 0.01, 0.3, 1.0):
            n = int(rng.integers(1, 400))
            v = rng.integers(0, 128, size=n, dtype=np.uint64)
            wide = rng.random(n) < wide_share
            bits = rng.integers(8, 65, size=int(wide.sum())).tolist()
            v[wide] = [
                rng.integers(1 << (b - 1), (1 << b) - 1, dtype=np.uint64, endpoint=True)
                for b in bits
            ]
            assert varint_pack(v) == b"".join(leb128_oracle(int(x)) for x in v)

    @pytest.mark.parametrize(
        "values", [[2**53 + 1, 2**63], [5, 2**64 - 1], (2**64 - 1, 2**53 + 1, 0, 2**63 + 1)]
    )
    def test_python_sequences_of_wide_integers_stay_exact(self, values):
        # NumPy stores these sequences as float64, which rounds 2**53 + 1 to 2**53.
        assert varint_pack(values) == b"".join(leb128_oracle(x) for x in values)

    @pytest.mark.parametrize(
        "values", [[2**64], [-1, 2**63], [2**63, 0.5], [2**63, float("nan")], [10**400, 1]]
    )
    def test_python_sequences_uint64_cannot_hold_rejected(self, values):
        with pytest.raises(ValueError, match="^values (integers overflow|must hold finite)"):
            varint_pack(values)

    @pytest.mark.parametrize(
        "values",
        [[-1], [0, -(2**63)], [1.5], [np.nan], [np.inf], [-np.inf], [2.0**64], [1e30]],
        ids=["negative", "int64-min", "fractional", "nan", "inf", "-inf", "2**64", "1e30"],
    )
    def test_values_uint64_cannot_hold_rejected_without_warning(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^values "):
                varint_pack(np.array(values))

    def test_integral_float_and_empty_input(self):
        assert varint_pack(np.array([3.0])) == b"\x03"
        assert varint_pack(np.array([], dtype=np.int64)) == b""
        assert varint_pack(np.array([5, 300], dtype=np.int64)) == b"\x05\xac\x02"

    def test_truncated(self):
        with pytest.raises(CorruptStreamError):
            varint_unpack_all(b"\x80")

    def test_overlong(self):
        with pytest.raises(CorruptStreamError):
            varint_unpack_all(b"\x80" * 11 + b"\x01")


class TestReadVarints:
    def test_reads_count_values_and_stops(self):
        data = b"\xff" + varint_pack(np.array([300, 0, 2**64 - 1, 7], dtype=np.uint64))
        values, pos = read_varints(data, 1, 3)
        assert values == [300, 0, 2**64 - 1]
        assert pos == len(data) - 1

    def test_truncated(self):
        with pytest.raises(CorruptStreamError, match="truncated"):
            read_varints(b"\x05\x80\x80", 0, 2)
        with pytest.raises(CorruptStreamError, match="truncated"):
            read_varints(b"\x05", 1, 1)

    def test_overlong(self):
        with pytest.raises(CorruptStreamError, match="longer than 10"):
            read_varints(b"\x80" * 10 + b"\x01", 0, 1)
        with pytest.raises(CorruptStreamError, match="longer than 10"):
            read_varints(b"\x01" + b"\x80" * 10, 0, 2)
        # Ten bytes is the longest legal varint.
        assert read_varints(b"\x80" * 9 + b"\x01", 0, 1) == ([1 << 63], 10)


def tokens(stream):
    """(element count, run lengths, token values) read back from a serialized stream.

    The stream is [count, run, zigzag(value), run, zigzag(value), ...] varints.
    """
    slots = varint_unpack_all(stream.serialized)
    return int(slots[0]), slots[1::2].astype(np.int64), zigzag_decode(slots[2::2])


class TestRlcEncode:
    def test_maximal_runs(self):
        count, runs, values = tokens(rlc_encode([5, 5, 5, 2]))
        assert values.tolist() == [5, 2]
        assert runs.tolist() == [3, 1]
        assert count == 4

    def test_empty(self):
        stream = rlc_encode([])
        assert tokens(stream)[2].size == 0
        assert stream.serialized == b"\x00"  # just the zero count

    def test_adjacent_tokens_distinct(self):
        rng = np.random.default_rng(42)
        count, runs, values = tokens(rlc_encode(rng.integers(-3, 3, size=5000)))
        assert np.all(values[1:] != values[:-1])
        assert runs.min() >= 1
        assert runs.sum() == count == 5000

    def test_size_vs_run_count_oracle(self):
        rng = np.random.default_rng(43)
        values = np.round(rng.laplace(0.0, 2.0, size=10_000)).astype(np.int64)
        stream = rlc_encode(values)
        assert np.array_equal(rlc_decode(stream), values)

        # Independent scan: count maximal runs and total the varint bytes.
        predicted = varint_len_oracle(values.size)
        run = 1
        for prev, cur in zip(values[:-1], values[1:]):
            if cur == prev:
                run += 1
            else:
                predicted += varint_len_oracle(run) + varint_len_oracle(zigzag_oracle(int(prev)))
                run = 1
        predicted += varint_len_oracle(run) + varint_len_oracle(zigzag_oracle(int(values[-1])))
        assert abs(len(stream.serialized) - predicted) <= 0.15 * predicted

    def test_tokenize_runs(self):
        count, runs, values = tokens(rlc_encode(np.array([1, 1, 2, 2, 2, 1])))
        assert values.tolist() == [1, 2, 1]
        assert runs.tolist() == [2, 3, 1]
        assert count == 6

    @pytest.mark.parametrize(
        "values,message",
        [
            ([1.5, 2.0], "values must hold finite integers"),
            ([0.0, np.nan], "values must hold finite integers"),
            ([-np.inf], "values must hold finite integers"),
            (np.array([2**63], dtype=np.uint64), "values integers overflow int64 storage"),
            ([1e30], "values integers overflow int64 storage"),
            ([-(2.0**64)], "values integers overflow int64 storage"),
            ([2**64], "values integers overflow int64 storage"),
        ],
    )
    def test_values_int64_cannot_hold_rejected(self, values, message):
        # Casting would truncate 1.5, wrap 2**63 to -2**63 and warn on 1e30.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                rlc_encode(values)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint32, np.int64, np.uint64, bool])
    def test_integer_input_keeps_its_bytes(self, dtype):
        rng = np.random.default_rng(47)
        info = np.iinfo(np.int8 if dtype is bool else dtype)
        lo, hi = max(info.min, -(2**62)), min(info.max, 2**62)
        values = rng.integers(lo, hi, size=300, endpoint=True).astype(dtype)
        if dtype is bool:
            values = rng.random(300) < 0.5
        expected = [int(v) for v in values]
        stream = rlc_encode(values)
        assert stream == rlc_encode(np.array(expected, dtype=np.int64))
        assert rlc_decode(stream).tolist() == expected

    def test_integral_floats_and_extremes_accepted(self):
        assert rlc_decode(rlc_encode([1.0, -0.0, 2.0**62])).tolist() == [1, 0, 2**62]
        extremes = [-(2**63), 2**63 - 1]
        assert rlc_decode(rlc_encode(extremes)).tolist() == extremes


class TestRlcDecode:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-(2**31), max_value=2**31 - 1), max_size=200))
    def test_round_trip_hypothesis(self, values):
        assert rlc_decode(rlc_encode(values)).tolist() == values

    def test_round_trip_structured(self):
        rng = np.random.default_rng(44)
        cases = [
            np.zeros(1000, dtype=np.int64),
            np.tile([1, -1], 500),
            rng.integers(-(2**31), 2**31, size=1000),
            np.round(rng.laplace(0.0, 2.0, size=1000)).astype(np.int64),
        ]
        for values in cases:
            assert np.array_equal(rlc_decode(rlc_encode(values)), values)

    def test_zero_run_length_rejected(self):
        bad = varint_pack(
            np.array([2, 0, zigzag_oracle(5), 2, zigzag_oracle(3)], dtype=np.uint64)
        )
        with pytest.raises(CorruptStreamError):
            rlc_decode(bad)

    def test_run_sum_mismatch(self):
        # Count says 3, but the single run covers 2 elements.
        bad = varint_pack(np.array([3, 2, zigzag_oracle(1)], dtype=np.uint64))
        with pytest.raises(CorruptStreamError):
            rlc_decode(bad)

    def test_trailing_bytes(self):
        good = rlc_encode([1, 1]).serialized
        with pytest.raises(CorruptStreamError):
            rlc_decode(good + b"\x00")

    def test_truncated_varint(self):
        with pytest.raises(CorruptStreamError):
            rlc_decode(b"\x80")

    def test_empty_buffer(self):
        with pytest.raises(CorruptStreamError):
            rlc_decode(b"")

    def test_fuzz_clean_errors(self):
        rng = np.random.default_rng(45)
        for _ in range(2000):
            data = bytes(rng.integers(0, 256, size=rng.integers(0, 40), dtype=np.uint8))
            try:
                rlc_decode(data)
            except CorruptStreamError:
                pass

    def test_shuffle_never_beats_sorted(self):
        # Sorting maximizes run lengths for a fixed multiset of values.
        rng = np.random.default_rng(46)
        values = np.sort(rng.integers(-4, 4, size=2000))
        sorted_size = len(rlc_encode(values).serialized)
        for _ in range(100):
            shuffled = rng.permutation(values)
            assert len(rlc_encode(shuffled).serialized) >= sorted_size


def rlc_decode_reference(data, max_elements):
    """rlc_decode by a plain scan of one channel, faults reported in the codec's order.

    The stream fails when empty, then on its varints, then on its walk (count
    above max_elements, runs not summing to the count, a token without its
    value), then on a run of zero, and last on bytes after the channel.
    """
    if not data:
        raise CorruptStreamError("empty stream")
    varints, ends = _varints(data)
    count = varints[0]
    if count > max_elements:
        raise CorruptStreamError(f"element count {count} exceeds limit {max_elements}")
    total = tokens = 0
    while total < count and tokens < count and 1 + 2 * tokens < len(varints):
        total += min(varints[1 + 2 * tokens], max_elements + 1)
        tokens += 1
    if total != count:
        raise CorruptStreamError("run lengths do not sum to the element count")
    cursor = 1 + 2 * tokens
    if cursor > len(varints):
        raise CorruptStreamError("truncated token stream")
    runs, zigzags = varints[1:cursor:2], varints[2:cursor:2]
    if 0 in runs:
        raise CorruptStreamError("run length of zero")
    if ends[cursor - 1] + 1 != len(data):
        raise CorruptStreamError("trailing bytes after stream")
    values = [zz // 2 if zz % 2 == 0 else -(zz + 1) // 2 for zz in zigzags]
    return [value for run, value in zip(runs, values) for _ in range(run)]


def _decode_outcome(decode, data, max_elements):
    try:
        return list(decode(data, max_elements))
    except CorruptStreamError as exc:
        return str(exc)


class TestRlcDecodeFaults:
    def _geometry_stream(self):
        cloud = random_cloud(np.random.default_rng(79), n=24, depth=4)
        occupancy = octree_encode(cloud.positions, 4).occupancy_bytes
        stream = rlc_encode(np.frombuffer(occupancy, dtype=np.uint8)).serialized
        # The container's bound: no octree level holds more nodes than anchors.
        return stream, cloud.anchor_count * 4

    def test_single_faults_match_the_reference(self):
        values = [1, 2, 0, 1, 2, 1, 1, 0, 0, -3, 2**40, -(2**40), 5, 5]
        streams = [self._geometry_stream(), (rlc_encode(values).serialized, 1 << 26)]
        seen = set()
        for stream, max_elements in streams:
            assert _decode_outcome(rlc_decode, stream, max_elements) == _decode_outcome(
                rlc_decode_reference, stream, max_elements
            )
            for mutated in _single_faults(stream):
                expected = _decode_outcome(rlc_decode_reference, mutated, max_elements)
                assert _decode_outcome(rlc_decode, mutated, max_elements) == expected
                if isinstance(expected, str):
                    seen.add(expected)
        # The mutations reach every fault a single byte can cause.
        for kind in (
            "empty stream",
            "truncated varint at end of stream",
            "element count",
            "run lengths do not sum to the element count",
            "truncated token stream",
            "run length of zero",
            "trailing bytes after stream",
        ):
            assert any(kind in message for message in seen), kind


class TestAttributeCoding:
    def test_constant_rows_one_token_per_channel(self):
        cloud = random_cloud(np.random.default_rng(50), n=64)
        cloud = sort_by_morton(cloud)
        from voxgs import AnchorCloud

        const = AnchorCloud(
            positions=cloud.positions,
            offsets=np.full_like(cloud.offsets, 3),
            features=np.full_like(cloud.features, -2),
            scalings=np.full_like(cloud.scalings, 7),
            layout=cloud.layout,
            quant=cloud.quant,
            bbox=cloud.bbox,
        )
        payloads, bits = encode_attributes(const)
        total_tokens = 0
        for name in ("offsets", "features", "scalings"):
            varints = varint_unpack_all(payloads[name])
            dims = const.layout.dims_for(name)
            assert varints.size == 3 * dims  # count + one (run, value) pair per channel
            total_tokens += dims
        assert total_tokens == const.layout.total_dims

    def test_single_anchor_runs_of_one(self):
        cloud = sort_by_morton(random_cloud(np.random.default_rng(51), n=1))
        payloads, _ = encode_attributes(cloud)
        for name in ("offsets", "features", "scalings"):
            varints = varint_unpack_all(payloads[name])
            counts = varints[0::3]
            runs = varints[1::3]
            assert np.all(counts == 1)
            assert np.all(runs == 1)

    def test_round_trip_random_cloud(self):
        cloud = sort_by_morton(random_cloud(np.random.default_rng(52), n=300, depth=8))
        payloads, bits = encode_attributes(cloud)
        offsets, features, scalings = decode_attributes(
            payloads, cloud.layout, cloud.anchor_count
        )
        assert np.array_equal(offsets, cloud.offsets)
        assert np.array_equal(features, cloud.features)
        assert np.array_equal(scalings, cloud.scalings)
        for name in ("offsets", "features", "scalings"):
            assert bits[name] == 8 * len(payloads[name])

    def test_unsorted_cloud_coded_in_morton_order(self):
        from voxgs import AnchorCloud

        cloud = sort_by_morton(random_cloud(np.random.default_rng(53), n=50))
        rev = AnchorCloud(
            positions=cloud.positions[::-1],
            offsets=cloud.offsets[::-1],
            features=cloud.features[::-1],
            scalings=cloud.scalings[::-1],
            layout=cloud.layout,
            quant=cloud.quant,
            bbox=cloud.bbox,
        )
        assert encode_attributes(rev) == encode_attributes(sort_by_morton(rev))
        assert encode_attributes(rev) == encode_attributes(cloud)

    def test_zero_anchor_count(self):
        cloud = sort_by_morton(random_cloud(np.random.default_rng(54), n=0))
        payloads, _ = encode_attributes(cloud)
        offsets, features, scalings = decode_attributes(payloads, cloud.layout, 0)
        assert offsets.shape == (0, cloud.layout.offset_dims)
        assert features.shape == (0, cloud.layout.feature_dims)
        assert scalings.shape == (0, 6)

    def test_missing_channel_rejected(self):
        cloud = sort_by_morton(random_cloud(np.random.default_rng(55), n=20))
        payloads, _ = encode_attributes(cloud)
        # Drop the final channel stream from the features payload.
        clipped = dict(payloads)
        cut = len(rlc_encode(cloud.features[:, -1]).serialized)
        clipped["features"] = payloads["features"][:-cut]
        with pytest.raises(CorruptStreamError):
            decode_attributes(clipped, cloud.layout, cloud.anchor_count)

    def test_element_count_mismatch_rejected(self):
        cloud = sort_by_morton(random_cloud(np.random.default_rng(56), n=20))
        payloads, _ = encode_attributes(cloud)
        with pytest.raises(CorruptStreamError):
            decode_attributes(payloads, cloud.layout, cloud.anchor_count + 1)

    @settings(max_examples=150, deadline=None)
    @given(attribute_clouds())
    @example((0, 1, 1, []))
    @example((1, 1, 1, list(range(10))))
    # Constant cloud: every channel ends on the value the next one starts with.
    @example((3, 1, 2, [4] * 33))
    @example((2, 1, 1, (INT32_EXTREMES * 3)[:20]))
    def test_group_bytes_match_per_channel_oracle(self, case):
        cloud = cloud_from(*case)
        payloads, bits = encode_attributes(cloud)
        for name in ("offsets", "features", "scalings"):
            mat = cloud.group(name)
            expected = b"".join(stream_oracle(mat[:, c].tolist()) for c in range(mat.shape[1]))
            assert payloads[name] == expected
            assert bits[name] == 8 * len(expected)
        decoded = decode_attributes(payloads, cloud.layout, cloud.anchor_count)
        for name, mat in zip(("offsets", "features", "scalings"), decoded):
            assert np.array_equal(mat, cloud.group(name))

    def test_runs_overrunning_into_next_channel_rejected(self):
        layout = AttributeLayout(k=1, m=2)
        z = zigzag_oracle
        good = {
            "offsets": stream_oracle([1, 1, 1]) * 3,
            "features": stream_oracle([5, 5, 6]) + stream_oracle([7, 7, 7]),
            "scalings": stream_oracle([0, 0, 0]) * 6,
        }
        assert [m.tolist() for m in decode_attributes(good, layout, 3)][1] == [[5, 7], [5, 7], [6, 7]]
        # Channel 0 drops its last token, so its run sum reaches into
        # channel 1 and counts channel 1's count slot as a run.
        short = varint_pack(np.array([3, 2, z(5), 3, 3, z(7)], dtype=np.uint64))
        # Channel 0's last run is too long and covers channel 1's elements.
        long = varint_pack(np.array([3, 2, z(5), 4, z(6), 3, 3, z(7)], dtype=np.uint64))
        for features in (short, long):
            with pytest.raises(CorruptStreamError):
                decode_attributes(dict(good, features=features), layout, 3)

    def test_stream_properties(self):
        stream = rlc_encode([9, 9, 1])
        assert isinstance(stream, RlcStream)
        assert stream.bits == 8 * len(stream.serialized)


def parse_channels_reference(data, dims, max_elements):
    """_parse_channels by a plain walk, one slot at a time: (pairs, bounds, counts, nbytes) as lists.

    Faults come in the codec's order: the varints, then each channel's walk
    (a missing stream, a count above max_elements, runs, each clipped to
    max_elements + 1, that do not sum to the count within count tokens, a
    run without its value), then a run of zero anywhere.
    """
    varints, ends = _varints(data)
    pairs, bounds, counts, nbytes = [], [0], [], []
    cursor = channel_start = 0
    for _ in range(dims):
        if cursor >= len(varints):
            raise CorruptStreamError("missing channel stream")
        count, first = varints[cursor], cursor + 1
        if count > max_elements:
            raise CorruptStreamError(f"element count {count} exceeds limit {max_elements}")
        total = tokens = 0
        while total < count and tokens < count and first + 2 * tokens < len(varints):
            total += min(varints[first + 2 * tokens], max_elements + 1)
            tokens += 1
        if total != count:
            raise CorruptStreamError("run lengths do not sum to the element count")
        cursor = first + 2 * tokens
        if cursor > len(varints):
            raise CorruptStreamError("truncated token stream")
        pairs += [list(pair) for pair in zip(varints[first:cursor:2], varints[first + 1 : cursor : 2])]
        bounds.append(len(pairs))
        counts.append(count)
        nbytes.append(ends[cursor - 1] + 1 - channel_start)
        channel_start = ends[cursor - 1] + 1
    if any(run == 0 for run, _ in pairs):
        raise CorruptStreamError("run length of zero")
    return pairs, bounds, counts, nbytes


def _parse_outcome(parse, data, dims, max_elements):
    try:
        parts = parse(data, dims, max_elements)
    except CorruptStreamError as exc:
        return str(exc)
    return [part.tolist() if isinstance(part, np.ndarray) else part for part in parts]


# (_BLOCK_SLOTS, _CHUNK_BLOCKS): the one-slot walk first, then blocks of 2
# and 4 slots of a parity, clipped and summed in one chunk or a few blocks
# at a time.
BLOCKINGS = [(1, 1024), (2, 1024), (2, 1), (4, 3), (4, 1024)]


def _blocked_outcomes(monkeypatch, data, dims, max_elements):
    """The parse's outcome under each of BLOCKINGS, every stream blocked."""
    monkeypatch.setattr(rlc, "_BLOCKED_VARINTS", 0)
    outcomes = []
    for block, chunk in BLOCKINGS:
        monkeypatch.setattr(rlc, "_BLOCK_SLOTS", block)
        monkeypatch.setattr(rlc, "_CHUNK_BLOCKS", chunk)
        outcomes.append(_parse_outcome(rlc._parse_channels, data, dims, max_elements))
    return outcomes


def _channels(*channels):
    """A stream of (count, [(run, zigzag code), ...]) channels, each slot packed canonically."""
    slots = [v for count, tokens in channels for v in (count, *(x for pair in tokens for x in pair))]
    return varint_pack(np.array(slots, dtype=np.uint64))


RUN_FAULT = "run lengths do not sum to the element count"
WRAP = 2**64 - 1

# Channel 0's runs are the odd slots from slot 1, so its token t is slot t
# of the odd parity and, with blocks of 4, a block edge falls after tokens
# 4, 8, ...; each later channel starts after its predecessor's last value.
# (channels, max_elements, expected: None for a parse that succeeds).
BLOCK_EDGE_CASES = {
    "ends on a block's last slot": ([(4, [(1, 0)] * 4), (3, [(3, 5)])], 8, None),
    "ends one slot before a block edge": ([(3, [(1, 0)] * 3), (2, [(1, 1), (1, 2)])], 8, None),
    "ends one slot after a block edge": ([(5, [(1, 0)] * 5), (2, [(2, 1)])], 8, None),
    "count reached in the tail past the last full block": (
        [(2, [(1, 0)] * 2), (6, [(1, 1), (1, 2)] * 3)], 8, None,
    ),
    "count of zero": ([(0, []), (3, [(3, 1)]), (0, []), (0, []), (2, [(2, 4)]), (0, [])], 8, None),
    # The slots before each count of zero in its block are zero values.
    "counts of zero after zero values": (
        [(2, [(1, 0), (1, 0)]), (0, []), (0, []), (1, [(1, 0)]), (0, [])], 8, None,
    ),
    "a count of zero after zero runs": (
        [(3, [(1, 0), (0, 0), (2, 0)]), (0, []), (1, [(1, 0)])], 8, "run length of zero",
    ),
    "count above max_elements": ([(4, [(4, 0)]), (9, [(9, 1)])], 8, "element count 9 exceeds limit 8"),
    # Unclipped, the runs would sum to 2**64 + 20, which wraps to the count.
    "a run of 2**64-1 and small runs in later blocks": (
        [(20, [(WRAP, 0)] + [(3, 1), (3, 0)] * 3 + [(3, 1)])], 20, RUN_FAULT,
    ),
    "a zigzag code of 2**64-1 before a channel's start in its block": (
        [(1, [(1, WRAP)]), (3, [(1, 0), (2, 1)]), (2, [(2, WRAP)]), (1, [(1, 0)])], 8, None,
    ),
    "tokens that fill several whole blocks": (
        [(16, [(1, v % 3) for v in range(16)]), (12, [(2, 1), (2, 0)] * 3), (1, [(1, 0)])], 16, None,
    ),
    "a count never reached": ([(4, [(1, 0)] * 4), (10, [(1, 1), (1, 0)] * 3)], 10, RUN_FAULT),
    "more tokens than the count": ([(3, [(1, 0), (0, 1), (0, 0), (0, 1), (2, 0)])], 8, RUN_FAULT),
    "a clipped run past a block edge": ([(5, [(1, 0)] * 4 + [(9, 1)])], 8, RUN_FAULT),
    "a run without its value": ([(3, [(1, 0)] * 3), (2, [(2, 1)])], 8, "truncated token stream"),
    "a missing channel": ([(4, [(2, 0), (2, 1)])], 8, "missing channel stream"),
}


class TestBlockedWalk:
    """The walk over blocks of 2 and 4 run slots finds what the one-slot walk finds."""

    @pytest.mark.parametrize("label", list(BLOCK_EDGE_CASES))
    def test_block_edges_and_hostile_runs(self, monkeypatch, label):
        channels, max_elements, expected = BLOCK_EDGE_CASES[label]
        dims = len(channels) + (label == "a missing channel")
        data = _channels(*channels)
        if label == "a run without its value":
            data = data[:-1]  # the last channel's last value
            dims = 2
        reference = _parse_outcome(parse_channels_reference, data, dims, max_elements)
        outcomes = _blocked_outcomes(monkeypatch, data, dims, max_elements)
        assert outcomes == [reference] * len(BLOCKINGS)
        if expected is None:
            assert reference[2] == [count for count, _ in channels]
        else:
            assert reference == expected

    def test_single_faults_match_the_one_slot_walk(self, monkeypatch):
        rng = np.random.default_rng(79)
        cloud = random_cloud(rng, n=16, depth=4, layout=AttributeLayout(k=1, m=2))
        n = cloud.anchor_count
        blob = encode_container(cloud)
        geometry, offsets, features, scalings, _ = _sections(blob)
        # The attribute region as the joined parse reads it, and the geometry
        # stream with the container's bound.
        streams = [(offsets + features + scalings, 11, n), (geometry, 1, 4 * n)]
        seen = set()
        for stream, dims, max_elements in streams:
            for mutated in [stream, *_single_faults(stream)]:
                reference = _parse_outcome(parse_channels_reference, mutated, dims, max_elements)
                outcomes = _blocked_outcomes(monkeypatch, mutated, dims, max_elements)
                assert outcomes == [reference] * len(BLOCKINGS)
                seen.add(reference if isinstance(reference, str) else None)
        for kind in (None, "truncated varint", "element count", RUN_FAULT, "run length of zero",
                     "missing channel stream", "truncated token stream"):
            assert any(kind == m if kind is None else m and kind in m for m in seen), kind
        # The whole container decodes and analyzes the same under every blocking.
        monkeypatch.setattr(rlc, "_BLOCKED_VARINTS", 0)
        results = []
        for block, chunk in BLOCKINGS:
            monkeypatch.setattr(rlc, "_BLOCK_SLOTS", block)
            monkeypatch.setattr(rlc, "_CHUNK_BLOCKS", chunk)
            decoded = decode_container(blob).equals(sort_by_morton(cloud))
            results.append((decoded, _fields(analyze_container(blob))))
        assert results == [(True, results[0][1])] * len(BLOCKINGS)

    def test_long_streams_walk_in_blocks_without_full_length_sums(self):
        # One run-free channel: every token is a run of one, two one-byte varints.
        n = 200_000
        stream = rlc_encode(np.arange(n) % 127 - 63).serialized
        assert len(stream) == 1 + 2 * n + 2  # the count takes three bytes
        tracemalloc.start()
        try:
            pairs, bounds, counts, nbytes = rlc._parse_channels(stream, 1, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bounds.tolist() == [0, n] and counts.tolist() == [n]
        assert nbytes.tolist() == [len(stream)]
        # The unpack peaks at 10 bytes a varint: 8 for the values, 1 for the
        # continuation mask and 1 for the bytes it keeps. A prefix sum of every
        # slot, alive with the values, took it to 16.
        assert peak < 11 * (2 * n + 1)
