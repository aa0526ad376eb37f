import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxgs import (
    AnchorCloud,
    AttributeLayout,
    QuantParams,
    RlcStream,
    decode_attributes,
    encode_attributes,
    rlc_decode,
    rlc_encode,
)
from voxgs.errors import CorruptStreamError
from voxgs.geometry import sort_by_morton
from voxgs.rlc import (
    read_varints,
    tokenize_runs,
    varint_pack,
    varint_unpack_all,
    zigzag_decode,
    zigzag_encode,
)
from tests.conftest import random_cloud


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


class TestRlcEncode:
    def test_maximal_runs(self):
        stream = rlc_encode([5, 5, 5, 2])
        assert stream.values.tolist() == [5, 2]
        assert stream.run_lengths.tolist() == [3, 1]
        assert stream.element_count == 4

    def test_empty(self):
        stream = rlc_encode([])
        assert stream.values.size == 0
        assert stream.serialized == b"\x00"  # just the zero count

    def test_adjacent_tokens_distinct(self):
        rng = np.random.default_rng(42)
        values = rng.integers(-3, 3, size=5000)
        stream = rlc_encode(values)
        assert np.all(stream.values[1:] != stream.values[:-1])
        assert stream.run_lengths.min() >= 1
        assert stream.run_lengths.sum() == 5000

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
        vals, runs = tokenize_runs(np.array([1, 1, 2, 2, 2, 1]))
        assert vals.tolist() == [1, 2, 1]
        assert runs.tolist() == [2, 3, 1]


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

    def test_unsorted_cloud_rejected(self):
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
        with pytest.raises(ValueError):
            encode_attributes(rev)

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
