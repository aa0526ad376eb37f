"""Bounded codec tasks: the same bytes, clouds, reports and errors for any
worker count and any task size, no thread for small inputs, and a pool that
survives a fork."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

import voxgs
import voxgs._pool as pool
from voxgs import (
    AttributeLayout,
    FloatAnchorCloud,
    QuantParams,
    analyze_container,
    decode_container,
    encode_attributes,
    encode_container,
    generate_synthetic,
    quantize_cloud,
)
from voxgs.container import quantize_cloud_kept
from voxgs.errors import CorruptStreamError
from voxgs.model import GROUPS
from voxgs.rlc import decode_groups, rlc_encode, varint_pack
from tests.conftest import random_cloud
from tests.test_golden import GOLDEN
from tests.test_sizes import REPORTS, _golden

LAYOUT = AttributeLayout(k=10, m=50)
QUANT = QuantParams(q_p=1024)


def _tiny_tasks(monkeypatch, workers):
    """Split every stage into 64-element tasks, run inline or on the pool."""
    monkeypatch.setattr(pool, "_TASK_ELEMENTS", 64)
    monkeypatch.setattr(pool, "WORKERS", workers)


WORKER_COUNTS = pytest.mark.parametrize("workers", [1, 2], ids=["inline", "pooled"])
FINITE = "ste_round requires finite input"
INT64_RANGE = "ste_round input exceeds the int64 range"


def _fields(report):
    """Every field of a RateReport; repr keeps each float's bits and makes NaN equal NaN."""
    return repr(asdict(report))


class TestHelper:
    @pytest.mark.parametrize(
        "units,unit_size", [(0, 5), (1, 0), (1, 1000), (10, 64), (10, 7), (130, 1), (3, 65)]
    )
    def test_spans_tile_the_units(self, monkeypatch, units, unit_size):
        monkeypatch.setattr(pool, "_TASK_ELEMENTS", 64)
        ranges = pool.spans(units, unit_size)
        assert [u for start, stop in ranges for u in range(start, stop)] == list(range(units))
        for start, stop in ranges:
            assert stop - start == 1 or (stop - start) * unit_size <= 64

    def test_run_keeps_span_order_and_raises_the_first_error(self, monkeypatch):
        monkeypatch.setattr(pool, "WORKERS", 2)
        ranges = pool.spans(40, pool._TASK_ELEMENTS // 4)
        assert pool.run(lambda a, b: (a, b), ranges) == ranges

        def fail_from_12(a, b):
            if a >= 12:
                raise ValueError(f"span {a}")
            return a

        with pytest.raises(ValueError, match="^span 12$"):
            pool.run(fail_from_12, ranges)

    def test_run_inside_a_task_runs_inline(self):
        # Every worker runs a task that calls run with more ranges than there
        # are workers. Were the inner ranges queued on the same pool, each
        # worker would wait on work that no free worker can take.
        code = (
            "import threading, voxgs._pool as p; p.WORKERS = 2; "
            "inner = lambda a, _: p.run(lambda c, _: (a, c, threading.current_thread().name), "
            "[(c, c + 1) for c in range(5)]); "
            "out = p.run(inner, [(a, a + 1) for a in range(4)]); "
            "print([[t[:2] for t in r] for r in out]); "
            "print(all(len({t[2] for t in r}) == 1 and r[0][2].startswith('voxgs') for r in out))"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(voxgs.__file__)))
        try:
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
            )
        except subprocess.TimeoutExpired:
            pytest.fail("a run called inside a pool task did not return")
        assert out.returncode == 0, out.stderr
        expected = [[(a, c) for c in range(5)] for a in range(4)]
        assert out.stdout == f"{expected}\nTrue\n"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_workers_follow_the_affinity_mask(self):
        cpu = min(os.sched_getaffinity(0))
        code = (
            f"import os; os.sched_setaffinity(0, {{{cpu}}}); "
            "import voxgs._pool as p; print(p.WORKERS)"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(voxgs.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "1\n"


class TestSameResults:
    @WORKER_COUNTS
    @pytest.mark.parametrize("golden", GOLDEN)
    def test_golden_digests(self, monkeypatch, workers, golden):
        seed, anchors, k, m, q_p, mlp_bytes, size, digest = golden
        _tiny_tasks(monkeypatch, workers)
        blob = _golden(seed, anchors, k, m, q_p, mlp_bytes)[1]
        assert len(blob) == size
        assert hashlib.sha256(blob).hexdigest() == digest

    @WORKER_COUNTS
    @pytest.mark.parametrize("golden,pinned", zip(GOLDEN, REPORTS))
    def test_golden_reports(self, monkeypatch, workers, golden, pinned):
        blob = _golden(*golden[:6])[1]
        expected = _fields(analyze_container(blob))
        _tiny_tasks(monkeypatch, workers)
        report = analyze_container(blob)
        assert _fields(report) == expected
        assert report.to_kv() == pinned["kv"]
        assert report.to_text() == pinned["text"]

    @WORKER_COUNTS
    def test_round_trips(self, monkeypatch, workers):
        rng = np.random.default_rng(71)
        clouds = [random_cloud(rng) for _ in range(12)] + [random_cloud(rng, n=0)]
        fcloud = generate_synthetic(72, 600, LAYOUT, run_bias=0.5)
        blobs = [encode_container(c) for c in clouds]
        quantized = quantize_cloud(fcloud, QUANT)
        big = encode_container(quantized)
        reports = [_fields(analyze_container(b)) for b in blobs + [big]]

        _tiny_tasks(monkeypatch, workers)
        assert quantize_cloud(fcloud, QUANT).equals(quantized)
        assert encode_container(quantized) == big
        assert decode_container(big).equals(quantized)
        for cloud, blob in zip(clouds, blobs):
            assert encode_container(cloud) == blob
            assert decode_container(blob).equals(voxgs.sort_by_morton(cloud))
        assert [_fields(analyze_container(b)) for b in blobs + [big]] == reports

    @WORKER_COUNTS
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
    def test_quantize_raises_what_whole_groups_raise(self, monkeypatch, workers, faults, message):
        fcloud = generate_synthetic(73, 200, AttributeLayout(k=2, m=3), run_bias=0.5)
        kept = quantize_cloud_kept(fcloud, QUANT)[1]
        groups = {name: getattr(fcloud, name).copy() for name in GROUPS}
        for name, (row, value) in faults.items():
            groups[name][kept[row], 0] = value
        bad = FloatAnchorCloud(
            positions=fcloud.positions, **groups, layout=fcloud.layout, bbox=fcloud.bbox
        )
        _tiny_tasks(monkeypatch, workers)
        with pytest.raises(ValueError, match=f"^{message}$"):
            quantize_cloud(bad, QUANT)


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
    @WORKER_COUNTS
    def test_single_faults_match_the_reference(self, monkeypatch, workers):
        rng = np.random.default_rng(74)
        cloud = random_cloud(rng, n=24, depth=4, layout=AttributeLayout(k=1, m=2))
        n = cloud.anchor_count
        payloads = encode_attributes(cloud)[0]
        _tiny_tasks(monkeypatch, workers)
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

    @WORKER_COUNTS
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
        self, monkeypatch, workers, channels, message
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
        _tiny_tasks(monkeypatch, workers)
        assert _outcome(decode_groups, payloads, cloud.layout, 8) == message
        if "elements" in message:
            payloads["scalings"] += rlc_encode([0]).serialized
            assert _outcome(decode_groups, payloads, cloud.layout, 8) == message


def _encode_and_decode(fcloud, expected):
    blob = encode_container(quantize_cloud(fcloud, QUANT))
    assert blob == expected
    assert decode_container(blob).equals(quantize_cloud(fcloud, QUANT))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_forked_child_codes_after_a_pooled_encode(monkeypatch):
    # A forked child inherits the executor object but none of its threads.
    _tiny_tasks(monkeypatch, 2)
    fcloud = generate_synthetic(76, 300, LAYOUT, run_bias=0.5)
    blob = encode_container(quantize_cloud(fcloud, QUANT))
    assert pool._executor is not None
    fork = multiprocessing.get_context("fork")
    child = fork.Process(target=_encode_and_decode, args=(fcloud, blob))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("forked child hung on the inherited pool")
    assert child.exitcode == 0


@pytest.mark.parametrize("anchors,pooled", [(1000, False), (20_000, True)])
def test_small_inputs_stay_on_the_calling_thread(monkeypatch, anchors, pooled):
    # 1000 anchors of k=10, m=50 is the largest cloud of the clouds-small benchmark.
    # Decode and analyze never submit: decode's expansion holds the interpreter
    # lock, and analyze's per-channel fits measured slower on the pool.
    monkeypatch.setattr(pool, "WORKERS", 2)
    submitted = []
    submit = ThreadPoolExecutor.submit

    def spy(self, fn, /, *args, **kwargs):
        submitted.append(fn)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", spy)
    fcloud = generate_synthetic(77, anchors, LAYOUT, run_bias=0.5)
    blob = encode_container(quantize_cloud(fcloud, QUANT))
    assert bool(submitted) == pooled
    submitted.clear()
    decode_container(blob)
    assert submitted == []
    analyze_container(blob)
    assert submitted == []


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
