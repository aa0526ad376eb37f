import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxgs import (
    CalibrationResult,
    LaplaceModel,
    calibrate_alpha,
    estimate_bits,
    fit_laplace,
    interval_prob,
)
import voxgs.rate as rate
from voxgs.container import analyze_container, decode_container
from voxgs.errors import CorrelationUndefinedError
from voxgs.model import GROUPS
from voxgs.quantize import ste_round
from voxgs.rate import (
    B_MIN,
    PROB_FLOOR,
    RateReport,
    _laplace_terms,
    _nll_terms,
    _symbol_table,
    _value_counts,
    channel_bits,
    nll_bits,
    nll_bits_and_grads,
    pearson,
)
from voxgs.sandbox import make_scene, step
from tests.test_golden import GOLDEN
from tests.test_sizes import _golden

INT32_MIN, INT32_MAX = int(np.iinfo(np.int32).min), int(np.iinfo(np.int32).max)


class TestFitLaplace:
    def test_constant_stream_gets_floor_scale(self):
        model = fit_laplace([0, 0, 0, 0])
        assert model.mu == 0.0
        assert model.sigma == 0.0
        assert model.b == B_MIN

    def test_two_point_sample(self):
        model = fit_laplace([-1, 1])
        assert model.mu == 0.0
        assert model.sigma == 1.0  # population variance
        assert model.b == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(60)
        samples = rng.laplace(3.0, 2.0, size=100_000)
        model = fit_laplace(samples)
        assert abs(model.mu - 3.0) < 0.05
        assert abs(model.b - 2.0) < 0.05

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_laplace([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fit_laplace([1.0, np.inf])

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint16, np.uint64])
    def test_integer_input_fits_like_its_float64_copy(self, dtype):
        # Integers are fitted without a float64 copy only while their sums are exact;
        # the int64/uint64 draws of half the range sum past 2**53 and take the copy.
        rng = np.random.default_rng(61)
        info = np.iinfo(dtype)
        small = rng.integers(max(info.min, -50), min(info.max, 50), size=51_200).astype(dtype)
        wide = rng.integers(info.min // 2, info.max // 2, size=20_000, dtype=dtype)
        for arr in (small, small[::7], wide):
            fit, ref = fit_laplace(arr), fit_laplace(arr.astype(np.float64))
            assert (fit.mu, fit.sigma, fit.b) == (ref.mu, ref.sigma, ref.b)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            LaplaceModel(mu=0.0, b=0.0, sigma=0.0)

    @pytest.mark.parametrize(
        "mu,b",
        [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf), (0.0, math.nan)],
    )
    def test_non_finite_parameters_rejected(self, mu, b):
        with pytest.raises(ValueError, match="^Laplace location must be finite and scale positive"):
            LaplaceModel(mu=mu, b=b, sigma=1.0)


def _assert_counts_fit_the_expansion(values, counts):
    """fit_laplace and estimate_bits with counts against the same calls on the
    values repeated counts times: mu by its bits, sigma and the bits to rounding."""
    values, counts = np.asarray(values), np.asarray(counts)
    expanded = np.repeat(values, counts.astype(np.int64))
    model, ref = fit_laplace(values, counts), fit_laplace(expanded)
    assert model.mu.hex() == ref.mu.hex()
    assert model.sigma == pytest.approx(ref.sigma, rel=1e-12, abs=0)
    assert model.b == pytest.approx(ref.b, rel=1e-12, abs=0)
    assert estimate_bits(ref, values, counts) == pytest.approx(
        estimate_bits(ref, expanded), rel=1e-12, abs=0
    )
    return model


class TestCounts:
    """Multiplicities stand for the repeated values, which are never built."""

    @settings(max_examples=200, deadline=None)
    @given(
        dtype=st.sampled_from([np.int32, np.int64, np.uint16]),
        pairs=st.lists(
            st.tuples(st.integers(0, 2000), st.integers(0, 40)), min_size=1, max_size=40
        ),
    )
    def test_counts_fit_like_the_expansion(self, dtype, pairs):
        values, counts = zip(*pairs)
        if sum(counts) == 0:
            counts = (1,) + counts[1:]
        offset = 0 if dtype == np.uint16 else 1000
        _assert_counts_fit_the_expansion(np.subtract(values, offset).astype(dtype), counts)

    def test_constant_channel_gets_floor_scale(self):
        model = _assert_counts_fit_the_expansion(np.array([-4, 9]), [17, 0])
        assert (model.mu, model.sigma, model.b) == (-4.0, 0.0, B_MIN)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_int32_extremes(self, dtype):
        values = np.array([INT32_MIN, 0, INT32_MAX], dtype=dtype)
        _assert_counts_fit_the_expansion(values, [3, 1, 2])
        _assert_counts_fit_the_expansion(values, [1, 0, 1])

    def test_sparse_values_and_float_counts(self):
        # A range far past the entry count, and integral float counts.
        _assert_counts_fit_the_expansion(np.array([-7000, 40, 3, 40]), [1.0, 5.0, 2.0, 3.0])

    def test_empty_counts_estimate_zero_bits(self):
        assert estimate_bits(fit_laplace([1, 2]), [], []) == 0.0

    @pytest.mark.parametrize(
        "counts,message",
        [
            ([1, -1, 2], "counts must be non-negative"),
            ([1, 0.5, 2], "counts must hold finite integers"),
            ([1, np.nan, 2], "counts must hold finite integers"),
            ([1, 2**63, 2], "counts integers overflow int64 storage"),
            ([1, 2], "counts must have the shape of values"),
            ([[1, 2, 3]], "counts must have the shape of values"),
        ],
    )
    def test_bad_counts_rejected(self, counts, message):
        values = np.array([4, 5, 6])
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_laplace(values, counts)
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate_bits(fit_laplace(values), values, counts)

    @pytest.mark.parametrize("values,counts", [([4, 5, 6], [0, 0, 0]), ([], [])])
    def test_zero_total_rejected(self, values, counts):
        with pytest.raises(ValueError, match="empty sequence"):
            fit_laplace(values, counts)


class TestIntervalProb:
    def test_analytic_center_value(self):
        model = LaplaceModel(mu=0.0, b=1.0, sigma=math.sqrt(2.0))
        assert interval_prob(model, 0) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)

    def test_symmetry(self):
        model = LaplaceModel(mu=0.0, b=2.5, sigma=2.5 * math.sqrt(2.0))
        for c in (1, 2, 7, 40):
            assert interval_prob(model, c) == pytest.approx(interval_prob(model, -c), rel=1e-14)

    def test_normalization(self):
        model = LaplaceModel(mu=0.0, b=2.0, sigma=2.0 * math.sqrt(2.0))
        xs = np.arange(-(10**6), 10**6 + 1)
        total = interval_prob(model, xs, floor=False).sum()
        assert abs(total - 1.0) < 1e-9
        # With the floor the sum can only grow.
        assert interval_prob(model, xs).sum() >= total

    def test_floor_binds_in_tail(self):
        model = LaplaceModel(mu=0.0, b=0.5, sigma=0.5 * math.sqrt(2.0))
        assert interval_prob(model, 10_000) == PROB_FLOOR
        assert interval_prob(model, 10_000, floor=False) < PROB_FLOOR

    def test_cdf_consistency(self):
        # Against a direct CDF-difference evaluation at moderate arguments.
        mu, b = 0.7, 1.3
        model = LaplaceModel(mu=mu, b=b, sigma=b * math.sqrt(2.0))

        def cdf(t):
            u = t - mu
            return 0.5 + 0.5 * math.copysign(1.0, u) * (1.0 - math.exp(-abs(u) / b))

        for x in range(-8, 9):
            assert interval_prob(model, x) == pytest.approx(
                cdf(x + 0.5) - cdf(x - 0.5), rel=1e-12
            )


class TestEstimateBits:
    def test_empty_sequence(self):
        model = fit_laplace([1, 2, 3])
        assert estimate_bits(model, []) == 0.0

    @pytest.mark.parametrize("values", [[math.nan], [1.0, math.inf], [-math.inf, 2.0]])
    def test_non_finite_symbols_rejected(self, values):
        with pytest.raises(ValueError, match="^estimate_bits requires finite input$"):
            estimate_bits(fit_laplace([1, 2]), values)
        with pytest.raises(ValueError, match="^estimate_bits requires finite input$"):
            estimate_bits(fit_laplace([1, 2]), values, [1] * len(values))

    @pytest.mark.parametrize("x", [[math.nan], [1.0, math.inf], -math.inf])
    def test_nll_bits_rejects_non_finite_symbols(self, x):
        # Before, NaN came back as NaN bits and inf as the 40-bit floor.
        with pytest.raises(ValueError, match="^nll_bits requires finite input$"):
            nll_bits(fit_laplace([1, 2]), x)

    def test_constant_stream_finite(self):
        model = fit_laplace([0] * 100)
        bits = estimate_bits(model, [0] * 100)
        assert math.isfinite(bits)
        assert bits == pytest.approx(100 * -math.log2(interval_prob(model, 0)), rel=1e-12)

    def test_blocks_sum_like_one_pass(self):
        values = np.round(np.random.default_rng(68).laplace(0.0, 5.0, 3 * 2**16 + 17))
        model = fit_laplace(values)
        assert estimate_bits(model, values) == float(nll_bits(model, values).sum())

    def test_plug_in_entropy_oracle(self):
        # Histogram entropy of discretized-Laplace samples tracks the estimate.
        rng = np.random.default_rng(61)
        samples = np.round(rng.laplace(0.0, 4.0, size=10_000)).astype(np.int64)
        model = fit_laplace(samples)
        est = estimate_bits(model, samples)

        _, counts = np.unique(samples, return_counts=True)
        p = counts / counts.sum()
        plug_in = -(p * np.log2(p)).sum() * samples.size
        assert abs(est - plug_in) <= 0.02 * plug_in

    def test_cross_entropy_at_least_entropy(self):
        # Samples drawn from (a continuous stand-in for) the model itself:
        # cross-entropy under the fit cannot undercut the plug-in entropy
        # beyond sampling noise.
        rng = np.random.default_rng(62)
        samples = np.round(rng.laplace(0.0, 3.0, size=50_000)).astype(np.int64)
        model = fit_laplace(samples)
        est = estimate_bits(model, samples)
        _, counts = np.unique(samples, return_counts=True)
        p = counts / counts.sum()
        plug_in = -(p * np.log2(p)).sum() * samples.size
        assert est >= plug_in * 0.995


class TestGradients:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(65)
        eps = 1e-6
        checked = 0
        while checked < 100:
            mu = float(rng.uniform(-5.0, 5.0))
            b = float(rng.uniform(0.3, 6.0))
            x = float(rng.integers(-15, 16))
            model_q = interval_prob(LaplaceModel(mu=mu, b=b, sigma=b), x, floor=False)
            if model_q <= PROB_FLOOR * 4:
                continue  # stay away from the floor's clamp region

            f, df_dx, df_dmu, df_db = nll_bits_and_grads(np.array([x]), mu, b)

            def nll(xv, muv, bv):
                q = interval_prob(LaplaceModel(mu=muv, b=bv, sigma=bv), xv)
                return -math.log2(q)

            fd_mu = (nll(x, mu + eps, b) - nll(x, mu - eps, b)) / (2 * eps)
            fd_b = (nll(x, mu, b + eps) - nll(x, mu, b - eps)) / (2 * eps)
            fd_x = (nll(x + eps, mu, b) - nll(x - eps, mu, b)) / (2 * eps)
            scale = max(1.0, abs(fd_mu), abs(fd_b), abs(fd_x))
            assert abs(df_dmu[0] - fd_mu) <= 1e-5 * scale
            assert abs(df_db[0] - fd_b) <= 1e-5 * scale
            assert abs(df_dx[0] - fd_x) <= 1e-5 * scale
            checked += 1

    def test_floored_region_has_zero_gradient(self):
        f, df_dx, df_dmu, df_db = nll_bits_and_grads(np.array([1e6]), 0.0, 0.5)
        assert f[0] == pytest.approx(40.0, rel=1e-12)
        assert df_dx[0] == df_dmu[0] == df_db[0] == 0.0

    def test_float_stream_peak_memory_near_its_outputs(self):
        # Float streams are evaluated in _BLOCK-sized pieces written into one output, so
        # the kernel's temporaries stay a fixed size while the outputs grow with the stream.
        x = np.random.default_rng(69).laplace(0.0, 4.0, 32 * rate._BLOCK)
        tracemalloc.start()
        try:
            out = nll_bits_and_grads(x, 0.1, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in out)
        assert outputs == 4 * x.nbytes
        assert peak < 1.25 * outputs, peak / outputs

    @pytest.mark.parametrize(
        "mu,b",
        [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf), (0.0, math.nan), (0.0, 0.0), (0.0, -1.0)],
    )
    def test_non_finite_parameters_rejected(self, mu, b):
        # As LaplaceModel refuses them; before, NaN bits or the 40-bit floor came back.
        with pytest.raises(ValueError, match="^Laplace location must be finite and scale positive"):
            nll_bits_and_grads(np.array([1, 2]), mu, b)

    def test_nll_bits_matches_grads_value(self):
        rng = np.random.default_rng(66)
        x = rng.integers(-10, 10, size=50).astype(np.float64)
        model = fit_laplace(x)
        f, _, _, _ = nll_bits_and_grads(x, model.mu, model.b)
        assert np.allclose(f, nll_bits(model, x), rtol=1e-12)


def _masked_reference(x, mu, b):
    """The three-way masked interval probability and six-exp gradient that the
    one branch-free kernel replaced: returns (q, f, df/dx, df/dmu, df/db)."""
    u1 = x - mu - 0.5
    u2 = x - mu + 0.5
    q = np.empty_like(u1)
    right = u1 >= 0
    left = u2 <= 0
    mid = ~(right | left)
    span = -np.expm1(-1.0 / b)
    q[right] = 0.5 * np.exp(-u1[right] / b) * span
    q[left] = 0.5 * np.exp(u2[left] / b) * span
    q[mid] = 1.0 - 0.5 * np.exp(-u2[mid] / b) - 0.5 * np.exp(u1[mid] / b)

    pdf1 = np.exp(-np.abs(u1) / b) / (2.0 * b)
    pdf2 = np.exp(-np.abs(u2) / b) / (2.0 * b)
    dq_dx = pdf2 - pdf1
    dq_db = -(u2 * np.exp(-np.abs(u2) / b) - u1 * np.exp(-np.abs(u1) / b)) / (2.0 * b * b)
    qc = np.maximum(q, PROB_FLOOR)
    scale = np.where(q <= PROB_FLOOR, 0.0, -1.0 / (qc * math.log(2.0)))
    df_dx = scale * dq_dx
    return q, -np.log2(qc), df_dx, -df_dx, scale * dq_db


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


class TestKernelMatchesMaskedReference:
    # Dyadic locations keep mu -/+ 0.5 exact, so interval ends land on mu.
    @settings(max_examples=300, deadline=None)
    @given(
        mu=st.one_of(st.integers(-640, 640).map(lambda i: i / 64), st.floats(-50.0, 50.0)),
        b=st.one_of(st.just(B_MIN), st.floats(B_MIN, 50.0)),
        xs=st.lists(st.integers(-60, 60).map(float), max_size=40),
    )
    @example(mu=0.0, b=B_MIN, xs=[-0.0, 0.0])
    @example(mu=0.0, b=1.0, xs=[-0.0, 0.0, -1.0, 1.0])
    def test_bit_identical(self, mu, b, xs):
        x = np.array([mu - 0.5, mu + 0.5, mu + 0.0, mu - 0.0, 1e6, -1e6, *xs])
        q, f, df_dx, df_dmu, df_db = _masked_reference(x, mu, b)
        model = LaplaceModel(mu=mu, b=b, sigma=b * math.sqrt(2.0))
        assert _same_bits(interval_prob(model, x, floor=False), q)
        for got, want in zip(nll_bits_and_grads(x, mu, b), (f, df_dx, df_dmu, df_db)):
            assert _same_bits(got, want)
        assert _same_bits(nll_bits(model, x), f)

    def test_grid_reaches_the_floor(self):
        q, f, df_dx, _, _ = _masked_reference(np.array([1e6, -1e6]), 0.0, B_MIN)
        assert np.all(q < PROB_FLOOR) and np.all(f == 40.0) and np.all(df_dx == 0.0)


def _assert_matches_direct(x, mu, b):
    """estimate_bits and nll_bits_and_grads give the bits of one direct kernel pass."""
    direct = np.asarray(x, dtype=np.float64).ravel()
    q = _laplace_terms(direct, mu, b)[0]
    total = float((-np.log2(np.maximum(q, PROB_FLOOR))).sum())
    model = LaplaceModel(mu=mu, b=b, sigma=b * math.sqrt(2.0))
    assert _same_bits(estimate_bits(model, x), total)
    for got, want in zip(nll_bits_and_grads(x, mu, b), _nll_terms(direct, mu, b)):
        assert _same_bits(got, want)


class TestSymbolTableMatchesDirect:
    """The per-distinct-value table changes no bit of any result."""

    @settings(max_examples=200, deadline=None)
    @given(
        dtype=st.sampled_from([np.int32, np.int64, np.float64]),
        lo=st.integers(-1000, 1000),
        offsets=st.lists(st.integers(0, 60), min_size=1, max_size=60),
        mu=st.floats(-50.0, 50.0),
        b=st.one_of(st.just(B_MIN), st.floats(B_MIN, 50.0)),
    )
    def test_integer_streams(self, dtype, lo, offsets, mu, b):
        x = (lo + np.array(offsets)).astype(dtype)
        narrow = max(offsets) - min(offsets) < len(offsets)
        # Only integer dtypes are tabulated; integer-valued float64 streams go direct.
        assert (_symbol_table(x) is not None) == (narrow and dtype != np.float64)
        _assert_matches_direct(x, mu, b)

    # narrow: every symbol is an integer and max - min < len(x), so an integer dtype is tabled.
    @pytest.mark.parametrize(
        "x,narrow",
        [
            (np.arange(-3, 5), True),  # range = length - 1
            (np.array([0, 0, 0, 4]), False),  # range = length
            (np.array([7]), True),
            (np.array([], dtype=np.int64), False),
            (np.array([-0.0, 0.0, 1.0, -0.0]), True),
            (np.array([INT32_MIN, INT32_MAX, 0, 0], dtype=np.int32), False),
            (np.array([5, 3, 4, 5], dtype=np.int32), True),
            (np.array([5.0, 3.0, 4.0, 5.0]), True),
            (np.array([0.5, 1.0, 1.5, 1.0]), False),
            # 1e-300 + 3 rounds to the integer 3: the symbol itself must be integral.
            (np.array([1e-300, -3.0, 0.0, -1.0]), False),
        ],
    )
    @pytest.mark.parametrize("b", [B_MIN, 0.7, 6.0])
    def test_edge_streams(self, x, narrow, b):
        assert (_symbol_table(x) is not None) == (narrow and x.dtype.kind in "iu")
        _assert_matches_direct(x, 0.25, b)

    @pytest.mark.parametrize(
        "x", [np.array([np.nan, 1.0]), np.array([np.inf, np.inf]), np.array([-np.inf, 0.0])]
    )
    def test_non_finite_streams_have_no_table(self, x):
        assert _symbol_table(x) is None

    def test_table_indexes_every_symbol(self):
        x = np.array([[3, -2], [0, 3], [1, 1]], dtype=np.int32).ravel()
        table, index = _symbol_table(x)
        assert table.dtype == np.float64 and table.tolist() == [-2, -1, 0, 1, 2, 3]
        assert np.array_equal(table[index], x)


def _per_channel_rows(channels, weights):
    """_value_counts' rows of the channels, one np.unique per channel."""
    rows = []
    for c, (values, w) in enumerate(zip(channels, weights)):
        distinct, inverse = np.unique(np.asarray(values, dtype=np.int64), return_inverse=True)
        counts = np.bincount(inverse, w).astype(np.int64)
        rows.append((np.full(distinct.size, c), distinct, counts))
    return [np.concatenate(col) for col in zip(*rows)]


class TestBatchedChannels:
    """_value_counts and channel_bits equal their per-channel counterparts."""

    CASES = {
        "dense": [[0, 1, 1, 0, 1], [1, 0, 0, 1], [1, 1, 1]],
        "narrow": [[5, 5, 5, 5], [1, -1, 1, 2, 2], [0], [3, 4, 3]],
        "wide-beside-narrow": [[5, 5, 5], [INT32_MIN, INT32_MAX, 0, INT32_MIN], [1, -1, 1, 2]],
        "one-channel": [[7, -2, 7, 7, 0]],
        "one-value-each": [[3], [-3], [0]],
    }

    @pytest.mark.parametrize("name", CASES)
    def test_rows_and_bits_match_per_channel_calls(self, name):
        channels = self.CASES[name]
        rng = np.random.default_rng(len(name))
        weights = [rng.integers(1, 6, len(values)) for values in channels]
        values = np.concatenate([np.asarray(v, dtype=np.int64) for v in channels])
        lengths = [len(v) for v in channels]
        rows = _value_counts(values, np.concatenate(weights), lengths)
        for got, want in zip(rows, _per_channel_rows(channels, weights)):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        expected = []
        for c in range(len(channels)):
            v, n = rows[1][rows[0] == c], rows[2][rows[0] == c]
            expected.append(estimate_bits(fit_laplace(v, n), v, n))
        assert channel_bits(*rows).tolist() == pytest.approx(expected, rel=1e-12, abs=0)

    def test_table_and_unique_paths_both_taken(self, monkeypatch):
        found = []
        table = rate._symbol_table
        monkeypatch.setattr(rate, "_symbol_table", lambda x: found.append(table(x)) or found[-1])
        for name in ("dense", "wide-beside-narrow"):
            values = np.concatenate([np.asarray(v, dtype=np.int64) for v in self.CASES[name]])
            _value_counts(values, np.ones(values.size), [len(v) for v in self.CASES[name]])
        assert [f is None for f in found] == [False, True]

    def test_constant_channel_gets_floor_scale(self):
        rows = [np.array([0, 1, 1]), np.array([4, -1, 1]), np.array([9, 3, 3])]
        bits = channel_bits(*rows)
        floor = estimate_bits(LaplaceModel(mu=4.0, b=B_MIN, sigma=0.0), [4] * 9)
        assert bits[0] == floor
        assert bits[1] == pytest.approx(
            estimate_bits(fit_laplace([-1, 1], [3, 3]), [-1, 1], [3, 3]), rel=1e-12
        )


class TestKernelWork:
    """The Laplace kernel sees each stream's value range, not each symbol."""

    @pytest.fixture
    def kernel_sizes(self, monkeypatch):
        sizes = []
        kernel = rate._laplace_terms

        def spy(x, mu, b):
            sizes.append(x.size)
            return kernel(x, mu, b)

        monkeypatch.setattr(rate, "_laplace_terms", spy)
        return sizes

    @staticmethod
    def _values(stream):
        return int(stream.max()) - int(stream.min()) + 1

    @pytest.mark.parametrize("lambda3", [1e-4, 0.0])
    def test_sandbox_step(self, kernel_sizes, lambda3):
        scene = make_scene(anchors=256, lambda3=lambda3)
        streams = [ste_round(scene.params[g] * scene.scale(g)) for g in GROUPS]
        step(scene)
        assert sum(kernel_sizes) <= sum(self._values(z) for z in streams)
        assert sum(self._values(z) for z in streams) < sum(z.size for z in streams) // 100

    def test_analyze_container(self, kernel_sizes):
        _, blob = _golden(*GOLDEN[1][:6])
        cloud = decode_container(blob)
        kernel_sizes.clear()
        analyze_container(blob)
        bound = 0
        for name in ("offsets", "features", "scalings"):
            mat = cloud.group(name)
            bound += self._values(mat) + sum(self._values(col) for col in mat.T)
        assert sum(kernel_sizes) <= bound < cloud.anchor_count * cloud.layout.total_dims


class TestCalibrateAlpha:
    def test_single_sequence_correlation_undefined(self):
        with pytest.raises(CorrelationUndefinedError) as exc_info:
            calibrate_alpha([np.array([1, 2, 3, 1, 1])])
        assert exc_info.value.alpha > 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            calibrate_alpha([])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            calibrate_alpha([np.array([1, 2]), np.array([], dtype=np.int64)])

    @pytest.mark.parametrize(
        "sequence,message",
        [
            (np.array([1.5, 2.0, 2.0]), "values must hold finite integers"),
            (np.array([1.0, np.nan]), "values must hold finite integers"),
            (np.array([2**63, 1], dtype=np.uint64), "values integers overflow int64 storage"),
            (np.array([1e30, 0.0]), "values integers overflow int64 storage"),
        ],
    )
    def test_sequence_int64_cannot_hold_rejected(self, sequence, message):
        # A cast would truncate the first, wrap the third and warn on the fourth.
        corpus = [np.array([1, 2, 3, 1, 1]), sequence]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                calibrate_alpha(corpus)

    def test_integral_float_corpus_fits_like_its_integers(self):
        rng = np.random.default_rng(68)
        corpus = [np.round(rng.laplace(0, s, size=300)) for s in (1, 2, 4)]
        as_floats = calibrate_alpha(corpus)
        as_ints = calibrate_alpha([seq.astype(np.int64) for seq in corpus])
        assert as_floats.alpha == as_ints.alpha
        assert np.array_equal(as_floats.estimated_bits, as_ints.estimated_bits)

    def test_alpha_is_bit_ratio(self):
        rng = np.random.default_rng(67)
        corpus = [
            np.round(rng.laplace(0, s, size=n)).astype(np.int64)
            for s, n in [(1, 200), (2, 500), (4, 900), (8, 1400)]
        ]
        result = calibrate_alpha(corpus)
        assert isinstance(result, CalibrationResult)
        assert result.alpha == pytest.approx(
            result.actual_bits.sum() / result.estimated_bits.sum(), rel=1e-12
        )
        assert -1.0 <= result.correlation <= 1.0

    def test_pearson_within_one_on_two_point_scatters(self):
        # Two points lie on a line, yet rounding carried 271 of these past 1 in magnitude.
        rng = np.random.default_rng(70)
        for _ in range(2000):
            r = pearson(rng.normal(size=2), rng.normal(size=2))
            assert -1.0 <= r <= 1.0 and abs(r) == pytest.approx(1.0, abs=1e-12)

    def test_pearson_degenerate(self):
        assert pearson([1.0], [2.0]) is None
        assert pearson([1.0, 1.0], [2.0, 3.0]) is None
        assert pearson([1.0, 2.0], [3.0, 3.0]) is None
        assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)


class TestRateReport:
    def _report(self):
        return RateReport(
            actual_bits={"P": 800, "O": 1600, "A": 4000, "S": 1200, "MLP": 400},
            estimated_bits={"O": 2000.0, "A": 5000.0, "S": 1500.0},
            group_alpha={"O": 0.8, "A": 0.8, "S": 0.8},
            alpha=0.8,
            correlation=0.97,
        )

    def test_percentages_sum_to_100(self):
        report = self._report()
        assert sum(report.percentages.values()) == pytest.approx(100.0, abs=0.1)

    def test_text_and_kv_render(self):
        report = self._report()
        text = report.to_text()
        assert "alpha" in text and "MLP" in text
        kv = report.to_kv()
        assert "alpha=0.800000" in kv
        assert "total_bits=8000" in kv

    def test_zero_total(self):
        report = RateReport(
            actual_bits={"P": 0, "O": 0, "A": 0, "S": 0, "MLP": 0},
            estimated_bits={"O": 0.0, "A": 0.0, "S": 0.0},
            group_alpha={"O": None, "A": None, "S": None},
            alpha=float("nan"),
            correlation=None,
        )
        assert all(v == 0.0 for v in report.percentages.values())
        assert "n/a" in report.to_text()
