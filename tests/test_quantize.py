import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxgs import (
    AttributeLayout,
    FloatAnchorCloud,
    QuantParams,
    dequantize_features,
    quantize_cloud,
    quantize_features,
    quantize_positions,
    ste_round,
)
from voxgs.quantize import voxelize
from tests.test_model import BAD_Q_P, Q_P_RULE


def _sign_multiply_round(x):
    """The sign * magnitude form of ste_round, kept as an oracle for finite input."""
    arr = np.asarray(x, dtype=np.float64)
    return (np.sign(arr) * np.floor(np.abs(arr) + 0.5)).astype(np.int64)


class TestSteRound:
    def test_nearest_integer(self):
        assert ste_round(2.4) == 2
        assert ste_round(2.6) == 3
        assert ste_round(-1.4) == -1

    def test_ties_away_from_zero(self):
        assert ste_round(-0.5) == -1
        assert ste_round(0.5) == 1
        assert ste_round(2.5) == 3
        assert ste_round(-2.5) == -3

    def test_identity_on_zero(self):
        assert ste_round(0.0) == 0

    def test_array_dtype(self):
        out = ste_round(np.array([0.4, -0.6, 1.5]))
        assert out.dtype == np.int64
        assert out.tolist() == [0, -1, 2]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ste_round(float("nan"))
        with pytest.raises(ValueError):
            ste_round(np.array([1.0, np.inf]))

    def test_out_of_int64_range_rejected_before_cast(self):
        # Casting such a float to int64 warns and yields garbage; the range
        # check must come first, so no warning may escape.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (np.array([1e300]), -1e300, np.array([0.0, 2.0**63])):
                with pytest.raises(ValueError, match="int64"):
                    ste_round(x)
            assert ste_round(2.0**63 - 1024) == 2**63 - 1024
            assert ste_round(-(2.0**63 - 1024)) == -(2**63 - 1024)

    @pytest.mark.parametrize(
        "x,message",
        [
            (np.array([np.nan]), "requires finite input"),
            (np.array([np.inf]), "requires finite input"),
            (np.array([-np.inf]), "requires finite input"),
            (np.array([2.0**63]), "exceeds the int64 range"),
            (np.array([-(2.0**63)]), "exceeds the int64 range"),
            (np.array([1e300, np.nan]), "requires finite input"),
            (np.array([np.nan, 1e300]), "requires finite input"),
            (float("nan"), "requires finite input"),
            (-(2.0**63), "exceeds the int64 range"),
        ],
    )
    def test_rejection_messages(self, x, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                ste_round(x)

    @settings(max_examples=300, deadline=None)
    @given(
        xs=st.lists(
            st.one_of(
                st.floats(-(2.0**62), 2.0**62, allow_nan=False),
                st.integers(-1000, 1000).map(lambda i: i + 0.5),
                st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.49999999999999994]),
            ),
            max_size=30,
        )
    )
    @example(xs=[-0.0, 0.0, -0.5, 0.5, -0.4, 0.4, -1.5, 1.5])
    def test_matches_sign_multiply_oracle(self, xs):
        x = np.array(xs, dtype=np.float64)
        out = ste_round(x)
        assert out.dtype == np.int64 and np.array_equal(out, _sign_multiply_round(x))
        for v in xs:
            assert ste_round(v) == int(_sign_multiply_round(v))


class TestQuantizeFeatures:
    def test_direct_rounding(self):
        assert quantize_features(np.array([0.24, -1.26]), 1).tolist() == [0, -1]

    def test_scale_applied_before_rounding(self):
        assert quantize_features(np.array([0.24]), 8).tolist() == [2]  # 1.92 -> 2

    def test_integers_are_fixed_points(self):
        f = np.array([-3.0, 0.0, 7.0, 100.0])
        assert np.array_equal(quantize_features(f, 1), f.astype(np.int64))

    def test_rational_scale(self):
        assert quantize_features(np.array([5.0]), Fraction(1, 2)).tolist() == [3]

    def test_errors(self):
        with pytest.raises(ValueError):
            quantize_features(np.array([np.nan]), 1)
        with pytest.raises(ValueError):
            quantize_features(np.array([1.0]), 0)


class TestDequantizeFeatures:
    def test_arithmetic(self):
        assert dequantize_features(np.array([2]), 8).tolist() == [0.25]

    def test_zero_identity(self):
        assert np.array_equal(dequantize_features(np.zeros((3, 2)), 8), np.zeros((3, 2)))

    def test_round_trip_bound(self):
        rng = np.random.default_rng(5)
        f = rng.normal(0.0, 10.0, size=2000)
        for q_f in (1, 8, 1024):
            err = np.abs(dequantize_features(quantize_features(f, q_f), q_f) - f)
            assert err.max() <= 0.5 / q_f

    def test_idempotence(self):
        rng = np.random.default_rng(6)
        f = rng.laplace(0.0, 4.0, size=1000)
        for q_f in (1, 8, 1024):
            once = quantize_features(f, q_f)
            again = quantize_features(dequantize_features(once, q_f), q_f)
            assert np.array_equal(once, again)


class TestQuantizePositions:
    BOX = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])

    def test_exact_duplicates_collapse(self):
        pts = np.array([[0.1, 0.1, 0.1], [0.1, 0.1, 0.1]])
        voxels, dup_map = quantize_positions(pts, 256, self.BOX)
        assert voxels.shape == (1, 3)
        assert dup_map.tolist() == [0, 0]

    def test_bbox_max_corner_clamps(self):
        voxels, _ = quantize_positions(np.array([[1.0, 1.0, 1.0]]), 256, self.BOX)
        assert voxels.tolist() == [[255, 255, 255]]

    def test_first_wins_order(self):
        pts = np.array([[0.9, 0.9, 0.9], [0.1, 0.1, 0.1], [0.9, 0.9, 0.9]])
        voxels, kept, dup_map = voxelize(pts, 16, self.BOX)
        # Morton order, not input order; the (14, 14, 14) voxel keeps input row 0.
        assert voxels.tolist() == [[2, 2, 2], [14, 14, 14]]
        assert kept.tolist() == [1, 0]
        assert dup_map.tolist() == [1, 0, 1]

    def test_outside_bbox_rejected(self):
        with pytest.raises(ValueError):
            quantize_positions(np.array([[1.1, 0.5, 0.5]]), 256, self.BOX)

    @pytest.mark.parametrize(
        "corner,axis,value",
        [(1, 0, np.inf), (0, 1, -np.inf), (0, 2, np.nan), (1, 1, np.nan)],
    )
    def test_non_finite_bbox_rejected(self, corner, axis, value):
        box = self.BOX.copy()
        box[corner, axis] = value
        pts = np.array([[0.25, 0.5, 0.75], [0.5, 0.5, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="bounding box"):
                voxelize(pts, 16, box)
            fcloud = FloatAnchorCloud(
                positions=pts,
                offsets=np.zeros((2, 3)),
                features=np.zeros((2, 1)),
                scalings=np.zeros((2, 6)),
                layout=AttributeLayout(k=1, m=1),
                bbox=box,
            )
            with pytest.raises(ValueError, match="bounding box"):
                quantize_cloud(fcloud, QuantParams(q_p=16))

    # hi - lo overflows at 1.7e308; at 1e305 the extent is finite but the
    # dequantizer's grid * extent is not.
    @pytest.mark.parametrize("half", [1.7e308, 1e305])
    def test_box_whose_span_overflows_rejected_without_warning(self, half):
        box = np.array([[-half] * 3, [half] * 3])
        pts = np.array([[-half] * 3, [0.0] * 3, [half] * 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^bounding box extent times q_p=1024 overflows"):
                voxelize(pts, 1024, box)

    def test_wide_box_that_dequantizes_finite_accepted(self):
        half = 8e304  # extent 1.6e305, times 1024 is still below the float64 max
        box = np.array([[-half] * 3, [half] * 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            voxels, _, _ = voxelize(np.array([[-half] * 3, [half] * 3]), 1024, box)
        assert voxels.tolist() == [[0, 0, 0], [1023, 1023, 1023]]

    def test_grid_limit(self):
        with pytest.raises(ValueError):
            quantize_positions(np.array([[0.5, 0.5, 0.5]]), (1 << 21) + 1, self.BOX)

    @pytest.mark.parametrize("q_p", BAD_Q_P)
    def test_q_p_refused_as_quant_params_refuses_it(self, q_p):
        with pytest.raises(ValueError, match=Q_P_RULE) as expected:
            QuantParams(q_p=q_p)
        pts = np.array([[0.5, 0.5, 0.5]])
        for quantize in (voxelize, quantize_positions):
            with pytest.raises(ValueError) as refused:
                quantize(pts, q_p, self.BOX)
            assert str(refused.value) == str(expected.value)

    def test_empty(self):
        voxels, dup_map = quantize_positions(np.zeros((0, 3)), 256, self.BOX)
        assert voxels.shape == (0, 3)
        assert dup_map.shape == (0,)

    def test_brute_force_distinct_voxel_oracle(self):
        # Independent oracle: round-half-away-from-zero via floor(v + 0.5) on
        # the non-negative normalized coordinates, deduplicated in a set.
        rng = np.random.default_rng(7)
        pts = rng.random((1000, 3))
        q_p = 1024
        voxels, dup_map = quantize_positions(pts, q_p, self.BOX)

        oracle = set()
        for p in pts:
            vox = tuple(min(int(math.floor(c * q_p + 0.5)), q_p - 1) for c in p)
            oracle.add(vox)
        assert voxels.shape[0] <= 1000
        assert {tuple(v) for v in voxels.tolist()} == oracle
        # dup_map points every input at a voxel matching its own rounding.
        for i, p in enumerate(pts):
            vox = tuple(min(int(math.floor(c * q_p + 0.5)), q_p - 1) for c in p)
            assert tuple(voxels[dup_map[i]].tolist()) == vox
