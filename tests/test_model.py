import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from voxgs import (
    AnchorCloud,
    AttributeLayout,
    QuantParams,
    decode_container,
    dequantize_features,
    encode_container,
    quantize_features,
    validate,
)
from voxgs.model import GROUPS, MAX_GRID, as_fraction

# The q_p rule's message, which QuantParams, voxelize and quantize_positions share.
Q_P_RULE = rf"^q_p must be an integer in \[1, {MAX_GRID}\], got "
BAD_Q_P = [4.5, math.nan, math.inf, "8", 0, -1, MAX_GRID + 1]

# Each scale every reader refuses, with its message.
_NOT_RATIONAL = r"^(q_o|q_f) value {} is not a rational number$"
BAD_SCALES = [
    pytest.param(math.inf, _NOT_RATIONAL.format("inf"), id="inf"),
    pytest.param(math.nan, _NOT_RATIONAL.format("nan"), id="nan"),
    pytest.param("1/0", _NOT_RATIONAL.format("'1/0'"), id="1/0"),
    pytest.param("x", _NOT_RATIONAL.format("'x'"), id="x"),
    pytest.param(0, r"^quant scale must be positive, got (q_o|q_f)=0$", id="0"),
    pytest.param(-1, r"^quant scale must be positive, got (q_o|q_f)=-1$", id="-1"),
]
FEATURE_SCALE_READERS = [
    pytest.param(lambda q: quantize_features([1.0], q), id="quantize_features"),
    pytest.param(lambda q: dequantize_features([1], q), id="dequantize_features"),
]
SCALE_READERS = [
    pytest.param(lambda q: QuantParams(q_p=4, q_o=q), id="QuantParams"),
    *FEATURE_SCALE_READERS,
]


def _cloud(positions, q_p=4, k=1, m=2, **kwargs):
    layout = AttributeLayout(k=k, m=m)
    pos = np.asarray(positions, dtype=np.int64).reshape(-1, 3)
    n = pos.shape[0]
    defaults = dict(
        positions=pos,
        offsets=np.zeros((n, layout.offset_dims), dtype=np.int32),
        features=np.zeros((n, layout.feature_dims), dtype=np.int32),
        scalings=np.zeros((n, 6), dtype=np.int32),
        layout=layout,
        quant=QuantParams(q_p=q_p),
        bbox=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
    )
    defaults.update(kwargs)
    return AnchorCloud(**defaults)


class TestQuantParams:
    def test_positive_scales_required(self):
        with pytest.raises(ValueError):
            QuantParams(q_p=0)
        with pytest.raises(ValueError):
            QuantParams(q_p=256, q_o=Fraction(0))
        with pytest.raises(ValueError):
            QuantParams(q_p=256, q_s=Fraction(-1, 8))

    def test_grid_limit(self):
        QuantParams(q_p=MAX_GRID)
        with pytest.raises(ValueError):
            QuantParams(q_p=MAX_GRID + 1)

    def test_scale_terms_fit_the_container(self):
        # The container writes each numerator and denominator as a uint64 varint.
        widest = QuantParams(q_p=4, q_o=Fraction(1, 2**64 - 1), q_s=Fraction(2**64 - 1))
        cloud = _cloud([[0, 0, 0], [1, 2, 3]], quant=widest)
        assert decode_container(encode_container(cloud)).equals(cloud)
        for scale in (Fraction(1, 2**64), Fraction(2**64), Fraction(2**64 + 1, 3)):
            with pytest.raises(ValueError, match=r"below 2\*\*64"):
                QuantParams(q_p=4, q_o=scale)

    def test_depth(self):
        assert QuantParams(q_p=1).depth == 0
        assert QuantParams(q_p=2).depth == 1
        assert QuantParams(q_p=200).depth == 8  # paper's non-power-of-two grid
        assert QuantParams(q_p=256).depth == 8
        assert QuantParams(q_p=1024).depth == 10

    def test_rational_coercion(self):
        q = QuantParams(q_p=256, q_o="1/3", q_a=2, q_s=0.5)
        assert q.q_o == Fraction(1, 3)
        assert q.q_a == Fraction(2)
        assert q.q_s == Fraction(1, 2)

    def test_scale_for(self):
        q = QuantParams(q_p=256, q_o=Fraction(2), q_a=Fraction(3), q_s=Fraction(8))
        assert q.scale_for("offsets") == 2
        assert q.scale_for("features") == 3
        assert q.scale_for("scalings") == 8

    def test_as_fraction_string(self):
        assert as_fraction("3/4") == Fraction(3, 4)
        assert as_fraction(Fraction(5, 7)) == Fraction(5, 7)

    @pytest.mark.parametrize("q_p", BAD_Q_P)
    def test_q_p_other_than_a_grid_integer_raises_value_error(self, q_p):
        with pytest.raises(ValueError, match=Q_P_RULE):
            QuantParams(q_p=q_p)

    @pytest.mark.parametrize("reader", SCALE_READERS)
    @pytest.mark.parametrize("scale,message", BAD_SCALES)
    def test_every_scale_reader_raises_value_error(self, reader, scale, message):
        with pytest.raises(ValueError, match=message):
            reader(scale)

    @pytest.mark.parametrize("reader", FEATURE_SCALE_READERS)
    @pytest.mark.parametrize("scale", [2**64, Fraction(1, 2**64)], ids=["2**64", "1/2**64"])
    def test_feature_scales_fit_the_container(self, reader, scale):
        # As QuantParams refuses them in test_scale_terms_fit_the_container.
        message = r"^quant scale numerator and denominator must be below 2\*\*64$"
        with pytest.raises(ValueError, match=message):
            reader(scale)


class TestAttributeLayout:
    def test_total_dims(self):
        layout = AttributeLayout(k=10, m=50)
        assert layout.offset_dims == 30
        assert layout.total_dims == 3 * 10 + 50 + 6

    def test_dims_for(self):
        layout = AttributeLayout(k=2, m=5)
        assert layout.dims_for("offsets") == 6
        assert layout.dims_for("features") == 5
        assert layout.dims_for("scalings") == 6

    def test_positive_required(self):
        with pytest.raises(ValueError):
            AttributeLayout(k=0, m=5)
        with pytest.raises(ValueError):
            AttributeLayout(k=1, m=-1)

    def test_bounded_above(self):
        AttributeLayout(k=2**16, m=2**16)
        for k, m in ((2**16 + 1, 1), (1, 2**16 + 1), (10**9, 50)):
            with pytest.raises(ValueError, match="must not exceed"):
                AttributeLayout(k=k, m=m)


class TestAnchorCloud:
    def test_shape_enforcement(self):
        with pytest.raises(ValueError):
            _cloud([[0, 0, 0]], offsets=np.zeros((1, 5), dtype=np.int32))

    def test_immutable_arrays(self):
        cloud = _cloud([[0, 0, 0], [1, 2, 3]])
        with pytest.raises(ValueError):
            cloud.positions[0, 0] = 9

    def test_equals(self):
        a = _cloud([[0, 0, 0], [1, 2, 3]])
        b = _cloud([[0, 0, 0], [1, 2, 3]])
        c = _cloud([[0, 0, 0], [1, 2, 2]])
        assert a.equals(b)
        assert not a.equals(c)
        assert not a.equals(_cloud([[0, 0, 0], [1, 2, 3]], mlp_blob=b"x"))


def _rows(group, values, dtype, n=1):
    """n rows of the _cloud layout's group, each holding values cyclically."""
    dims = AttributeLayout(k=1, m=2).dims_for(group)
    return np.resize(np.array(values, dtype=dtype), (n, dims))


class TestAnchorCloudStorage:
    """Integer storage takes only values it holds exactly, else ValueError."""

    def test_narrows(self):
        cloud = _cloud([[0, 0, 0]], features=np.array([[1, -2]], dtype=np.int64))
        assert cloud.features.dtype == np.int32
        assert cloud.features.tolist() == [[1, -2]]

    def test_overflow_raises(self):
        with pytest.raises(ValueError, match="features integers overflow int32 storage"):
            _cloud([[0, 0, 0]], features=np.array([[2**31, 0]], dtype=np.int64))

    @pytest.mark.parametrize("value", [2**31, -(2**31) - 1])
    @pytest.mark.parametrize("group", GROUPS)
    def test_int64_beyond_int32_raises(self, group, value):
        with pytest.raises(ValueError, match=f"^{group} integers overflow int32 storage$"):
            _cloud([[0, 0, 0]], **{group: _rows(group, [0, value], np.int64)})

    def test_int32_extremes_round_trip(self):
        extremes = [2**31 - 1, -(2**31)]
        groups = {g: _rows(g, extremes, np.int64, n=2) for g in GROUPS}
        cloud = _cloud([[0, 0, 0], [1, 2, 3]], **groups)
        decoded = decode_container(encode_container(cloud))
        assert decoded.equals(cloud)
        for g in GROUPS:
            assert np.array_equal(decoded.group(g), groups[g])

    @pytest.mark.parametrize("value", [1.5, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("group", GROUPS)
    def test_non_integral_raises_without_warning(self, group, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{group} must hold finite integers$"):
                _cloud([[0, 0, 0]], **{group: _rows(group, [0.0, value], np.float64)})

    def test_non_finite_positions_raise(self):
        with pytest.raises(ValueError, match="^positions must hold finite integers$"):
            replace(_cloud([[0, 0, 0]]), positions=np.array([[0.0, np.nan, 1.0]]))

    def test_uint64_positions_beyond_int64_raise(self):
        with pytest.raises(ValueError, match="^positions integers overflow int64 storage$"):
            replace(_cloud([[0, 0, 0]]), positions=np.array([[2**63, 0, 0]], dtype=np.uint64))

    def test_integral_floats_accepted(self):
        cloud = replace(
            _cloud([[0, 0, 0]]),
            positions=np.array([[1.0, -0.0, 2.0]]),
            features=np.array([[1.0, -0.0]]),
        )
        assert cloud.positions.dtype == np.int64 and cloud.positions.tolist() == [[1, 0, 2]]
        assert cloud.features.dtype == np.int32 and cloud.features.tolist() == [[1, 0]]

    def test_boolean_positions_stored_as_integers(self):
        # Comparing a boolean array with the int64 bound 2**63 raised OverflowError.
        cloud = replace(_cloud([[0, 0, 0]]), positions=np.array([[True, False, True]]))
        assert cloud.positions.dtype == np.int64 and cloud.positions.tolist() == [[1, 0, 1]]


class TestValidate:
    def test_duplicate_positions(self):
        report = validate(_cloud([[1, 1, 1], [1, 1, 1]]))
        assert not report.valid
        assert sum("duplicated" in f for f in report) == 1

    def test_empty_cloud_valid(self):
        assert validate(_cloud(np.zeros((0, 3)))).valid

    def test_position_at_q_p_out_of_range(self):
        report = validate(_cloud([[0, 0, 4]], q_p=4))  # range is half-open
        assert any("outside" in f for f in report)

    def test_negative_position(self):
        report = validate(_cloud([[-1, 0, 0]], q_p=4))
        assert any("outside" in f for f in report)

    def test_row_count_mismatch(self):
        cloud = _cloud([[0, 0, 0], [1, 1, 1]])
        bad = AnchorCloud(
            positions=cloud.positions,
            offsets=cloud.offsets[:1],
            features=cloud.features,
            scalings=cloud.scalings,
            layout=cloud.layout,
            quant=cloud.quant,
            bbox=cloud.bbox,
        )
        report = validate(bad)
        assert any("offsets" in f for f in report)

    def test_rows_without_anchors_rejected(self):
        # Groups with rows but no positions: the decoder refuses any element for 0 anchors.
        layout = AttributeLayout(k=1, m=1)
        rows = {g: np.zeros((2, layout.dims_for(g)), dtype=np.int32) for g in GROUPS}
        bad = _cloud(np.zeros((0, 3)), k=1, m=1, **rows)
        assert validate(bad).findings == [f"{g} has 2 rows for 0 anchors" for g in GROUPS]
        with pytest.raises(ValueError, match="offsets has 2 rows for 0 anchors"):
            encode_container(bad)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_bbox(self, value):
        bbox = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        bbox[0, 2] = value
        for positions in ([[0, 0, 0]], np.zeros((0, 3))):
            report = validate(_cloud(positions, bbox=bbox))
            assert report.findings == ["bounding box has non-finite values"]

    def test_valid_cloud(self):
        assert validate(_cloud([[0, 0, 0], [3, 3, 3]])).valid
