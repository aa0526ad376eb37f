from fractions import Fraction

import numpy as np
import pytest

from voxgs import AnchorCloud, AttributeLayout, QuantParams, validate
from voxgs.model import MAX_GRID, as_fraction


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

    def test_valid_cloud(self):
        assert validate(_cloud([[0, 0, 0], [3, 3, 3]])).valid
