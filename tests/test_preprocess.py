import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from kernelcast import preprocess
from kernelcast.errors import InvalidInputError
from kernelcast.estimators import INPUT_TRANSFORMS, PAIR_OUTPUT_TRANSFORMS


class TestFit:
    def test_minmax_statistics(self):
        spec = preprocess.fit("minmax01", np.array([0.0, 2.0, 4.0]))
        assert spec.shift.tolist() == [0.0]  # the minimum
        assert spec.scale.tolist() == [4.0]  # the range

    def test_demean_statistics(self):
        spec = preprocess.fit("demean", np.array([1.0, 3.0]))
        assert spec.shift.tolist() == [2.0]

    def test_max_norm_scale(self):
        spec = preprocess.fit("max-norm-scale",
                              np.array([[3.0, 4.0], [0.0, 1.0]]))
        assert spec.scale == pytest.approx(5.0 / 0.95)
        out = preprocess.apply(spec, np.array([[3.0, 4.0]]))
        assert np.linalg.norm(out) == pytest.approx(preprocess.MAX_NORM)
        assert preprocess.MAX_NORM == 0.95

    def test_max_norm_scale_of_a_huge_row(self):
        # the row's sum of squares overflows; its norm does not
        V = np.array([[1e200, 0.0], [1.0, 1.0]])
        spec = preprocess.fit("max-norm-scale", V)
        assert spec.scale == pytest.approx(1e200 / 0.95)
        np.testing.assert_allclose(preprocess.apply(spec, V)[0], [0.95, 0.0])

    def test_degenerate_range_flagged(self):
        spec = preprocess.fit("minmax01", np.array([[1.0, 2.0], [1.0, 5.0]]))
        assert spec.degenerate_dims == (0,)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            preprocess.fit("whiten", np.ones((3, 1)))


class TestApplyInvert:
    def test_minmax_values_and_extrapolation(self):
        spec = preprocess.fit("minmax01", np.array([0.0, 2.0, 4.0]))
        assert preprocess.apply(spec, np.array([4.0]))[0] == pytest.approx(1.0)
        assert preprocess.apply(spec, np.array([6.0]))[0] == pytest.approx(1.5)

    def test_standardize_round_trip(self):
        rng = np.random.default_rng(0)
        data = rng.normal(2.0, 3.0, size=(50, 2))
        spec = preprocess.fit("standardize", data)
        back = preprocess.invert(spec, preprocess.apply(spec, data))
        np.testing.assert_allclose(back, data, rtol=1e-12, atol=1e-12)

    def test_constant_scale_factor_1000(self):
        spec = preprocess.fit("constant-scale", np.ones((2, 1)))
        out = preprocess.apply(spec, np.array([[0.004]]))
        assert out[0, 0] == pytest.approx(4.0)


@settings(max_examples=50, deadline=None)
@given(
    data=arrays(np.float64, (7, 2),
                elements=st.floats(-100, 100, allow_nan=False)),
    kind=st.sampled_from(preprocess.KINDS),
)
def test_round_trip_property(data, kind):
    spec = preprocess.fit(kind, data)
    back = preprocess.invert(spec, preprocess.apply(spec, data))
    scale = 1.0 + np.max(np.abs(data))
    assert np.max(np.abs(back - data)) <= 1e-12 * scale


class TestPipelines:
    def test_estimator_conventions(self):
        assert INPUT_TRANSFORMS["ngrc"] == INPUT_TRANSFORMS["ngrc-kernel"] == []
        assert INPUT_TRANSFORMS["polynomial"] == ["minmax01"]
        assert INPUT_TRANSFORMS["volterra"] == ["demean", "max-norm-scale"]

    def test_identity_pipeline_round_trips(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(20, 3))
        specs = preprocess.fit_pipeline([], data)
        np.testing.assert_array_equal(preprocess.apply_pipeline(specs, data),
                                      data)

    def test_volterra_pipeline_bounds_training_norms(self):
        rng = np.random.default_rng(2)
        data = rng.normal(5.0, 2.0, size=(100, 3))
        specs = preprocess.fit_pipeline(
            INPUT_TRANSFORMS["volterra"], data)
        out = preprocess.apply_pipeline(specs, data)
        norms = np.linalg.norm(out, axis=1)
        assert norms.max() <= 1.0 + 1e-12
        assert abs(out.mean()) < 0.5  # demeaned before scaling

    def test_headroom_target(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(50, 2))
        specs = preprocess.fit_pipeline(["demean", "max-norm-scale"], data)
        out = preprocess.apply_pipeline(specs, data)
        assert np.linalg.norm(out, axis=1).max() == pytest.approx(0.95)

    def test_bekk_output_pipeline_standardizes(self):
        rng = np.random.default_rng(4)
        data = rng.normal(0.002, 0.0005, size=(200, 4))
        specs = preprocess.fit_pipeline(PAIR_OUTPUT_TRANSFORMS, data)
        out = preprocess.apply_pipeline(specs, data)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, rtol=1e-10)

    def test_pipeline_inversion_order(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(30, 2))
        specs = preprocess.fit_pipeline(["demean", "max-norm-scale"], data)
        back = preprocess.invert_pipeline(
            specs, preprocess.apply_pipeline(specs, data))
        np.testing.assert_allclose(back, data, rtol=1e-12, atol=1e-12)


class TestLeakageFreedom:
    def test_statistics_ignore_test_data(self):
        rng = np.random.default_rng(6)
        train = rng.normal(size=(40, 2))
        spec_before = preprocess.fit("standardize", train)
        # wildly different "test" data must not change anything fitted
        _test = train * 100 + 7
        spec_after = preprocess.fit("standardize", train)
        assert spec_before.to_dict() == spec_after.to_dict()

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(25, 3))
        for kind in preprocess.KINDS:
            spec = preprocess.fit(kind, data)
            clone = preprocess.TransformSpec.from_dict(spec.to_dict())
            x = rng.normal(size=(4, 3))
            np.testing.assert_allclose(preprocess.apply(clone, x),
                                       preprocess.apply(spec, x), rtol=0,
                                       atol=0)
