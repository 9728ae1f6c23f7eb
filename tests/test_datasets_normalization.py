"""Tests for repro.datasets.normalization (Z-normalization)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays
from hypothesis import strategies as st

from repro.datasets import ZNormalizer, make_msn30k_like
from repro.exceptions import NotFittedError


class TestZNormalizer:
    def test_transform_zero_mean_unit_std(self, rng):
        x = rng.normal(5.0, 3.0, size=(500, 4))
        z = ZNormalizer().fit_transform(x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_feature_passes_through_centred(self, rng):
        x = rng.normal(size=(50, 2))
        x[:, 1] = 7.0
        z = ZNormalizer().fit_transform(x)
        np.testing.assert_allclose(z[:, 1], 0.0)

    def test_statistics_from_fit_not_transform(self, rng):
        norm = ZNormalizer().fit(rng.normal(0, 1, size=(100, 3)))
        shifted = rng.normal(10, 1, size=(100, 3))
        z = norm.transform(shifted)
        assert z.mean() > 5.0  # not re-centred on the new data

    def test_clip_sigma_bounds_output(self, rng):
        x = rng.lognormal(0, 2.0, size=(300, 2))
        norm = ZNormalizer(clip_sigma=3.0).fit(x)
        z = norm.transform(x * 100.0)  # extreme inputs
        assert np.abs(z).max() <= 3.0

    def test_clip_sigma_leaves_bulk_untouched(self, rng):
        x = rng.normal(size=(300, 2))
        plain = ZNormalizer().fit(x)
        clipped = ZNormalizer(clip_sigma=10.0).fit(x)
        np.testing.assert_allclose(clipped.transform(x), plain.transform(x))

    def test_invalid_clip_sigma(self):
        with pytest.raises(ValueError):
            ZNormalizer(clip_sigma=0.0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            ZNormalizer().transform(np.ones((2, 2)))
        with pytest.raises(NotFittedError):
            ZNormalizer().inverse_transform(np.ones((2, 2)))

    def test_feature_count_mismatch_raises(self, rng):
        norm = ZNormalizer().fit(rng.normal(size=(10, 3)))
        with pytest.raises(ValueError, match="expected 3"):
            norm.transform(rng.normal(size=(10, 4)))

    def test_zero_rows_pass_through(self, rng):
        norm = ZNormalizer().fit(rng.normal(size=(20, 3)))
        assert norm.transform(np.empty((0, 3))).shape == (0, 3)
        with pytest.raises(ValueError, match="expected 3 features"):
            norm.transform(np.empty((0, 4)))
        with pytest.raises(ValueError, match="non-empty"):
            ZNormalizer().fit(np.empty((0, 3)))

    def test_transform_dataset(self):
        ds = make_msn30k_like(n_queries=20, docs_per_query=10)
        out = ZNormalizer().fit(ds.features).transform_dataset(ds)
        assert out.n_docs == ds.n_docs
        np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-9)

    @given(
        arrays(
            np.float64,
            (20, 3),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_inverse_transform_roundtrip(self, x):
        norm = ZNormalizer().fit(x)
        back = norm.inverse_transform(norm.transform(x))
        np.testing.assert_allclose(back, x, atol=1e-6 * (1 + np.abs(x).max()))
