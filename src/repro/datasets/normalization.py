"""Z-normalization of feature matrices.

Cohen et al. (and the paper, Section 3) normalize every feature to zero
mean and unit variance before feeding it to the network — one of the two
ingredients (with data augmentation) that make plain MLPs competitive on
handcrafted LtR features.  Statistics are always fitted on the training
partition and then applied unchanged to validation/test data.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import LtrDataset
from repro.exceptions import NotFittedError
from repro.utils.validation import check_array_2d


class ZNormalizer:
    """Per-feature standardization ``(x - mean) / std``.

    Constant features (zero variance on the fit data) are passed through
    centred but unscaled, so no division by zero occurs.

    Parameters
    ----------
    clip_sigma:
        Optional symmetric clamp (in standard deviations) applied after
        standardization.  Web-search features are heavy-tailed, and the
        augmentation step can emit extreme split-point midpoints; a clamp
        of e.g. 10 keeps such outliers from saturating ReLU6 units
        without touching the bulk of the distribution.  ``None`` (the
        default, matching the paper) disables clipping.
    """

    def __init__(self, clip_sigma: float | None = None) -> None:
        if clip_sigma is not None and clip_sigma <= 0:
            raise ValueError(f"clip_sigma must be positive, got {clip_sigma}")
        self.clip_sigma = clip_sigma
        self.mean_: np.ndarray | None = None
        self.std_: np.ndarray | None = None

    def fit(self, features) -> "ZNormalizer":
        """Estimate per-feature mean and standard deviation."""
        x = check_array_2d(features, "features")
        self.mean_ = x.mean(axis=0)
        std = x.std(axis=0)
        std[std == 0.0] = 1.0
        self.std_ = std
        return self

    @property
    def is_fitted(self) -> bool:
        return self.mean_ is not None

    def transform(self, features) -> np.ndarray:
        """Standardize ``features`` with the fitted statistics.

        Zero rows (an empty scoring request) pass through as ``(0, d)``.
        """
        if not self.is_fitted:
            raise NotFittedError("ZNormalizer.transform called before fit")
        x = check_array_2d(features, "features", allow_empty=True)
        if x.shape[1] != len(self.mean_):
            raise ValueError(
                f"expected {len(self.mean_)} features, got {x.shape[1]}"
            )
        z = (x - self.mean_) / self.std_
        if self.clip_sigma is not None:
            np.clip(z, -self.clip_sigma, self.clip_sigma, out=z)
        return z

    def fit_transform(self, features) -> np.ndarray:
        """Fit on ``features`` and return their standardized version."""
        return self.fit(features).transform(features)

    def inverse_transform(self, features) -> np.ndarray:
        """Undo the standardization."""
        if not self.is_fitted:
            raise NotFittedError("ZNormalizer.inverse_transform called before fit")
        x = check_array_2d(features, "features")
        return x * self.std_ + self.mean_

    def transform_dataset(self, dataset: LtrDataset) -> LtrDataset:
        """Return ``dataset`` with its feature matrix standardized."""
        return dataset.with_features(self.transform(dataset.features))
