"""The rows h(x) a descriptor's `feature_tiles` stream, collected in one
array for tests that compare whole feature matrices."""

import numpy as np


def feature_rows(dist, points) -> np.ndarray:
    """h(x) of an (m, n) array of points as (m, ell) rows, the transpose
    view of one C-contiguous (ell, m) array."""
    out = np.empty((dist.ell, len(points)))
    for cols, block in dist.feature_tiles(points):
        out[:, cols] = block
    return out.T
