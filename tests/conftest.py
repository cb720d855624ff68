from contextlib import contextmanager

import numpy as np
import pytest

from gbrec import kernels, scoring


@contextmanager
def forced_products(path: str):
    """Run every graph mean and every composite score pass on ``path``
    ("sparse" or "dense"), whatever the shape rules pick, by setting the
    rules' constants for the duration. This is the one place that knows which
    constants force which path."""
    saved = kernels.DENSE_MIN_FILL, kernels.DENSE_MAX_CELLS, scoring.SCORE_DENSE_RATIO
    if path == "dense":
        kernels.DENSE_MIN_FILL, kernels.DENSE_MAX_CELLS, scoring.SCORE_DENSE_RATIO = 0.0, float("inf"), float("inf")
    elif path == "sparse":
        kernels.DENSE_MAX_CELLS, scoring.SCORE_DENSE_RATIO = 0, 0
    else:
        raise ValueError(f"path must be 'sparse' or 'dense', got {path!r}")
    try:
        yield
    finally:
        kernels.DENSE_MIN_FILL, kernels.DENSE_MAX_CELLS, scoring.SCORE_DENSE_RATIO = saved


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def sparse_products():
    """Run every graph mean and every score pass on the sparse kernel, whatever
    the shape rules pick, so a test of that kernel's bits tests that kernel."""
    with forced_products("sparse"):
        yield


@pytest.fixture
def dense_products():
    """Run every graph mean and every composite score pass with at least one
    term as a dense product, whatever the shape rules pick."""
    with forced_products("dense"):
        yield
