import numpy as np
import pytest

from gbrec import model


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def sparse_products():
    """Run every graph mean and every score pass on the sparse kernel, whatever
    the shape rules pick, so a test of that kernel's bits tests that kernel."""
    with model.forced_products("sparse"):
        yield


@pytest.fixture
def dense_products():
    """Run every graph mean and every composite score pass with at least one
    term as a dense product, whatever the shape rules pick."""
    with model.forced_products("dense"):
        yield
