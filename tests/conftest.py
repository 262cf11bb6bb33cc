"""Shared fixtures for the test-suite."""

from __future__ import annotations

import contextlib
import warnings

import numpy as np
import pytest

from repro.data import make_image_classification
from repro.models import MLP

# When a hypothesis test fails, hypothesis's report hook imports its patch
# writer, whose libcst dependency raises a DeprecationWarning at import
# (``mypy_extensions.TypedDict``).  pyproject.toml turns that warning into an
# error, which crashes pytest (INTERNALERROR) before the falsifying example
# is printed.  Importing it once here, with only that warning silenced,
# leaves the module cached for the hook.  libcst is optional.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_data():
    """A very small but learnable 4-class image task."""
    return make_image_classification(
        n_classes=4, n_train=160, n_test=80, image_size=8,
        noise=0.6, seed=11, name="tiny",
    )


@pytest.fixture
def tiny_mlp_factory():
    """Factory for a small MLP matching ``tiny_data``'s input."""

    def factory(seed: int = 0) -> MLP:
        return MLP(in_features=3 * 8 * 8, hidden=(64, 32), num_classes=4, seed=seed)

    return factory
