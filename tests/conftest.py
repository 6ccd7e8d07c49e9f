"""Shared fixtures: the ten-graph suite every counting route must agree on."""

import pytest

from ehrhil.graphs import SUITE


@pytest.fixture(scope="session")
def suite():
    return SUITE
