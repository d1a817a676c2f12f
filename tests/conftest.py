"""Shared fixtures: paper-default components built once per session.

Heavy objects (membrane sensor with its Chebyshev fit, readout chains)
are session-scoped; tests must not mutate them. Tests that need mutable
state build their own instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.mems.membrane import MembraneSensor
from repro.params import SystemParams, paper_defaults

#: The gateway decode oracle's deep run (batch plane == FrameDecoder),
#: selected with ``--hypothesis-profile=decode-oracle``; only
#: ``tests/properties/test_batchplane_props.py`` reads this budget.
settings.register_profile("decode-oracle", max_examples=400)


@pytest.fixture(scope="session")
def params() -> SystemParams:
    return paper_defaults()


@pytest.fixture(scope="session")
def sensor() -> MembraneSensor:
    """Shared paper-default membrane (construction costs ~100 ms)."""
    return MembraneSensor()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
