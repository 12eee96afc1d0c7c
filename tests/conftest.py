import numpy as np
import pytest
from hypothesis import settings

from vaisflow.grid import GridSpec

# Every hypothesis test draws the same examples on every run, so Tier-1
# stays reproducible; tests that set max_examples themselves keep theirs.
settings.register_profile(
    "vaisflow", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("vaisflow")

TWO_PI = 2.0 * np.pi


def basic_spec(n=1, res=64):
    return GridSpec(n, (res,) * (2 * n), (TWO_PI,) * (2 * n))


def full_spec(n=1, res=64, leaf=8):
    return GridSpec(
        n, (res,) * (2 * n), (TWO_PI,) * (2 * n),
        leaf_resolution=(leaf, leaf), leaf_periods=(TWO_PI, TWO_PI),
    )


@pytest.fixture
def spec64():
    return basic_spec(res=64)


@pytest.fixture
def spec128():
    return basic_spec(res=128)
