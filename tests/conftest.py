import os

import pytest
from hypothesis import settings

from painleve_hh import set_default_precision

settings.register_profile("fast", max_examples=30, deadline=None)
settings.register_profile("ci", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


@pytest.fixture(autouse=True)
def _fixed_precision():
    previous = set_default_precision(256)
    yield
    set_default_precision(previous)
