"""Every test starts and ends with the orbit read-off identity not yet
computed, so that a verdict cached by another test can neither hide a
mutation nor skip the code a test means to reach."""

import pytest

from invdist import orbits


@pytest.fixture(autouse=True)
def cold_certificates():
    orbits._READ_OFF_MISSES = None
    yield
    orbits._READ_OFF_MISSES = None
