"""Every test starts and ends with no orbit certificate memoised, so that
a certificate cached by another test can neither hide a mutation nor skip
the code a test means to reach."""

import pytest

from invdist import orbits


@pytest.fixture(autouse=True)
def cold_certificates():
    orbits._CERTIFICATES.clear()
    yield
    orbits._CERTIFICATES.clear()
