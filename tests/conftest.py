import pytest

from markoffmodp.certify import certify


@pytest.fixture(scope="session")
def cert5():
    """The d = 5 certificate at the default seed, built once per run."""
    return certify(5)
