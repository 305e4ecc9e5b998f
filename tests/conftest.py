import pytest

from markoffmodp.certify import certify
from markoffmodp.cli import _hidden_prime_payload


@pytest.fixture(scope="session")
def cert5():
    """The d = 5 certificate at the default seed, built once per run."""
    return certify(5)


@pytest.fixture
def hidden_prime_payload():
    """The selftest's d = 5 certificate that hides the non-exempt prime 43
    in `a`."""
    return _hidden_prime_payload()
