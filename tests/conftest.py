import pytest

from crem import cli


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """No test reads the caller's ``CREM_FEEDBACK_CAP``: a test that wants a cap sets it."""
    monkeypatch.delenv(cli.ENV_FEEDBACK_CAP, raising=False)
