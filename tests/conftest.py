import pytest

from oamsim import cli


@pytest.fixture(autouse=True)
def _no_config_file(monkeypatch):
    """Every test starts without a config file from the environment."""
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
