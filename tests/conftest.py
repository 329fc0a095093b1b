import pytest


@pytest.fixture(autouse=True)
def design_cache_home(tmp_path_factory, monkeypatch):
    """A fresh XDG_CACHE_HOME per test, so no test reads or writes the user's ~/.cache."""
    home = tmp_path_factory.mktemp("xdg")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home
