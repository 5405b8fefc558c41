"""Suite-wide fixtures."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def private_cache_dir(tmp_path_factory):
    """Point the table disk cache at a fresh directory for the whole run, so
    the suite neither reads a stale file from the user's ~/.cache/polysplit
    nor leaves files there.  Tests that set POLYSPLIT_CACHE_DIR themselves
    override it for their own duration."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("POLYSPLIT_CACHE_DIR", str(tmp_path_factory.mktemp("polysplit-cache")))
        yield
