import os
import threading

import pytest


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the C kernels into a per-session directory, not the user's
    cache, so the suite writes nothing outside its temp dirs and a stale
    library there cannot affect it."""
    saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("xdg-cache"))
    yield
    if saved is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = saved


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that leaves a thread alive that was not there before it:
    a noise worker or sweep pool must be stopped on every exit."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left running: {left}"
