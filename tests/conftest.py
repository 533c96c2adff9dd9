"""Shared fixtures: where the compiled read loops are built, and which
loops the real-file engines read on."""

import shutil

import pytest

from readbench import hotloop


@pytest.fixture(scope="session", autouse=True)
def loop_cache(tmp_path_factory):
    """Build the compiled loop once per session, into a temporary cache
    directory rather than the user's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        hotloop.load.cache_clear()
        yield
    hotloop.load.cache_clear()


@pytest.fixture
def python_loop(monkeypatch):
    """Pin every engine to its Python loop, for tests that stub its hooks:
    on a file, one loop over every queue, whose stubs are read_block or
    os.preadv under the sync queue, a kernel queue's wait or syscalls, and
    the clocks; on a simulated device, the loop over devicesim."""
    monkeypatch.setattr(hotloop, "load", lambda: (None, "pinned by a test"))


@pytest.fixture
def native_loop():
    """The compiled loops' library; the test skips only where there is no
    cc."""
    loop, detail = hotloop.load()
    if loop is None:
        if shutil.which("cc") is None:
            pytest.skip(detail)
        pytest.fail(f"cc is present but the loop is not: {detail}")
    return loop
