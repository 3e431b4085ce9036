"""Shared fixtures: compiled paper descriptions and tiny helpers.

Also enforces a per-test hang cap: the robustness suite's contract is
"no hangs", so a test that stalls must fail rather than wedge the run.
When the ``pytest-timeout`` plugin is installed (CI passes
``--timeout``), it owns the cap; otherwise a SIGALRM fallback applies
``TEST_TIMEOUT`` seconds to every test on platforms that support it.
"""

import random
import signal
import sys

import pytest

from repro import gallery

TEST_TIMEOUT = 180

try:
    import pytest_timeout  # noqa: F401
    _HAVE_TIMEOUT_PLUGIN = True
except ImportError:
    _HAVE_TIMEOUT_PLUGIN = False

if not _HAVE_TIMEOUT_PLUGIN and hasattr(signal, "SIGALRM"):

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        def _expired(signum, frame):
            raise TimeoutError(
                f"test exceeded the {TEST_TIMEOUT}s hang cap")

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.alarm(TEST_TIMEOUT)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def clf():
    return gallery.load_clf()


@pytest.fixture(scope="session")
def sirius():
    return gallery.load_sirius()


@pytest.fixture(scope="session")
def call_detail():
    return gallery.load_call_detail()


@pytest.fixture(scope="session")
def netflow():
    return gallery.load_netflow()


@pytest.fixture
def rng():
    return random.Random(20050612)  # PLDI 2005 week


@pytest.fixture
def small_chunks(monkeypatch):
    """Shrink the parallel planner's minimum chunk to 1 KiB, so inputs of
    a few hundred records split over the worker pool."""
    from repro import parallel
    from repro.core.io import plan_chunks
    monkeypatch.setattr(parallel, "plan_chunks",
                        lambda h, size, d, n, start=0:
                        plan_chunks(h, size, d, n, min_chunk=1 << 10,
                                    start=start))


@pytest.fixture
def pool_chunks(small_chunks, monkeypatch):
    """``small_chunks``, and 2 KiB pieces of a live stream, so a few
    hundred records split over the worker pool on every parallel mode."""
    from repro import parallel
    monkeypatch.setattr(parallel, "STREAM_CHUNK_BYTES", 2048)


@pytest.fixture(autouse=True, scope="module")
def _drop_oracle_references():
    """Later modules need not carry the oracle's caches through every GC."""
    yield
    oracle = sys.modules.get("tests.test_oracle")
    if oracle is not None:
        oracle.reference.cache_clear()
        oracle._WINDOWS.clear()
        oracle.Subject.build.cache_clear()
        for make in oracle._DATA.values():
            make.cache_clear()
