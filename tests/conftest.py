"""Suite-wide checks."""

import threading

import pytest


def _live_non_daemon_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if not t.daemon]


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that ends with more live non-daemon threads than it began with."""
    before = len(_live_non_daemon_threads())
    yield
    after = _live_non_daemon_threads()
    if len(after) > before:
        pytest.fail(f"{len(after) - before} non-daemon thread(s) left running: "
                    f"{[t.name for t in after]}")
