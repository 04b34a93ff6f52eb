"""Fixtures shared by the test modules."""
import multiprocessing
import os

import pytest

_FDS = "/proc/self/fd"


def _open_fds() -> set:
    """The descriptors open in this process, less the one that listed them, closed by now."""
    return {fd for fd in os.listdir(_FDS) if os.path.exists(f"{_FDS}/{fd}")}


@pytest.fixture
def no_child_left():
    """Fail a test that leaves a child process behind, running or not yet waited for, or a
    file descriptor open, where ``/proc/self/fd`` lists them.

    ``save_batch`` forks formatting children for large batches and ``load_batch`` parsing
    children for large files; each must be gone when the call returns, and so must the pipe
    it sent on.  A leaked pipe end warns of nothing, so only this check finds it.
    """
    before = _open_fds() if os.path.isdir(_FDS) else None
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps a finished child, 0 for a running one
    except ChildProcessError:  # no child at all
        pid = None
    assert pid is None, f"a child process {'still runs' if pid == 0 else pid} after the test"
    assert multiprocessing.active_children() == []
    if before is not None:
        left = [os.readlink(f"{_FDS}/{fd}") for fd in _open_fds() - before]
        assert not left, f"descriptors left open after the test: {left}"
