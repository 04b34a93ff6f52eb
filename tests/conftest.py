"""Fixtures shared by the test modules."""
import multiprocessing
import os

import pytest


@pytest.fixture
def no_child_left():
    """Fail a test that leaves a child process behind, running or not yet waited for.

    ``save_batch`` forks formatting children for large batches and ``load_batch`` parsing
    children for large files; each must be gone when the call returns.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps a finished child, 0 for a running one
    except ChildProcessError:  # no child at all
        pid = None
    assert pid is None, f"a child process {'still runs' if pid == 0 else pid} after the test"
    assert multiprocessing.active_children() == []
