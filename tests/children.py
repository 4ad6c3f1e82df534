"""The check that a test process has reaped every child process it forked."""

import os


def assert_no_child():
    """Fail while this process has a child, running or exited, that no wait has reaped."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError(f"an unreaped child process is left (pid {pid or 'still running'})")
