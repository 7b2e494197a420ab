"""Helper processes forked beside a run: the render child of
emit.write_diagnostics_files and the stepping child of solver.samples.

A child runs one function, with the cyclic garbage collector off, and
always leaves through os._exit, so it never returns into its parent's code,
runs its exit handlers or finalizes what it inherited. An error it raises
goes pickled down a report pipe. Its parent always reaps it: reap reads the
report, waits for the child, and raises the child's error in the parent, or
a RuntimeError when the child died of a signal without a report. A child
calls no BLAS: the command line runs BLAS on one thread, but a library
caller's process may hold OpenBLAS worker threads, and a fork copies none
of them.
"""

from __future__ import annotations

import gc
import os
import pickle
import warnings

__all__ = ["start", "reap", "running"]

running: set[int] = set()  # the pids of this process's children not yet reaped


def start(body, keep) -> tuple[int, int]:
    """Fork a child that closes every descriptor above 2 but those in keep
    (its ends of its pipes) and its report pipe, then runs body() and exits:
    with code 0 when body returns, else 1 after sending the error it raised
    down the report pipe. Returns the child's pid and the read end of its
    report pipe."""
    report_r, report_w = os.pipe()
    with warnings.catch_warnings():
        # Python >= 3.12 warns that forking a process with threads may
        # deadlock the child; in a library caller's process those threads
        # are OpenBLAS's workers, and a child calls no BLAS
        warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        gc.disable()  # no object this process inherited is finalized in it
        try:
            low = 3
            for fd in sorted({*keep, report_w}):
                os.closerange(low, fd)
                low = fd + 1
            os.closerange(low, os.sysconf("SC_OPEN_MAX"))
            body()
            code = 0
        except BaseException as exc:
            try:
                report = pickle.dumps(exc)
            except Exception:  # an error that does not pickle goes as its repr
                report = pickle.dumps(RuntimeError(repr(exc)))
            with open(report_w, "wb") as fh:
                fh.write(report)
        finally:
            os._exit(code)
    running.add(pid)
    os.close(report_w)
    return pid, report_r


def reap(pid: int, report_fd: int, name: str, kill: bool = False) -> None:
    """Wait for a child of start and close its report pipe. With kill, the
    child is killed first and nothing is raised: its parent is leaving on an
    error of its own. Otherwise the error the child reported is raised, or
    a RuntimeError naming the child when it ended without a report and with
    a code other than 0 (a negative code: killed by that signal)."""
    report = b""
    try:
        if kill:
            # imported here: the signal module costs 0.4 ms of every start-up
            import signal

            os.kill(pid, signal.SIGKILL)
            os.close(report_fd)
        else:
            with open(report_fd, "rb") as fh:
                report = fh.read()
    finally:
        status = os.waitpid(pid, 0)[1]
        running.discard(pid)
    if kill:
        return
    if report:
        raise pickle.loads(report) from None
    if status != 0:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"the {name} exited with code {code}")
