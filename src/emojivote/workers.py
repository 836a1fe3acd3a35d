"""Map a function over independent tasks in forked worker processes.

A forked worker runs on the parent's memory pages, copy on write, and sends
back its result through a pipe. A task may call BLAS only on one thread, as
lr_fit does: BLAS threads in two processes would oversubscribe the cores.
"""

import os
import pickle
import signal
import sys

_in_worker = False  # set in a forked worker, whose CPU budget is 1


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 in a forked worker, so that a

    nested fork_map runs serially.
    """
    if _in_worker:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _ResultPickler(pickle.Pickler):
    """Pickles a worker's result so that a numpy dtype of a built-in type

    unpickles as numpy's own instance of it, like that of an array made here.
    (numpy's reduction unpickles a copy, which a pickle of the result, such as
    an archive, would then memoize apart from numpy's own instance.)
    """

    def reducer_override(self, obj):
        dtype = getattr(sys.modules.get("numpy"), "dtype", None)
        if dtype is not None and isinstance(obj, dtype) and obj.isbuiltin == 1:
            return dtype, (obj.str,)
        return NotImplemented


def _fork(fn, task) -> tuple:
    """(pid, read end of its pipe) of a child that sends back fn(task) or the

    exception it raised. The child leaves by os._exit once its pipe is
    flushed, so no stdio buffer or exit handler of this process runs twice.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        global _in_worker
        _in_worker = True
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                try:
                    result = fn(task)
                except BaseException as exc:  # the parent re-raises it
                    try:
                        error = pickle.dumps(exc)
                    except Exception:  # an exception that does not pickle
                        error = pickle.dumps(RuntimeError(repr(exc)))
                    pipe.write(error)
                else:
                    _ResultPickler(pipe, protocol=5).dump(result)  # arrays written without a copy
                    status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def fork_map(fn, tasks: list) -> list:
    """[fn(task) for task in tasks]: the first task run in this process, the

    others each in a forked worker; all of them here, in order, where os.fork
    is missing or fewer than two CPUs are usable (as in a worker, so a nested
    fork_map forks nothing). A worker's exception is raised here again with
    its type; a worker that dies without a result raises RuntimeError. If
    anything fails, here or in a worker, the workers not yet reaped are
    killed and reaped before the exception propagates.
    """
    if len(tasks) < 2 or not hasattr(os, "fork") or usable_cpus() < 2:
        return [fn(task) for task in tasks]
    workers = []  # (pid, pipe) of the workers not yet reaped
    try:
        for task in tasks[1:]:
            workers.append(_fork(fn, task))
        results = [fn(tasks[0])]
        while workers:
            pid, pipe = workers[0]
            with pipe:
                try:
                    outcome = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # cut short: the worker died
                    outcome = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            if isinstance(outcome, BaseException):
                raise outcome
            if code != 0:
                cause = f"signal {-code}" if code < 0 else f"exit code {code}"
                raise RuntimeError(f"worker {pid} ended with {cause}")
            results.append(outcome)
        return results
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
