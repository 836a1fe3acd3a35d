"""workers.fork_map: where each task runs, and the CPU budget a worker sees."""

import os

import numpy as np
import pytest

from emojivote import workers
from emojivote.workers import fork_map, usable_cpus

from helpers import assert_reaped, record_forks


def test_first_task_here_others_in_workers_in_order(monkeypatch):
    pids = record_forks(monkeypatch)
    results = fork_map(lambda t: (t, os.getpid()), [0, 1, 2])
    assert results == [(0, os.getpid()), (1, pids[0]), (2, pids[1])]
    assert_reaped(pids)


def test_worker_sees_one_cpu(monkeypatch):
    pids = record_forks(monkeypatch)
    assert fork_map(lambda _: usable_cpus(), [0, 1, 2]) == [usable_cpus(), 1, 1]
    assert not workers._in_worker
    assert_reaped(pids)


@pytest.mark.parametrize("tasks", [[], [5]])
def test_fewer_than_two_tasks_run_here(monkeypatch, tasks):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert fork_map(lambda t: t * 2, tasks) == [t * 2 for t in tasks]


def test_serial_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert fork_map(lambda t: (t, os.getpid()), [0, 1, 2]) == [(t, os.getpid()) for t in range(3)]


def test_results_keep_numpys_own_dtypes(monkeypatch):
    # As an array made here would: a pickle of the result (an archive) then memoizes
    # its dtypes as it would those of the same result computed here.
    pids = record_forks(monkeypatch)
    made = lambda _: (np.zeros(2), np.arange(3), np.zeros(1, dtype=[("a", "i4")]))
    numpys_own = lambda arrays: [a.dtype is np.dtype(a.dtype.str) for a in arrays]
    assert numpys_own(fork_map(made, [0, 1])[1]) == numpys_own(made(0)) == [True, True, False]
    assert_reaped(pids)
