"""workers.fork_map: where each task runs, and the CPU budget a worker sees.

Each test that forks sets the CPU count it needs: fork_map forks only where
two CPUs or more are usable.
"""

import os

import numpy as np
import pytest

from emojivote import workers
from emojivote.workers import fork_map, usable_cpus

from helpers import assert_reaped, record_forks, set_cpus


def test_first_task_here_others_in_workers_in_order(monkeypatch):
    set_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    results = fork_map(lambda t: (t, os.getpid()), [0, 1, 2])
    assert results == [(0, os.getpid()), (1, pids[0]), (2, pids[1])]
    assert_reaped(pids)


def test_worker_sees_one_cpu(monkeypatch):
    set_cpus(monkeypatch, 3)
    pids = record_forks(monkeypatch)
    assert fork_map(lambda _: usable_cpus(), [0, 1, 2]) == [3, 1, 1]
    assert not workers._in_worker
    assert_reaped(pids)


def test_one_cpu_runs_every_task_here_in_order(monkeypatch):
    set_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert fork_map(lambda t: (t, os.getpid()), [0, 1, 2]) == [(t, os.getpid()) for t in range(3)]


def test_nested_fork_map_in_a_worker_forks_nothing(monkeypatch):
    set_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    nested = lambda t: t and fork_map(lambda u: (u, os.getpid()), [0, 1, 2])
    results = fork_map(nested, [0, 1])
    assert len(pids) == 1  # the worker; its own would have run beside it, under other pids
    assert results == [0, [(u, pids[0]) for u in range(3)]]
    assert_reaped(pids)


@pytest.mark.parametrize("tasks", [[], [5]])
def test_fewer_than_two_tasks_run_here(monkeypatch, tasks):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert fork_map(lambda t: t * 2, tasks) == [t * 2 for t in tasks]


def test_serial_without_fork(monkeypatch):
    set_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert fork_map(lambda t: (t, os.getpid()), [0, 1, 2]) == [(t, os.getpid()) for t in range(3)]


def test_results_keep_numpys_own_dtypes(monkeypatch):
    # As an array made here would: a pickle of the result (an archive) then memoizes
    # its dtypes as it would those of the same result computed here.
    set_cpus(monkeypatch, 2)
    pids = record_forks(monkeypatch)
    made = lambda _: (np.zeros(2), np.arange(3), np.zeros(1, dtype=[("a", "i4")]))
    numpys_own = lambda arrays: [a.dtype is np.dtype(a.dtype.str) for a in arrays]
    assert numpys_own(fork_map(made, [0, 1])[1]) == numpys_own(made(0)) == [True, True, False]
    assert_reaped(pids)
