import gc
import json
import os
import platform
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from hsikelm import mstv, parallel
from hsikelm.errors import NumericalError

from conftest import blas_env, row_blocks


def test_run_jobs_pool_runs_each_job_once(cpus):
    # switching threads as often as the interpreter allows: a job run twice
    # or never shows
    calls = np.zeros(2000, dtype=np.int64)

    def job(k):
        calls[k] += 1
        time.sleep(0)  # let another worker run mid-job

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel.run_jobs(job, calls.size)
    finally:
        sys.setswitchinterval(interval)
    assert np.all(calls == 1)
    parallel.run_jobs(job, 0)  # no job, no worker
    assert np.all(calls == 1)


def test_lend_gives_each_borrower_its_own_array_and_takes_it_back(cpus):
    # jobs on every worker, switching threads as often as the interpreter
    # allows: an array lent to two borrowers at once, a pool that outgrows the
    # borrowers that ran at once, or an array kept by a body that raised shows
    pool, made = [], []
    lock = threading.Lock()
    borrowers = peak = 0

    def make():
        made.append(parallel.mapped_array((3, 2)))
        return made[-1]

    def job(k):
        nonlocal borrowers, peak
        with lock:  # counted from before the loan until after the return
            borrowers += 1
            peak = max(peak, borrowers)
        with parallel.lend(pool, make) as scratch:
            scratch[:] = k
            time.sleep(0)  # let another borrower run mid-job
            assert np.all(scratch == k)
        with lock:
            borrowers -= 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel.run_jobs(job, 2000)
    finally:
        sys.setswitchinterval(interval)
    assert 1 <= len(made) <= peak <= cpus
    assert sorted(map(id, pool)) == sorted(map(id, made))  # every array came back
    with pytest.raises(ValueError, match="body failed"):
        with parallel.lend(pool, make) as scratch:
            raise ValueError("body failed")
    assert pool[-1] is scratch and len(pool) == len(made)  # back on top, nothing new made
    with parallel.lend(pool, make) as again:
        assert again is scratch  # the most recently returned array is lent first


def test_run_jobs_pool_raises_first_failure_in_job_order_and_stops(cpus):
    started = []

    def job(k):
        started.append(k)
        if k == 1:
            time.sleep(0.2)  # let the later failure finish first
            raise ValueError("job 1 failed")
        if k == 3:
            raise NumericalError("job 3 failed")
        time.sleep(0.01)

    with pytest.raises(ValueError, match="job 1 failed"):
        parallel.run_jobs(job, 100)
    # no job starts once a failure is recorded: without the stop, all 100
    # would have started while job 1 sleeps
    assert sorted(started) == list(range(len(started))) and len(started) < 3 + 2 * cpus


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs at least 2 CPUs")
def test_run_jobs_pool_runs_jobs_concurrently():
    barrier = threading.Barrier(2, timeout=10)
    parallel.run_jobs(lambda k: barrier.wait(), 2)  # BrokenBarrierError unless both run at once


@pytest.mark.parametrize("cpus", [8], indirect=True)
def test_run_jobs_cancels_helpers_that_never_started(cpus):
    # every pool thread is busy, so no helper can start: the calling thread
    # runs every job and must not wait for a helper that never started
    release = threading.Event()
    pool = parallel._helper_pool()
    blockers = [pool.submit(release.wait, 10) for _ in range(pool._max_workers)]
    runners = []
    try:
        start = time.perf_counter()
        parallel.run_jobs(lambda k: runners.append((k, threading.get_ident())), 10)
        elapsed = time.perf_counter() - start
    finally:
        release.set()
    for blocker in blockers:
        blocker.result(timeout=10)
    assert elapsed < 5
    assert runners == [(k, threading.get_ident()) for k in range(10)]


@pytest.mark.parametrize("rows", [0, 1, 511, 512, 513, 1023, 1025, 1541, 21025])
def test_run_row_blocks_are_balanced_and_cover_the_rows(rows):
    blocks = []
    lock = threading.Lock()

    def job(start, stop, scratch):
        assert scratch.shape == (stop - start, 3) and scratch.flags.c_contiguous
        with lock:
            blocks.append((start, stop))

    parallel.run_row_blocks(job, rows, 3)
    blocks.sort()
    sizes = [stop - start for start, stop in blocks]
    assert len(blocks) == -(-rows // parallel.BLOCK_ROWS)
    assert [r for start, stop in blocks for r in range(start, stop)] == list(range(rows))
    assert not sizes or (max(sizes) - min(sizes) <= 1 and max(sizes) <= parallel.BLOCK_ROWS)
    assert blocks == row_blocks(rows)  # the partition the tests' serial oracles use


def test_run_jobs_releases_free_memory_once_after_helpers_ran(cpus, monkeypatch):
    calls = []
    monkeypatch.setattr(parallel, "release_free_memory", lambda: calls.append(1))
    seen = []  # the release count each job saw
    parallel.run_jobs(lambda k: seen.append(len(calls)), 4)
    assert seen == [0] * 4  # never inside a job
    assert len(calls) == (1 if cpus > 1 else 0)  # helpers take part only with 2 or more CPUs
    parallel.run_jobs(lambda k: seen.append(len(calls)), 1)  # one job: no helper
    assert len(calls) == (1 if cpus > 1 else 0)

    def failing(k):
        raise ValueError("job failed")

    with pytest.raises(ValueError, match="job failed"):
        parallel.run_jobs(failing, 4)
    assert len(calls) == (2 if cpus > 1 else 0)


def test_release_without_malloc_trim_does_nothing(monkeypatch):
    # a C library without malloc_trim, as on musl, macOS or Windows; other
    # libraries (OpenBLAS) still load
    load = parallel.ctypes.CDLL
    monkeypatch.setattr(parallel.ctypes, "CDLL",
                        lambda name, *args, **kwargs: object() if name is None else load(name, *args, **kwargs))
    parallel._malloc_trim.cache_clear()
    try:
        assert parallel._malloc_trim() is None
        parallel.release_free_memory()
        calls = np.zeros(8, dtype=np.int64)

        def job(k):
            calls[k] += 1

        parallel.run_jobs(job, calls.size)
        assert np.all(calls == 1)
    finally:
        parallel._malloc_trim.cache_clear()


_LATE_OPENBLAS = """
import json
import numpy as np
from hsikelm import parallel
parallel.run_jobs(lambda k: None, 2)
from hsikelm import kelm  # loads scipy, and with it scipy's own OpenBLAS
gets = [get for _, get in parallel._OPENBLAS_THREAD_SYMBOLS]
def threads():
    return [next(getattr(lib, g)() for g in gets if hasattr(lib, g)) for lib in parallel.loaded_openblas()]
with parallel.single_threaded_blas():
    inside = threads()
print(json.dumps([inside, threads()]))
"""


@pytest.mark.skipif(not parallel.openblas_thread_controls() or len(os.sched_getaffinity(0)) < 2,
                    reason="needs a loaded OpenBLAS and at least 2 CPUs")
def test_openblas_loaded_after_first_run_jobs_is_pinned_too():
    run = subprocess.run([sys.executable, "-c", _LATE_OPENBLAS], env=blas_env("2"),
                         capture_output=True, text=True, check=True, timeout=60)
    inside, after = json.loads(run.stdout)
    assert inside == [1] * len(inside) and after == [2] * len(after)


def resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or len(os.sched_getaffinity(0)) < 2,
                    reason="needs glibc's malloc_trim and at least 2 CPUs")
def test_smoothing_on_helper_threads_leaves_no_freed_memory_resident():
    # the helper thread that smooths the second band frees its LU factors
    # into its own malloc arena; without the release they stay resident
    # (about 15 MB at this shape on 2 CPUs)
    cube = np.random.default_rng(0).uniform(size=(145, 145, 2)).astype(np.float32)
    scales = [mstv.RtvParams()]
    mstv._rtv_plan(145, 145)  # cached for the process
    mstv.multiscale_stack(cube[:16, :16], scales)  # the helpers and first-call allocations
    gc.collect()
    before = resident_mb()
    mstv.multiscale_stack(cube, scales)
    gc.collect()
    assert resident_mb() - before <= 5.0
