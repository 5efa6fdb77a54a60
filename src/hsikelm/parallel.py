"""The thread runtime of the parallel stages: jobs side by side, lent scratch
and one BLAS policy.

``run_jobs`` runs independent jobs on one worker per CPU, ``run_row_blocks``
splits a row range into balanced blocks that each borrow a workspace
(``lend``, ``mapped_array``), and ``single_threaded_blas`` keeps every
OpenBLAS on one thread, so that no result depends on the CPU count or on
the BLAS thread setting. ``release_free_memory`` hands the heap pages that
parallel work freed back to the system.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import mmap
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

BLOCK_ROWS = 512

# (set, get) thread-count symbols: numpy's ILP64 copy, scipy's copy, a plain build
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def loaded_openblas() -> list[ctypes.CDLL]:
    """Every OpenBLAS library loaded in this process now (none where
    ``/proc/self/maps`` does not exist)."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6})
    named = [(path, path.rsplit("/", 1)[-1]) for path in paths]
    return [ctypes.CDLL(path) for path, name in named if "openblas" in name and ".so" in name]


def openblas_thread_controls() -> tuple[tuple, ...]:
    """(set, get) thread-count functions of every OpenBLAS loaded now: looked up
    again once a module was imported since the last lookup, as an import may load one."""
    return _thread_controls(len(sys.modules))


@functools.lru_cache(maxsize=1)
def _thread_controls(module_count: int) -> tuple[tuple, ...]:
    controls = []
    for lib in loaded_openblas():
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return tuple(controls)


@contextlib.contextmanager
def single_threaded_blas():
    """Run the body with every loaded OpenBLAS on one thread, then restore each count.

    hsikelm's one BLAS policy, so that results are the same whatever the
    environment sets: ``run_jobs`` enters it around its jobs, which get their
    parallelism from one worker per CPU instead, and the serial BLAS stages
    (``kelm.train``'s solve, ``mstv.kpca_fit``) enter it themselves. The
    count is process-wide: no two independent threads may enter it at once.
    Without OpenBLAS this does nothing.
    """
    controls = openblas_thread_controls()
    previous = [get() for _, get in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, previous):
            set_threads(count)


@functools.cache
def _malloc_trim():
    """The C library's ``malloc_trim``, or None where it has no such call
    (it is a glibc extension: not in musl, macOS or Windows)."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # TypeError: Windows loads no library by None
        return None
    trim = getattr(libc, "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def release_free_memory() -> None:
    """Hand the free pages of every malloc arena back to the system.

    glibc gives each thread that allocates its own arena and keeps what is
    freed there for later allocations of that thread, so memory that a
    helper thread freed would otherwise stay resident under every later
    stage. A few milliseconds; without ``malloc_trim`` this does nothing.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def mapped_array(shape) -> np.ndarray:
    """A float64 array of ``shape`` in its own anonymous memory map.

    The pages go back to the system once the array is freed. A heap array
    allocated in a pool thread lives in that thread's glibc arena, and
    ``release_free_memory`` cannot hand all of it back: ``malloc_trim`` does
    not trim the top chunk of an arena other than the main one. After a tune
    at n=1024 on 2 CPUs and the release, heap workspaces left 7.3-7.5 MB
    resident against 3.7-3.8 MB with mapped arrays (ROADMAP item 4).
    """
    size = int(np.prod(shape))
    buffer = mmap.mmap(-1, 8 * max(size, 1))  # a map cannot be empty
    return np.frombuffer(buffer, dtype=np.float64, count=size).reshape(shape)


@contextlib.contextmanager
def lend(pool: list, make):
    """Lend ``pool``'s most recently returned item, or ``make()`` when all are lent out.

    The item goes back to ``pool`` when the body exits, also when it raises.
    Safe from several threads at once: ``pool`` never holds more items than
    borrowers that ran at once, and an item no borrower needs is not touched.
    """
    try:
        item = pool.pop()
    except IndexError:
        item = make()
    try:
        yield item
    finally:
        pool.append(item)


@functools.cache
def _helper_pool() -> ThreadPoolExecutor:
    """Threads that help ``run_jobs`` callers; idle between calls.

    They live as long as the process: starting threads for each call costs
    a thread handshake per helper, more than a cheap job.
    """
    return ThreadPoolExecutor(max_workers=os.cpu_count(), thread_name_prefix="run_jobs")


@single_threaded_blas()
def run_jobs(job, count: int) -> None:
    """Call ``job(k)`` once for each k in ``range(count)``, side by side.

    The jobs run on one worker per CPU in the process's affinity mask (at
    most one per job): the calling thread and helpers from a shared pool.
    So ``job`` must be safe to call from several threads; a job that needs
    scratch memory borrows it with ``lend``. Each worker takes the next
    unstarted job, in job order, until none is left or a job has raised.
    Once the calling thread finds no job to take, a helper that has not
    started yet is cancelled, so a busy pool never holds a call up, and a
    helper that has started is waited for. All jobs before a failed one
    have then started and finished; the exception of the first failed job
    in job order is raised. The whole call runs with BLAS on one thread.
    A call that started helpers releases the memory freed meanwhile
    (``release_free_memory``) before it returns or raises.
    """
    workers = min(len(os.sched_getaffinity(0)), count)
    jobs = iter(range(count))
    failures = {}  # job -> exception
    lock = threading.Lock()  # guards jobs and failures

    def work():
        while True:
            with lock:
                k = None if failures else next(jobs, None)
            if k is None:
                return
            try:
                job(k)
            except BaseException as e:  # re-raised by the caller
                with lock:
                    failures[k] = e

    helpers = [_helper_pool().submit(work) for _ in range(1, workers)]
    work()
    for helper in helpers:
        if not helper.cancel():
            helper.result()
    if helpers:
        release_free_memory()
    if failures:
        raise failures[min(failures)]


def run_row_blocks(job, rows: int, scratch_cols: int) -> None:
    """Call ``job(start, stop, scratch)`` for balanced blocks of ``rows``.

    The rows split into ``count`` = ⌈rows / ``BLOCK_ROWS``⌉ blocks; block k
    covers rows k·rows // count to (k + 1)·rows // count, so block sizes
    differ by at most one row and none is a short tail (BLAS may take
    another path for a block of a few rows, and change its last bits).
    The blocks run side by side on ``run_jobs``, so with BLAS on one thread.
    ``scratch`` is a (stop - start) x ``scratch_cols`` float64 array,
    C-contiguous, lent (``lend``) from the call's pool of ``mapped_array``
    workspaces and left as an earlier block wrote it. The blocks do not depend
    on the CPU count, so neither do the bits of a job that writes only its own rows.
    """
    count = -(-rows // BLOCK_ROWS)
    pool = []

    def block(k):
        start, stop = k * rows // count, (k + 1) * rows // count
        with lend(pool, lambda: mapped_array((-(-rows // count), scratch_cols))) as scratch:
            job(start, stop, scratch[: stop - start])

    run_jobs(block, count)
