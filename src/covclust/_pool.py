"""One thread pool for the passes whose items write disjoint outputs.

:func:`each_block` shares the items ``0 .. n - 1`` of a pass among a few
threads, the calling thread one of them.  The fit's two kernel passes
share their blocks of rows this way, and cross-validation its splits.
numpy's loops, sorts and BLAS calls release the interpreter lock, so the
threads run at once.

An item's output must not depend on the thread that computes it or on the
items computed before it, so a pass gives the same bytes at any worker
count.  Only ``threading`` is used: ``concurrent.futures`` would add to the
command line's import time.

:func:`one_blas_thread` pins numpy's OpenBLAS to one thread for as long as
a block of work runs.  OpenBLAS splits a product among its threads, and
how it splits sets the order of the sums, so a product's bytes depend on
its thread count; on one thread they do not.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np

# numpy's wheel ships OpenBLAS as numpy.libs/libscipy_openblas64_-<hash>.so,
# whose thread-count calls carry these names
_OPENBLAS_LIBRARY = "libscipy_openblas64_*.so"
_GET_THREADS = "scipy_openblas_get_num_threads64_"
_SET_THREADS = "scipy_openblas_set_num_threads64_"

# how many blocks hold the pin, and the thread count to restore when the last ends
_pin_lock = threading.Lock()
_pin = {"holders": 0, "restore": 1}


def _available_cores() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def each_block(n_items: int, make_worker, max_workers: int) -> None:
    """Call a worker's item function once on each of ``range(n_items)``.

    ``min(CPUs, n_items, max_workers)`` threads share the items, the calling
    thread included, so with one worker no thread starts.  Each thread
    calls ``make_worker()`` once, to set up what it alone uses (say, its
    buffers), and then calls the returned function on the next item from
    one locked iterator until none is left.

    Once an item or a set-up fails, no thread takes a new item.  Every
    thread is joined before anything is raised, so none outlives the call.
    Of the failures, the one of the lowest item index is raised, and a
    set-up failure ranks below every item.  Items are handed out in
    order, so every item below a failed one was taken and has finished, and
    the error raised is the one a single worker would meet first.
    """
    lock = threading.Lock()
    items = iter(range(n_items))
    failures = []

    def next_item():
        with lock:
            return None if failures else next(items, None)

    def work():
        item = -1
        try:
            run = make_worker()
            for item in iter(next_item, None):
                run(item)
        except BaseException as exc:  # raised by the caller after every join
            with lock:
                failures.append((item, exc))

    workers = []
    try:
        for _ in range(min(_available_cores(), n_items, max_workers) - 1):
            worker = threading.Thread(target=work)
            worker.start()
            workers.append(worker)
    except BaseException as exc:  # a thread that could not start stops the others
        with lock:
            failures.append((-1, exc))
    work()
    for worker in workers:
        worker.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


@functools.cache
def openblas_library():
    """numpy's bundled OpenBLAS, opened with ``ctypes``, or None where numpy
    does not ship that library (another platform or a build from source).

    Opened on first use: ``ctypes`` opens the file numpy already loaded, so
    its calls act on the BLAS that numpy's products run on.
    """
    found = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(_OPENBLAS_LIBRARY))
    if len(found) != 1:
        return None
    try:
        return ctypes.CDLL(str(found[0]))
    except OSError:  # the file cannot be loaded
        return None


@functools.cache
def _openblas_thread_calls():
    """numpy's OpenBLAS ``(get, set)`` thread-count calls, or None where
    :func:`openblas_library` finds none or the library lacks them."""
    lib = openblas_library()
    try:
        get, set_ = getattr(lib, _GET_THREADS), getattr(lib, _SET_THREADS)
    except AttributeError:  # no library, or a symbol is absent
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def can_pin_blas() -> bool:
    """Whether :func:`one_blas_thread` can pin numpy's BLAS on this platform."""
    return _openblas_thread_calls() is not None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread; yields whether it is pinned.

    The thread count is process-wide, so every BLAS call in the process,
    from any thread, runs on one thread while a block holds the pin.  Blocks
    may overlap, from one thread or several: the first to enter sets one
    thread and the last to leave restores the count the first one found.
    Where :func:`can_pin_blas` is false nothing changes and the block gets
    False.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield False
        return
    get, set_ = calls
    with _pin_lock:
        if not _pin["holders"]:
            _pin["restore"] = get()
            set_(1)
        _pin["holders"] += 1
    try:
        yield True
    finally:
        with _pin_lock:
            _pin["holders"] -= 1
            if not _pin["holders"]:
                set_(_pin["restore"])
