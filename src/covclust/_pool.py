"""One thread pool for the passes whose items write disjoint outputs.

:func:`each_block` shares the items ``0 .. n - 1`` of a pass among a few
threads, the calling thread one of them.  The fit's kernel-moment pass
shares its blocks of anchor rows this way, and cross-validation its
splits.  numpy's loops, sorts and BLAS calls release the interpreter lock,
so the threads run at once.

An item's output must not depend on the thread that computes it or on the
items computed before it, so a pass gives the same bytes at any worker
count.  Only ``threading`` is used: ``concurrent.futures`` would add to the
command line's import time.
"""

from __future__ import annotations

import os
import threading


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
