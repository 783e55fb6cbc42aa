"""Independent calls run in forked worker processes, one per core."""

from __future__ import annotations

import os

__all__ = ["WorkerExitError", "fork_map"]


class WorkerExitError(RuntimeError):
    """A forked worker exited before sending its result; ``index`` is its
    item's place in the input."""

    def __init__(self, index: int, exitcode: int):
        super().__init__(f"worker for item {index} exited with code "
                         f"{exitcode} before sending its result")
        self.index = index


def fork_map(fn, items) -> list:
    """``[fn(x) for x in items]``, computed in forked child processes.

    At most one child per core this process may run on
    (``os.sched_getaffinity``) runs at a time.  ``fn`` and the items reach
    each child by fork, not by pickle, so closures and large arrays are not
    copied; each child pickles only its result back, through a pipe that
    the calling thread reads.  With one item or one core the loop runs
    inline and starts no process.

    The results come back in input order.  When ``fn`` raised for an item,
    or a child exited without sending its result (:class:`WorkerExitError`),
    the first such failure in input order is raised after every child has
    finished.

    Fork rather than spawn: a spawned worker would have to re-import the
    package and unpickle the caller's objects.  numpy's OpenBLAS shuts its
    thread pool down around a fork (``pthread_atfork``).  On Python 3.12
    and later, forking a process that holds BLAS threads may still emit a
    ``DeprecationWarning``.
    """
    items = list(items)
    workers = min(len(items), len(os.sched_getaffinity(0)))
    if workers < 2:
        return [fn(x) for x in items]
    # imported here, so that only a call that forks pays for the import
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    replies = [None] * len(items)
    queued = list(enumerate(items))[::-1]
    running = {}                            # reading end -> (index, process)
    try:
        while queued or running:
            while queued and len(running) < workers:
                i, x = queued.pop()
                reader, writer = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_reply, args=(fn, x, writer))
                proc.start()
                # the child holds the only writing end now, so its exit
                # without a result reads as EOF here
                writer.close()
                running[reader] = (i, proc)
            for reader in wait(list(running)):
                i, proc = running.pop(reader)
                with reader:
                    try:
                        replies[i] = reader.recv()
                    except EOFError:
                        pass
                proc.join()
                if replies[i] is None:
                    replies[i] = (False, WorkerExitError(i, proc.exitcode))
    finally:
        for reader, (_, proc) in running.items():
            proc.terminate()
            proc.join()
            reader.close()
    for ok, value in replies:
        if not ok:
            raise value
    return [value for _, value in replies]


def _reply(fn, x, writer):
    """Child body: send ``(True, fn(x))``, or ``(False, exception)``."""
    try:
        reply = (True, fn(x))
    except Exception as exc:  # noqa: BLE001 - re-raised in the parent
        reply = (False, exc)
    writer.send(reply)
