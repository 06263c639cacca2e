"""The package's one fork-join: an ordered map over forked worker processes.

The simulation lab maps its replications through it, and ``dataio`` maps
the shares of a large CSV body through it both when it parses one and when
it writes one; neither imports the other.
"""

from __future__ import annotations

import os
import pickle
import sys
import traceback

import numpy as np


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, then ADAHUBER_THREADS, then the
    number of CPUs this process may run on."""
    if threads is None:
        threads = os.environ.get("ADAHUBER_THREADS") or _usable_cpus()
    threads = int(threads)
    if threads < 1:
        raise ValueError("threads must be at least 1")
    return threads


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# a forked worker inherits the experiment's closure (and whatever it shares,
# such as the moment checks' draws) instead of unpickling it; other start
# methods cost 10-20x more per call than the small fits they would spread
_FORK = hasattr(os, "fork")


def _map_ordered(fn, shape: tuple, threads: int | None) -> list:
    # the lab's replications and a CSV body's shares map through here:
    # fn(*index) for each index of the grid ``shape``, results in row-major
    # order.  Worker w takes the strided share indices[w::workers], so each
    # worker gets an equal part of every noise family or cell.  The caller
    # runs share 0 itself and forks workers - 1 children, each reaped before
    # the call returns; without fork there is one worker, so the map is serial
    if min(shape) < 1:
        raise ValueError("an experiment needs reps >= 1 and nonempty grids")
    indices = list(np.ndindex(*shape))
    workers = min(resolve_threads(threads), len(indices) if _FORK else 1)
    _flush_std_streams()  # a child must not write the caller's buffered output
    reads, pids, payloads = [], [], []  # per child: pipe read end, pid, bytes
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(fn, indices[w::workers], write, reads)
            finally:
                os.close(write)
            pids.append(pid)
        shares = [[fn(*index) for index in indices[::workers]]]
        for read in reads:
            with open(read, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    finally:
        # close before reaping: a child blocked on a full pipe then fails
        # its write and exits instead of waiting for a reader
        for read in reads:
            os.close(read)
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for w, (payload, status) in enumerate(zip(payloads, statuses), 1):
        try:
            ok, value = pickle.loads(payload)
        except Exception as exc:
            raise RuntimeError(f"worker {w} ended with exit status {status} "
                               "without sending its results") from exc
        if not ok:
            exc, trace = value
            raise exc from RuntimeError(f"in worker {w}:\n{trace}")
        shares.append(value)
    out = [None] * len(indices)
    for w, share in enumerate(shares):
        out[w::workers] = share
    return out


def _run_share(fn, share: list, write: int, reads: list):
    # the body of a forked child, which never returns: it closes the read
    # ends it inherited (so a sibling's pipe breaks once the caller closes
    # it), sends pickle((ok, results | exception)) down its pipe and leaves
    # by os._exit, so none of the caller's cleanup runs twice; an exception
    # travels with its traceback as text.  A result or error that cannot be
    # pickled ends the child with status 1 and nothing sent
    status = 1
    try:
        for read in reads:
            os.close(read)
        try:
            payload = (True, [fn(*index) for index in share])
        except BaseException as exc:
            payload = (False, (exc, traceback.format_exc()))
        _flush_std_streams()
        data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
