"""Helper processes that share out the work of one call.

`run` is the one entry.  A call hands it a task, a function that a helper
process unpickles by reference, with the task's jobs and the facts that
size the call: samples per unit, pass size, forward multiply-adds per
sample and result bytes per unit.  So this module names no task and
imports nothing from its package.  Importing it sets the allocator policy
of `_keep_freed_pages_mapped`.
"""
from __future__ import annotations

import atexit
import ctypes
import itertools
import logging
import math
import mmap
import multiprocessing
import os
import pickle
import platform
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

_SHARE_MACS = 5 << 20  # forward multiply-adds per part of a shared call
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters

log = logging.getLogger(__name__)


def _keep_freed_pages_mapped() -> None:
    """Keep the engine's freed temporaries mapped for the next step (glibc).

    glibc's default, self-adjusting mmap and trim thresholds handed the
    MB-sized temporaries of each step back to the kernel, and the next step
    faulted them in again (about 116,000 minor faults per FedBE desk
    experiment).  Fixed thresholds keep them in the heap.  Setting either
    threshold switches off the adjustment of both, so both are set.  No
    computed value changes.
    """
    if sys.platform != "linux" or platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_pages_mapped()


# --------------------------- helper processes ----------------------------
#
# A call of more than _SHARE_MACS forward multiply-adds shares its work
# out: its units are cut into contiguous parts, one for each _SHARE_MACS
# begun and at most one a process; this process computes the first, the
# larger where the cut is uneven, since it sends no request and reads no
# reply, and each helper process one of the others.  A part carries the
# params of each of its jobs once.  The task's results must not depend on
# where a part is computed, nor on where the parts are cut, so the bytes
# are the same whatever the number of helpers.  A smaller call, under
# about 1 ms of work, stays here: that is where sharing with a helper that
# idled 3 ms before the call broke even (a desk-spec forward of 17 samples
# took 1.06 ms here and 1.07 ms shared, one of 18 samples 1.08 ms here and
# 1.07 ms shared).
#
# A helper trades arrays with this process through its arena, a file that
# both map: a memfd where the platform has one, else an unlinked temporary
# file.  A request copies the params and per-sample arrays of a part into
# the arena, and the pipe carries only its header: the task, the place and
# shape of each array, and the pass size.  The helper computes on views of
# the arena, copies each result into it as soon as it is computed, and
# sends one reply a part: the number of results, then where each lies.
# This process hands each result on as soon as its place is read, and
# every taker copies or adds it at once, so no view of the arena outlives
# the call.  A call whose helper parts would not fit their arenas runs in
# waves of whole units, in unit order, each cut into parts as a call is,
# so that the arena pages mapped here stay bounded while every process
# computes; an arena grows only where a part's params and one unit do not
# fit it.  Either side waits for the other by polling its pipe for
# _POLL_SECONDS, longer than the gaps between the engine calls of a round,
# before it sleeps in a blocking read.
#
# The helpers start at the first call that can use them: one per CPU this
# process may run on beyond the first, at most _MAX_HELPERS, and none in a
# multiprocessing child, so that the workers of a process pool stay serial.
# Each is a child interpreter running `_serve` with BLAS on one thread: not
# a fork, which warns when BLAS threads exist, nor a multiprocessing spawn,
# which imports the caller's __main__ again.  A helper exits when its stdin
# closes, so it does not outlive this process even when that is killed.  A
# helper that fails has the results of its part that were not read from
# it computed here, with the same bytes, and a new one starts at the next
# call.

_MAX_HELPERS = 3
_ARENA_BYTES = 2 << 20  # a helper's arena: its part's inputs and results
_POLL_SECONDS = 0.003  # how long a process polls its pipe before it sleeps
_LINE = 64  # each array in an arena starts on a cache line
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_pool: list["_Helper"] = []
_pool_lock = threading.Lock()  # held by the one call that uses the helpers


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else all of the machine's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _helper_count() -> int:
    """Helpers to run: one per CPU this process may use beyond the first."""
    return min(_MAX_HELPERS, usable_cpus() - 1)


def _helpers(most: int) -> list["_Helper"]:
    """Up to `most` helpers, started as needed."""
    if most < 1 or multiprocessing.parent_process() is not None:
        return []
    want = min(most, _helper_count())
    while len(_pool) < want:
        try:
            _pool.append(_Helper())
        except OSError as exc:  # no process to be had: compute here
            log.warning("cannot start an engine helper: %s", exc)
            break
    return _pool[:want]


def run(task, jobs: list, take, *, unit: int, step: int, sample_macs: int,
        result_bytes: int) -> None:
    """Hand `take` each result of `task` on `jobs`, in order.  A job is
    (params, per-sample arrays, extra arguments), and a pass over at most
    `step` samples of its arrays gives the result
    `task(params, *arrays, *extra)`.  A job's units are its samples in runs
    of `unit`, the last one maybe shorter; `step` is a multiple of `unit`,
    a sample costs `sample_macs` forward multiply-adds and a unit's results
    take up to `result_bytes` bytes.  A call of more than _SHARE_MACS
    forward multiply-adds is cut into contiguous parts of whole units, in
    waves where the helpers' parts would not fit their arenas: the first
    part of each wave, rounded up, is computed here, the others by
    helpers, unless another thread is using them.  `take` must copy or add
    each result before it returns."""
    # a thread that finds the helpers in use computes its whole call here
    locked = _pool_lock.acquire(blocking=False)
    helpers = []
    try:
        units = [-(-len(arrays[0]) // unit) for _, arrays, _ in jobs]
        macs = sum(len(arrays[0]) for _, arrays, _ in jobs) * sample_macs
        # one part for each _SHARE_MACS forward multiply-adds begun
        helpers = _helpers(min(sum(units), -(-macs // _SHARE_MACS)) - 1 if locked else 0)
        start, total = 0, sum(units)
        fits, arena = _arena_plan(jobs, unit, result_bytes) if helpers else (total, 0)
        while start < total:
            count = len(helpers) + 1
            end = min(total, start + count * fits)
            # cuts rounded up: the first part, computed here, is the larger
            cuts = [start + -(-(end - start) * j // count) for j in range(count + 1)]
            work = [(task, part, step) for part in _parts(jobs, units, unit, cuts)]
            for helper, part in zip(helpers, work[1:]):
                helper.ask(part, arena)
            for result in _answer(*work[0]):
                take(result)
            for helper, part in zip(helpers, work[1:]):
                helper.answer(part, take)
            # a helper that failed has left the pool; the others share the
            # later waves
            helpers = [helper for helper in helpers if helper in _pool]
            start = end
    finally:
        # a call that raised leaves a reply unread, which the next call
        # would take for its own
        for helper in helpers:
            if helper.pending:
                helper.close()
        if locked:
            _pool_lock.release()


def _arena_plan(jobs: list, unit: int, result_bytes: int) -> tuple[int, int]:
    """The most units of `jobs` a helper's part may hold so that its inputs
    and results fit in _ARENA_BYTES, at least one; and the arena bytes such
    a part may take, more than _ARENA_BYTES only where its fixed bytes and
    one unit do not fit.  Each array may take up to _LINE bytes more than
    its own."""
    # a job's params and the start of each of its arrays; a unit's samples
    # and results
    job = max(params.nbytes + (len(arrays) + 1) * _LINE for params, arrays, _ in jobs)
    fixed, per_unit = job, max(unit * sum(a[:1].nbytes for a in arrays) + result_bytes + _LINE
                               for _, arrays, _ in jobs)
    if len(jobs) > 1:
        fixed, per_unit = 0, job + per_unit  # at worst, each unit starts a job
    return max(1, (_ARENA_BYTES - fixed) // per_unit), max(_ARENA_BYTES, fixed + per_unit)


def _parts(jobs: list, units: list, unit: int, cuts: list) -> list[list]:
    """The parts of `jobs`, of `units` units of `unit` samples each,
    between successive `cuts`, which count units from the first job's
    first: each part the list of the slices of the jobs in it."""
    bounds = list(itertools.accumulate(units, initial=0))
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        part = []
        for (params, arrays, extra), first, last in zip(jobs, bounds, bounds[1:]):
            a, b = (max(lo, first) - first) * unit, (min(hi, last) - first) * unit
            if a < b:
                part.append((params, [x[a:b] for x in arrays], extra))
        parts.append(part)
    return parts


def _answer(task, jobs: list, step: int, skip: int = 0):
    """The results of `task` on each pass of `step` samples of each job's
    arrays, job after job, but the first `skip`, which are not computed."""
    for params, arrays, extra in jobs:
        starts = range(0, len(arrays[0]), step)
        starts, skip = starts[skip:], max(0, skip - len(starts))
        for start in starts:
            yield task(params, *(a[start:start + step] for a in arrays), *extra)


class _Block(NamedTuple):
    """Where an array lies in an arena."""

    offset: int
    shape: tuple
    dtype: str


def _view(arena: mmap.mmap, block: _Block) -> np.ndarray:
    return np.frombuffer(arena, np.dtype(block.dtype), math.prod(block.shape),
                         block.offset).reshape(block.shape)


def _store(arena: mmap.mmap, offset: int, value):
    """`value`, with each array in it copied into the arena from `offset`
    on and replaced by its `_Block`; and the offset after the last."""
    if isinstance(value, np.ndarray):
        block = _Block(offset, value.shape, value.dtype.str)
        _view(arena, block)[...] = value
        return block, offset + -(-value.nbytes // _LINE) * _LINE
    if isinstance(value, (list, tuple)):
        stored = []
        for item in value:
            item, offset = _store(arena, offset, item)
            stored.append(item)
        return type(value)(stored), offset
    return value, offset


def _load(arena: mmap.mmap, value):
    """`value`, with each `_Block` in it replaced by its view of the arena."""
    if isinstance(value, _Block):
        return _view(arena, value)
    if isinstance(value, (list, tuple)):
        return type(value)(_load(arena, item) for item in value)
    return value


def _arena_file() -> int:
    """The descriptor of a new anonymous file: a memfd where the platform
    has one, else an unlinked temporary file."""
    if hasattr(os, "memfd_create"):
        return os.memfd_create("fedcsi-arena", os.MFD_CLOEXEC)
    with tempfile.TemporaryFile() as file:
        return os.dup(file.fileno())


class _Helper:
    """A child interpreter that answers `_answer` requests on the arrays of
    its arena."""

    serve = "engine._serve()"  # what the child runs once it has imported this module

    def __init__(self) -> None:
        root = str(Path(__file__).resolve().parents[__name__.count(".")])
        code = (f"import sys; sys.path.insert(0, {root!r}); import {__name__} as engine; "
                f"{self.serve}")
        env = {**os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, "1")}
        fd, arena = _arena_file(), None
        try:
            os.ftruncate(fd, _ARENA_BYTES)
            # mapped before the child starts, so that a map that fails
            # leaves no child behind
            arena = mmap.mmap(fd, _ARENA_BYTES)
            self.process = subprocess.Popen([sys.executable, "-c", code, str(fd)], env=env,
                                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                            pass_fds=(fd,))
        except BaseException:
            if arena is not None:
                arena.close()
            os.close(fd)
            raise
        self.fd, self.arena = fd, arena
        self.pending = False  # a reply not read yet

    def ask(self, part: tuple, size: int) -> None:
        """Copy the arrays of `part` into the arena, grown to `size` bytes
        if it is smaller, and send the helper the request."""
        task, jobs, step = part
        self.pending = True
        if len(self.arena) < size:
            self.arena.close()
            os.ftruncate(self.fd, size)
            self.arena = mmap.mmap(self.fd, size)
        jobs, end = _store(self.arena, 0, jobs)
        try:
            _send(self.process.stdin, (task, jobs, step, len(self.arena), end))
        except OSError:
            pass  # a helper that has gone fails to answer, below

    def answer(self, part: tuple, take) -> None:
        """Hand `take` each result of `part`: from the arena, at the places
        of the helper's one reply, or, from the first one it fails to give,
        computed here."""
        taken = 0
        try:
            _wait(self.process.stdout)
            for _ in range(pickle.load(self.process.stdout)):
                take(_load(self.arena, pickle.load(self.process.stdout)))
                taken += 1
            self.pending = False
            return
        except (OSError, EOFError, pickle.UnpicklingError):
            log.warning("engine helper %d failed; computing its part here", self.process.pid)
            self.close()
        for result in _answer(*part, skip=taken):
            take(result)

    def release(self) -> None:
        """Close this process's ends of the pipes, and its arena."""
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:  # data left unsent to a helper that has gone
                pass
        try:
            self.arena.close()
        except BufferError:  # a view still held unmaps it when it goes
            pass
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1

    def close(self) -> None:
        """Stop and reap the helper, and drop it from the pool."""
        self.release()
        self.process.kill()
        self.process.wait()
        self.pending = False
        if self in _pool:
            _pool.remove(self)


def _stop_helpers() -> None:
    for helper in list(_pool):
        helper.close()


def _forget_helpers() -> None:
    """In a forked child: let go of the parent's helpers without stopping them."""
    global _pool_lock
    _pool_lock = threading.Lock()
    for helper in _pool:
        helper.release()
    _pool.clear()


atexit.register(_stop_helpers)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _send(stream, *messages) -> None:
    """Write the messages to `stream`, pickled one after another, at once."""
    stream.write(b"".join(pickle.dumps(message, protocol=5) for message in messages))
    stream.flush()


def _wait(stream) -> None:
    """Poll `stream` until it can be read, for up to _POLL_SECONDS: what
    comes within that is read without a sleep and a wake-up, and the read
    that follows blocks if nothing came."""
    deadline = time.perf_counter() + _POLL_SECONDS
    while not select.select((stream,), (), (), 0)[0] and time.perf_counter() < deadline:
        pass


def _serve() -> None:
    """A helper's loop: answer each request on stdin, on the arena whose
    descriptor is the first argument, with one reply on stdout, until
    stdin closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the parent's to handle
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # a stray print goes to stderr, not into a reply
    fd, arena = int(sys.argv[1]), None
    try:
        while True:
            _wait(sys.stdin.buffer)
            task, jobs, step, size, end = pickle.load(sys.stdin.buffer)
            if arena is None or len(arena) != size:
                arena = mmap.mmap(fd, size)
            results = []
            for result in _answer(task, _load(arena, jobs), step):
                result, end = _store(arena, end, result)
                results.append(result)
            # one reply for the whole request, so that the parent reads
            # exactly one whatever passes the part was cut into
            _send(replies, len(results), *results)
    except (EOFError, pickle.UnpicklingError, BrokenPipeError):
        os._exit(0)  # the parent has gone; there is nothing to flush
