"""Shared worker-process lifecycle: spawn, watch, time out, retry.

Two subsystems run simulator work in long-lived child processes: the
campaign executor (:mod:`repro.campaign.pool` — at most ``workers``
warm workers, each running many shards in turn) and the session
service (:mod:`repro.serve` — shard workers hosting resident
sessions).  Both need the same machinery underneath:

* a deterministic multiprocessing context (``fork`` where available,
  ``spawn`` otherwise);
* a handle pairing a child process with its duplex pipe, with
  deadline bookkeeping and a kill switch;
* one worker-side request/reply loop (:func:`serve_requests`);
* dead-worker detection — a worker whose request *raises* reports the
  error over its pipe and stays up, one that *dies* (segfault,
  ``os._exit``, kill -9) is detected by the closed pipe (EOF), one
  that *hangs* past its deadline is terminated;
* retry with exponential backoff, and graceful degradation when the
  retry budget is exhausted.

:class:`RetryingTaskPool` packages the many-tasks-per-worker pattern
(the campaign executor's engine); :class:`WorkerHandle` and
:func:`wait_workers` are the lower-level pieces the serve shard pool
builds its workers from.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time
from typing import Callable, Optional

from multiprocessing.connection import wait as _conn_wait


def resolve_mp_context(name: Optional[str] = None):
    """A multiprocessing context: ``name`` if given, else ``fork``
    where the platform supports it (cheap, inherits the parent's
    loaded modules), else ``spawn``."""
    if name is None:
        name = "fork" if "fork" in multiprocessing.get_all_start_methods() \
            else "spawn"
    return multiprocessing.get_context(name)


def exp_backoff(base_s: float, attempt: int) -> float:
    """Delay before retry number ``attempt + 1`` (attempt 0 failed)."""
    return base_s * 2 ** attempt


class WorkerDied(Exception):
    """The worker's pipe closed without a payload (EOF)."""


class WorkerHandle:
    """One child process plus the pipe the parent talks to it over.

    ``meta`` is caller-owned context (a task, a shard index, ...).
    ``deadline`` is an absolute ``time.monotonic()`` limit or None;
    :meth:`expired` checks it.  The handle never *polls* liveness by
    itself — combine :func:`wait_workers` (readable pipes) with
    :meth:`recv`'s :class:`WorkerDied` to detect death, exactly like
    the campaign pool does.
    """

    __slots__ = ("proc", "conn", "meta", "deadline", "started")

    def __init__(self, proc, conn, *, meta=None,
                 deadline: Optional[float] = None):
        self.proc = proc
        self.conn = conn
        self.meta = meta
        self.deadline = deadline
        self.started = time.monotonic()

    @classmethod
    def spawn(cls, ctx, target: Callable, args: tuple = (), *, meta=None,
              timeout_s: Optional[float] = None,
              duplex: bool = False) -> "WorkerHandle":
        """Start ``target(child_conn, *args)`` in a child process.

        The child end of the pipe is the target's first argument and is
        closed in the parent, so a dead child reads as EOF here.
        ``duplex=True`` gives a two-way pipe for long-lived workers.
        """
        parent, child = ctx.Pipe(duplex=duplex)
        proc = ctx.Process(target=target, args=(child,) + tuple(args))
        proc.start()
        child.close()
        now = time.monotonic()
        deadline = now + timeout_s if timeout_s is not None else None
        return cls(proc, parent, meta=meta, deadline=deadline)

    # -- talking ------------------------------------------------------------

    def send(self, obj) -> None:
        self.conn.send(obj)

    def recv(self):
        """The next payload; raises :class:`WorkerDied` on EOF."""
        try:
            return self.conn.recv()
        except EOFError:
            raise WorkerDied(
                f"worker pid={self.proc.pid} died without a result") \
                from None

    def readable(self, timeout: float = 0.0) -> bool:
        return self.conn.poll(timeout)

    # -- lifecycle ----------------------------------------------------------

    def alive(self) -> bool:
        return self.proc.is_alive()

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline

    def rearm(self, timeout_s: Optional[float]) -> None:
        """Reset the deadline ``timeout_s`` from now (None disarms)."""
        self.deadline = time.monotonic() + timeout_s \
            if timeout_s is not None else None

    def join(self, timeout: Optional[float] = None) -> None:
        self.proc.join(timeout)

    def terminate(self) -> None:
        """Kill the worker and release the pipe (idempotent)."""
        try:
            self.proc.terminate()
        except Exception:
            pass
        self.proc.join()
        self.close()

    def close(self) -> None:
        try:
            self.conn.close()
        except Exception:
            pass


def wait_workers(handles, timeout: Optional[float] = None) -> list:
    """The handles whose pipe is readable (payload or EOF) within
    ``timeout`` seconds — the select() of the worker plane."""
    handles = list(handles)
    if not handles:
        return []
    ready = _conn_wait([h.conn for h in handles], timeout=timeout)
    return [h for h in handles if h.conn in ready]


# -- the worker side ------------------------------------------------------------------


def serve_requests(conn, handle: Callable, *,
                   last: Callable = lambda request: False) -> None:
    """Body of a long-lived worker: answer requests one at a time.

    Receives a request over ``conn``, sends back ``handle(request)``
    and repeats until the parent closes the pipe (EOF), a reply cannot
    be sent, or ``last(request)`` holds (that request is still
    answered).  ``handle`` owns its error policy: an exception that
    escapes it ends the worker, which the parent sees as a death.
    """
    try:
        while True:
            try:
                request = conn.recv()
            except EOFError:
                return              # the parent went away
            reply = handle(request)
            try:
                conn.send(reply)
            except Exception:
                return
            if last(request):
                return
    finally:
        try:
            conn.close()
        except Exception:
            pass


#: The request that tells a :class:`RetryingTaskPool` worker to exit.
_STOP = None

#: Why an attempt whose worker died (EOF) failed.
_DIED = "worker died without a result"

#: Seconds a stopped pool worker gets to exit before it is terminated.
_STOP_GRACE_S = 2.0


def _pool_worker(conn, entry: Callable) -> None:
    """Pool worker body: run ``(task, attempt)`` requests until told to
    stop, answering ``(True, result)`` or ``(False, reason)``."""

    def run_task(request):
        if request is _STOP:
            return None
        task, attempt = request
        try:
            return True, entry(task, attempt)
        except Exception as exc:
            # the worker stays up; an interrupt or exit ends it instead
            return False, f"{type(exc).__name__}: {exc}"

    serve_requests(conn, run_task, last=lambda request: request is _STOP)


# -- many tasks per worker, with retries ---------------------------------------------


class RetryingTaskPool:
    """Deterministic warm-worker executor with retry/backoff.

    Runs ``entry(task, attempt)`` on at most ``workers`` forked worker
    processes per :meth:`run`; each worker runs task after task, so a
    process is started (and the runner's modules imported) once per
    worker, not once per task.  Each task's deadline is armed when it
    is sent.  An attempt fails when ``entry`` raises (the worker stays
    up), the worker dies (EOF) or outlives the deadline (terminated);
    a fresh worker replaces a dead or terminated one on the next
    launch.  Failed attempts are retried with exponential backoff up
    to ``retries`` times, then reported as exhausted — degradation is
    the caller's policy, never the pool's.  Every worker is stopped
    (or terminated) before :meth:`run` returns or raises;
    :attr:`worker_starts` counts the processes the last call started.

    The caller observes everything through hooks (all optional except
    ``on_success``/``on_exhausted``):

    ``should_skip(task)`` / ``on_skip(task)``
        Checked at launch time; a skipped task consumes no budget.
    ``on_start(task, attempt)``
        An attempt is about to be sent to a worker.
    ``on_success(task, attempt, payload, duration_s)``
        The task's result arrived.
    ``on_retry(task, attempt, reason)``
        The attempt failed and a retry is scheduled.
    ``on_exhausted(task, attempts, reason)``
        The retry budget ran out.

    Task accessors: ``task_order(task)`` must return a unique integer
    giving the deterministic launch order (ties are impossible by
    construction); ``task_timeout(task)`` an optional per-task deadline
    overriding the pool-wide ``timeout_s``.

    ``budget`` bounds how many tasks (successes + exhausted failures,
    launched or in flight) the call may consume — the campaign's
    ``--max-shards`` semantics.
    """

    def __init__(self, entry: Callable, *, workers: int, retries: int = 2,
                 backoff_s: float = 0.25, timeout_s: Optional[float] = None,
                 mp_context: Optional[str] = None, noun: str = "task",
                 task_order: Callable = lambda t: t.flat_index,
                 task_timeout: Callable = lambda t: getattr(
                     t, "timeout_s", None)):
        self.entry = entry
        self.workers = workers
        self.retries = retries
        self.backoff_s = backoff_s
        self.timeout_s = timeout_s
        self.ctx = resolve_mp_context(mp_context)
        self.noun = noun
        self.task_order = task_order
        self.task_timeout = task_timeout
        self.worker_starts = 0

    def _limit(self, task) -> Optional[float]:
        per_task = self.task_timeout(task)
        return per_task if per_task is not None else self.timeout_s

    def _start_worker(self) -> WorkerHandle:
        self.worker_starts += 1
        return WorkerHandle.spawn(self.ctx, _pool_worker, (self.entry,),
                                  duplex=True)

    @staticmethod
    def _stop(handles) -> None:
        """Ask idle workers to exit; terminate any that do not."""
        for handle in handles:
            try:
                handle.send(_STOP)
            except OSError:
                pass            # already gone; terminate() reaps it
        for handle in handles:
            handle.join(_STOP_GRACE_S)
            handle.terminate()

    def run(self, tasks, *, budget: Optional[int] = None,
            should_skip: Callable = lambda task: False,
            on_skip: Callable = lambda task: None,
            on_start: Callable = lambda task, attempt: None,
            on_success: Callable = lambda task, attempt, payload, dur: None,
            on_retry: Callable = lambda task, attempt, reason: None,
            on_exhausted: Callable = lambda task, attempts, reason: None,
            ) -> int:
        """Drive ``tasks`` to completion; returns tasks consumed."""
        # (not_before, order, task, attempt); order keeps heap order
        # total and deterministic
        ready = [(0.0, self.task_order(t), t, 0) for t in tasks]
        heapq.heapify(ready)
        idle: list = []         # live workers waiting for a task
        busy: dict = {}         # task order -> worker running it
        consumed = 0
        self.worker_starts = 0

        def budget_left() -> bool:
            return budget is None or consumed + len(busy) < budget

        def fail_attempt(task, attempt: int, reason: str) -> None:
            nonlocal consumed
            if attempt < self.retries:
                on_retry(task, attempt, reason)
                not_before = time.monotonic() \
                    + exp_backoff(self.backoff_s, attempt)
                heapq.heappush(ready, (not_before, self.task_order(task),
                                       task, attempt + 1))
            else:
                on_exhausted(task, attempt + 1, reason)
                consumed += 1

        try:
            while ready or busy:
                now = time.monotonic()
                # send whatever is due and affordable
                while ready and len(busy) < self.workers \
                        and ready[0][0] <= now:
                    if not budget_left():
                        break
                    _nb, order, task, attempt = heapq.heappop(ready)
                    if should_skip(task):
                        on_skip(task)
                        continue
                    on_start(task, attempt)
                    handle = idle.pop() if idle else self._start_worker()
                    handle.meta = (task, attempt)
                    handle.rearm(self._limit(task))
                    handle.started = time.monotonic()
                    try:
                        handle.send((task, attempt))
                    except OSError:
                        # died while idle: its pipe is already broken
                        handle.terminate()
                        fail_attempt(task, attempt, _DIED)
                        continue
                    busy[order] = handle

                if not busy:
                    if ready and budget_left():
                        # back off until the earliest retry is due
                        time.sleep(min(max(ready[0][0] - time.monotonic(),
                                           0.0), 0.1) or 0.001)
                        continue
                    break   # budget exhausted or nothing left

                timeout = 0.05
                if any(h.deadline is not None for h in busy.values()):
                    soonest = min(h.deadline for h in busy.values()
                                  if h.deadline is not None)
                    timeout = min(timeout,
                                  max(soonest - time.monotonic(), 0.0))
                readable = wait_workers(busy.values(), timeout=timeout)

                now = time.monotonic()
                for order, handle in list(busy.items()):
                    task, attempt = handle.meta
                    if handle in readable:
                        del busy[order]
                        try:
                            ok, payload = handle.recv()
                        except WorkerDied:
                            handle.terminate()
                            ok, payload = False, _DIED
                        else:
                            idle.append(handle)
                        if ok:
                            on_success(task, attempt, payload,
                                       time.monotonic() - handle.started)
                            consumed += 1
                        else:
                            fail_attempt(task, attempt, payload)
                    elif handle.expired(now):
                        del busy[order]
                        handle.terminate()
                        limit = self._limit(task)
                        fail_attempt(task, attempt, f"timeout: {self.noun} "
                                                    f"exceeded {limit:g}s")
        finally:
            for handle in busy.values():
                handle.terminate()
            self._stop(idle)
        return consumed
