"""Sweep executors: one protocol, two local transports.

The sweep engine splits *what to run* (the coordinator,
:mod:`repro.exec.coordinator`) from *where it runs* (this module).  An
:class:`Executor` accepts :class:`Job` submissions and yields
:class:`Completion` events; everything else — ordering, caching, dedup,
retry — lives above the protocol, so every transport inherits the
bit-identity guarantee for free: results are merged by submission index
upstream, and an executor only ever influences *when* a completion
arrives, never *what* it contains.

Transports:

* :class:`SerialExecutor` — in-process, lazy execution at drain time;
  task exceptions propagate raw (the debugging-friendly historical
  behaviour of serial sweeps).
* :class:`LocalPoolExecutor` — the spawn process pool extracted verbatim
  from the PR 4 engine: fresh interpreters, shared payload shipped once
  via the pool initializer, untyped task exceptions wrapped in
  :class:`~repro.errors.DCudaWorkerError` on the worker side.  A broken
  pool is rebuilt on the next submit, so the coordinator can re-dispatch
  after worker loss.

Worker identity: every :class:`Completion` names the worker that
produced (or died under) it.  The coordinator uses those names to
enforce the poisoned-spec rule — a spec that takes down *distinct*
workers on every attempt is quarantined instead of re-dispatched
forever.
"""

from __future__ import annotations

import abc
import concurrent.futures
import os
import pickle
import queue
import threading
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from ..errors import DCudaUsageError, DCudaWorkerError
from .spec import resolve_entrypoint

__all__ = [
    "Job",
    "Completion",
    "Executor",
    "SerialExecutor",
    "LocalPoolExecutor",
    "build_executor",
    "EXECUTOR_NAMES",
]

#: Names accepted by :func:`build_executor` (and the CLIs' ``--executor``).
EXECUTOR_NAMES = ("serial", "local")


@dataclass(frozen=True)
class Job:
    """One unit of executor work: a spec flattened to wire-friendly data.

    Args:
        job_id: Coordinator-assigned identity; echoed in the completion.
        entrypoint: Registered entrypoint name (:mod:`repro.exec.spec`).
        params: Picklable entrypoint parameters.
        label: Human-readable identity for progress and error messages.
    """

    job_id: int
    entrypoint: str
    params: Mapping[str, Any]
    label: str = ""


@dataclass
class Completion:
    """Outcome of one :class:`Job` attempt on one worker.

    Exactly one of three shapes: success (``ok=True``, ``value`` set),
    task failure (``error`` carries a typed
    :class:`~repro.errors.DCudaError`), or worker loss
    (``worker_lost=True`` — the job did *not* run to completion and may
    be re-dispatched).
    """

    job_id: int
    ok: bool = False
    value: Any = None
    error: Optional[BaseException] = None
    worker: str = ""
    worker_lost: bool = False


class Executor(abc.ABC):
    """The executor protocol every transport implements.

    Lifecycle: :meth:`start` once (with the shared payload), any number
    of :meth:`submit` / :meth:`next_completion` interleavings, then
    :meth:`stop`.  Implementations are thread-safe for one submitting
    thread plus internal harvester threads.

    Attributes:
        name: Transport name recorded in :class:`~repro.exec.engine.
            SweepReport` and progress events.
        preemptive: Whether the transport can abandon a running task
            (process kill).  The coordinator only enforces per-task
            timeouts on preemptive executors — serial execution cannot
            be interrupted, matching the historical engine contract.
    """

    name = "?"
    preemptive = True

    @abc.abstractmethod
    def start(self, shared: Mapping[str, Any],
              expected_jobs: Optional[int] = None) -> None:
        """Provision workers and ship them the shared payload once."""

    @abc.abstractmethod
    def submit(self, job: Job) -> None:
        """Enqueue *job* for execution on any available worker."""

    @abc.abstractmethod
    def next_completion(self, timeout: Optional[float] = None
                        ) -> Optional[Completion]:
        """Block for the next completion; ``None`` when *timeout* expires."""

    @abc.abstractmethod
    def stop(self, force: bool = False) -> None:
        """Tear down workers (``force`` kills instead of draining)."""

    def alive_workers(self) -> int:
        """Workers currently able to take jobs."""
        return 1

    def worker_pids(self) -> List[int]:
        """PIDs of live worker processes (empty when not applicable).

        Exists for the worker-loss chaos harness: tests kill real
        workers mid-campaign and assert the merged digest is unchanged.
        """
        return []

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.stop(force=True)


# --------------------------------------------------------------- serial -----
class SerialExecutor(Executor):
    """In-process execution, one job at a time, at drain time.

    Jobs queue up on :meth:`submit` and run inside
    :meth:`next_completion` — keeping the protocol uniform while
    preserving the historical serial semantics: exceptions (typed or
    not) propagate raw to the caller, with a full in-process traceback.
    """

    name = "serial"
    preemptive = False

    def __init__(self):
        self._pending: List[Job] = []
        self._shared: Mapping[str, Any] = {}

    def start(self, shared, expected_jobs=None):
        self._shared = dict(shared or {})

    def submit(self, job):
        self._pending.append(job)

    def next_completion(self, timeout=None):
        if not self._pending:
            return None
        job = self._pending.pop(0)
        fn = resolve_entrypoint(job.entrypoint)
        value = fn(dict(job.params), self._shared)
        return Completion(job.job_id, ok=True, value=value, worker="serial")

    def stop(self, force=False):
        self._pending.clear()


# ----------------------------------------------------------- local pool -----
_SHARED: Dict[str, Any] = {}


def _worker_init(shared_blob: bytes) -> None:
    """Pool initializer: install the shared payload, load the registry."""
    global _SHARED
    _SHARED = pickle.loads(shared_blob)
    from . import points  # noqa: F401  (registers all entrypoints)


def _execute_in_worker(entrypoint_name: str, params: Mapping[str, Any],
                       label: str) -> Any:
    """Top-level task body run inside a spawned worker process.

    Wraps untyped exceptions in :class:`DCudaWorkerError` (typed dCUDA
    errors pass through) so the parent always sees the typed surface and
    never an unpicklable or anonymous failure.
    """
    from ..errors import DCudaError

    fn = resolve_entrypoint(entrypoint_name)
    try:
        return fn(dict(params), _SHARED)
    except DCudaError:
        raise
    except Exception:
        raise DCudaWorkerError(
            f"task {label!r} ({entrypoint_name}) failed:\n"
            + traceback.format_exc()) from None


def _ensure_child_import_path():
    """Make sure spawned interpreters can ``import repro``.

    Returns the previous ``PYTHONPATH`` value (or ``None``) so the
    caller can restore it after the pool is done.
    """
    import repro

    pkg_parent = str(os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__))))
    prev = os.environ.get("PYTHONPATH")
    parts = prev.split(os.pathsep) if prev else []
    if pkg_parent not in parts:
        os.environ["PYTHONPATH"] = (
            pkg_parent + ((os.pathsep + prev) if prev else ""))
    return prev


def _restore_pythonpath(prev) -> None:
    if prev is None:
        os.environ.pop("PYTHONPATH", None)
    else:
        os.environ["PYTHONPATH"] = prev


class LocalPoolExecutor(Executor):
    """Spawn process pool — the PR 4 engine's pool behind the protocol.

    Crash isolation is pool-generation based: a worker death breaks the
    whole :class:`concurrent.futures.ProcessPoolExecutor`, so every
    in-flight job surfaces as a ``worker_lost`` completion attributed to
    the current pool generation, and the next :meth:`submit` builds a
    fresh pool (a new generation = a new worker identity for the
    coordinator's distinct-worker quarantine rule).

    Args:
        workers: Pool size (capped at the expected job count on start).
    """

    name = "local"

    def __init__(self, workers: int = 2):
        self.workers = max(1, int(workers))
        self._pool = None
        self._generation = 0
        self._completions: "queue.Queue[Completion]" = queue.Queue()
        self._shared_blob = pickle.dumps({},
                                         protocol=pickle.HIGHEST_PROTOCOL)
        self._prev_path = None
        self._path_saved = False
        self._max_workers = self.workers
        self._lock = threading.Lock()
        self._stopped = False

    def start(self, shared, expected_jobs=None):
        self._shared_blob = pickle.dumps(dict(shared or {}),
                                         protocol=pickle.HIGHEST_PROTOCOL)
        self._max_workers = (min(self.workers, expected_jobs)
                             if expected_jobs else self.workers)
        self._max_workers = max(1, self._max_workers)
        self._prev_path = _ensure_child_import_path()
        self._path_saved = True
        self._build_pool()

    def _build_pool(self):
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        self._generation += 1
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self._max_workers, mp_context=ctx,
            initializer=_worker_init, initargs=(self._shared_blob,))

    def submit(self, job):
        from ..errors import DCudaError

        with self._lock:
            if self._pool is None:
                self._build_pool()
            gen = self._generation
            try:
                fut = self._pool.submit(_execute_in_worker, job.entrypoint,
                                        dict(job.params), job.label)
            except Exception:
                # Pool already broken/shut down: rebuild once and retry.
                self._teardown_pool()
                self._build_pool()
                gen = self._generation
                fut = self._pool.submit(_execute_in_worker, job.entrypoint,
                                        dict(job.params), job.label)

        worker = f"pool-gen{gen}"

        def _harvest(f):
            if self._stopped:
                return
            if f.cancelled():
                # A queued task cancelled by a pool teardown never ran:
                # report it as worker loss so the coordinator re-dispatches
                # instead of waiting forever.
                self._completions.put(Completion(
                    job.job_id, worker=worker, worker_lost=True))
                return
            try:
                value = f.result()
            except concurrent.futures.process.BrokenProcessPool:
                with self._lock:
                    if self._generation == gen:
                        self._teardown_pool()
                self._completions.put(Completion(
                    job.job_id, worker=worker, worker_lost=True))
            except DCudaError as exc:
                self._completions.put(Completion(
                    job.job_id, error=exc, worker=worker))
            except BaseException as exc:  # pickling surprises, cancels
                self._completions.put(Completion(
                    job.job_id,
                    error=DCudaWorkerError(
                        f"task {job.label!r} failed in the pool: {exc!r}"),
                    worker=worker))
            else:
                self._completions.put(Completion(
                    job.job_id, ok=True, value=value, worker=worker))

        fut.add_done_callback(_harvest)

    def _teardown_pool(self):
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            procs = getattr(self._pool, "_processes", None) or {}
            for proc in list(procs.values()):
                try:
                    proc.terminate()
                except OSError:
                    pass
            self._pool = None

    def next_completion(self, timeout=None):
        try:
            return self._completions.get(timeout=timeout)
        except queue.Empty:
            return None

    def alive_workers(self):
        return self._max_workers if not self._stopped else 0

    def worker_pids(self):
        with self._lock:
            if self._pool is None:
                return []
            procs = getattr(self._pool, "_processes", None) or {}
            return [p.pid for p in procs.values()]

    def stop(self, force=False):
        self._stopped = True
        with self._lock:
            self._teardown_pool()
        # Restore PYTHONPATH only if *this* executor's start() changed
        # it — keying off os.environ instead would make a second stop()
        # (or a stop() without start()) delete the caller's own value.
        if self._path_saved:
            _restore_pythonpath(self._prev_path)
            self._prev_path = None
            self._path_saved = False


def build_executor(name: str, *, workers: int = 2) -> Executor:
    """Construct an executor by transport name (the CLI surface).

    Args:
        name: One of :data:`EXECUTOR_NAMES`.
        workers: Pool size for ``local``.

    Raises:
        DCudaUsageError: Unknown name.
    """
    if name == "serial":
        return SerialExecutor()
    if name == "local":
        return LocalPoolExecutor(workers=workers)
    raise DCudaUsageError(
        f"unknown executor {name!r}; available: "
        f"{', '.join(EXECUTOR_NAMES)}")
