"""Tests for the executor protocol and its two local transports.

The protocol contract under test: an executor accepts Job submissions,
yields Completion events in *any* order, names the worker behind each
one, and reports worker loss as a ``worker_lost`` completion (never an
exception, never silence).  Everything above — ordering, retry, digest
identity — is the coordinator's job and tested separately.
"""

import pickle

import pytest

from repro.errors import DCudaUsageError, DCudaWorkerError
from repro.exec.executors import (
    EXECUTOR_NAMES,
    Completion,
    Job,
    LocalPoolExecutor,
    SerialExecutor,
    _execute_in_worker,
    build_executor,
)


def _drain(executor, count, timeout=60.0):
    """Collect *count* completions from *executor* (order-insensitive)."""
    out = []
    while len(out) < count:
        comp = executor.next_completion(timeout=timeout)
        assert comp is not None, f"drained only {len(out)}/{count}"
        out.append(comp)
    return out


def _echo_jobs(n):
    return [Job(job_id=i, entrypoint="selftest_point",
                params={"token": i}, label=f"echo-{i}") for i in range(n)]


class TestBuildExecutor:
    def test_names_round_trip(self):
        assert build_executor("serial").name == "serial"
        assert build_executor("local", workers=2).name == "local"

    def test_unknown_name_rejected(self):
        with pytest.raises(DCudaUsageError, match="unknown executor"):
            build_executor("carrier-pigeon")

    def test_names_constant_is_complete(self):
        assert EXECUTOR_NAMES == ("serial", "local")


class TestSerialExecutor:
    def test_jobs_run_lazily_in_order(self):
        ex = SerialExecutor()
        ex.start({}, expected_jobs=3)
        for job in _echo_jobs(3):
            ex.submit(job)
        comps = _drain(ex, 3)
        assert [c.job_id for c in comps] == [0, 1, 2]
        assert all(c.ok and c.worker == "serial" for c in comps)
        assert comps[1].value["token"] == 1
        ex.stop()

    def test_exceptions_propagate_raw(self):
        ex = SerialExecutor()
        ex.start({})
        ex.submit(Job(0, "selftest_point",
                      {"mode": "raise", "message": "bang"}))
        with pytest.raises(RuntimeError, match="bang"):
            ex.next_completion()
        ex.stop()

    def test_not_preemptive(self):
        assert SerialExecutor.preemptive is False


class TestLocalPoolPythonPathHygiene:
    def test_double_stop_preserves_callers_pythonpath(self, monkeypatch):
        """stop() must only undo its *own* PYTHONPATH edit: a second
        stop() (the coordinator and a context manager can both call it)
        or a stop() without start() must not delete the caller's
        value."""
        monkeypatch.setenv("PYTHONPATH", "caller-value")
        import os

        ex = LocalPoolExecutor(workers=1)
        ex.stop()  # never started: environment untouched
        assert os.environ["PYTHONPATH"] == "caller-value"
        ex2 = LocalPoolExecutor(workers=1)
        ex2.start({}, expected_jobs=1)
        ex2.stop()
        assert os.environ["PYTHONPATH"] == "caller-value"
        ex2.stop()  # idempotent
        assert os.environ["PYTHONPATH"] == "caller-value"


@pytest.mark.slow
class TestLocalPoolExecutor:
    def test_completes_all_jobs(self):
        with LocalPoolExecutor(workers=2) as ex:
            ex.start({"payload": "p"}, expected_jobs=4)
            for job in _echo_jobs(4):
                ex.submit(job)
            comps = _drain(ex, 4)
        assert sorted(c.job_id for c in comps) == [0, 1, 2, 3]
        for c in comps:
            assert c.ok and c.value["payload"] == ["payload"]
            assert c.worker.startswith("pool-gen")

    def test_task_exception_is_typed_completion(self):
        with LocalPoolExecutor(workers=1) as ex:
            ex.start({}, expected_jobs=1)
            ex.submit(Job(0, "selftest_point",
                          {"mode": "raise", "message": "pow"}, "boomtask"))
            (comp,) = _drain(ex, 1)
        assert not comp.ok and not comp.worker_lost
        assert isinstance(comp.error, DCudaWorkerError)
        assert "pow" in str(comp.error)

    def test_worker_death_is_worker_lost_and_pool_recovers(self):
        with LocalPoolExecutor(workers=1) as ex:
            ex.start({}, expected_jobs=2)
            ex.submit(Job(0, "selftest_point", {"mode": "exit"}, "killer"))
            (lost,) = _drain(ex, 1)
            assert lost.worker_lost and not lost.ok
            gen_before = lost.worker
            # The next submit must rebuild the pool (a fresh generation).
            ex.submit(Job(1, "selftest_point", {"token": "after"}))
            (ok,) = _drain(ex, 1)
        assert ok.ok and ok.value["token"] == "after"
        assert ok.worker != gen_before  # distinct worker identity


class TestWorkerPayload:
    """The pool's task body: every outcome must cross the pipe typed."""

    def _run(self, entrypoint="selftest_point", **params):
        return _execute_in_worker(entrypoint, params, "t")

    def test_success_frame(self):
        assert self._run(token="x")["token"] == "x"

    def test_untyped_exception_wrapped_with_traceback(self):
        with pytest.raises(DCudaWorkerError) as exc_info:
            self._run(mode="raise", message="deep")
        assert "deep" in str(exc_info.value)
        assert "Traceback" in str(exc_info.value)

    def test_typed_error_passes_through(self):
        with pytest.raises(DCudaUsageError):
            self._run("no_such_point")

    def test_frame_is_picklable_even_for_weird_errors(self):
        with pytest.raises(DCudaWorkerError) as exc_info:
            self._run(mode="raise", message="x")
        again = pickle.loads(pickle.dumps(exc_info.value))
        assert str(again) == str(exc_info.value)


def test_completion_shapes():
    ok = Completion(1, ok=True, value=3, worker="w")
    lost = Completion(2, worker="w", worker_lost=True)
    assert ok.ok and not ok.worker_lost
    assert not lost.ok and lost.worker_lost and lost.error is None


@pytest.mark.parametrize("surface", ["run_specs", "env", "exec-cli",
                                     "faults-cli"])
@pytest.mark.parametrize("name", ["subprocess", "http"])
def test_removed_transports_rejected(name, surface, monkeypatch):
    """The retired remote transports fail typed on every surface: a
    usage error naming the two local transports from the library, exit
    status 2 from the command lines."""
    from repro.exec import RunSpec, run_specs

    specs = [RunSpec("selftest_point", {"token": 0})]
    if surface in ("run_specs", "env"):
        if surface == "env":
            monkeypatch.setenv("REPRO_EXEC_EXECUTOR", name)
            kwargs = {}
        else:
            kwargs = {"executor": name}
        with pytest.raises(DCudaUsageError, match="serial, local"):
            run_specs(specs, **kwargs)
        return
    if surface == "exec-cli":
        from repro.exec.__main__ import main
        argv = ["run", "fig6", "--executor", name]
    else:
        from repro.faults.__main__ import main
        argv = ["report", "--executor", name]
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
