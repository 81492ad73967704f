"""Tests for ``repro.checks.lockdep`` — the runtime lock-order sanitizer.

The static rules prove ordering over the code; these tests prove the
dynamic half: a synthetic two-lock inversion is caught deterministically
(on the first inverted *attempt*, no unlucky interleaving needed), clean
runs stay silent, fork-while-held is recorded, and the wrapper is a
faithful stand-in for the primitive it instruments.
"""

import threading

import pytest

from repro.checks import lockdep
from repro.checks.lockdep import (
    ENV_FLAG,
    LockDep,
    LockOrderError,
    SanitizedLock,
    enabled,
    resolve,
    wrap,
)
from repro.dataset.table import Column, Table

pytestmark = pytest.mark.checks


def _column(values):
    return Table([Column.numeric("x", [float(v) for v in values])])


def _absolute(chunk):
    return [abs(x) for x in chunk["x"]]


def _pair(dep):
    a = SanitizedLock(threading.Lock(), "a", dep)
    b = SanitizedLock(threading.Lock(), "b", dep)
    return a, b


class TestInversionDetection:
    def test_two_lock_inversion_raises_deterministically(self):
        dep = LockDep("test")
        a, b = _pair(dep)
        with a:
            with b:  # establishes a -> b
                pass
        with b:
            with pytest.raises(LockOrderError, match="inversion"):
                with a:  # b -> a closes the cycle: caught on attempt one
                    pass

    def test_inversion_detected_across_threads(self):
        # thread 1 teaches the graph a -> b; the observing thread then
        # attempts b -> a and is caught even though IT never held a first
        dep = LockDep("test")
        a, b = _pair(dep)

        def teach():
            with a:
                with b:
                    pass

        teacher = threading.Thread(target=teach)
        teacher.start()
        teacher.join()
        with b:
            with pytest.raises(LockOrderError):
                a.acquire()

    def test_no_inversion_run_is_silent(self):
        dep = LockDep("test")
        a, b = _pair(dep)
        for __ in range(100):  # same order every time: never raises
            with a:
                with b:
                    pass
        assert dep.violations == []
        assert dep.n_acquires == 200
        assert ("a", "b") in dep.edges
        assert ("b", "a") not in dep.edges

    def test_three_lock_transitive_inversion(self):
        dep = LockDep("test")
        a = SanitizedLock(threading.Lock(), "a", dep)
        b = SanitizedLock(threading.Lock(), "b", dep)
        c = SanitizedLock(threading.Lock(), "c", dep)
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:  # c -> a inverts through the a->b->c chain
            with pytest.raises(LockOrderError):
                a.acquire()

    def test_failed_acquire_holds_nothing(self):
        dep = LockDep("test")
        inner = threading.Lock()
        lock = SanitizedLock(inner, "a", dep)
        inner.acquire()  # wedge the primitive
        assert lock.acquire(blocking=False) is False
        assert dep.held() == ()
        inner.release()

    def test_release_order_is_free(self):
        # holding a,b and releasing a first must not corrupt the stack
        dep = LockDep("test")
        a, b = _pair(dep)
        a.acquire()
        b.acquire()
        a.release()
        assert dep.held() == ("b",)
        b.release()
        assert dep.held() == ()


class TestForkCheck:
    def test_fork_while_held_records_and_raises(self):
        # os.register_at_fork swallows hook exceptions, so the hook is
        # exercised directly: it must BOTH record and raise
        dep = LockDep("test")
        a, __ = _pair(dep)
        a.acquire()
        try:
            with pytest.raises(LockOrderError, match="fork"):
                dep._before_fork()
            assert len(dep.violations) == 1
            assert "'a'" in dep.violations[0]
            with pytest.raises(LockOrderError):
                dep.assert_clean()
        finally:
            a.release()

    def test_fork_with_nothing_held_is_silent(self):
        dep = LockDep("test")
        dep._before_fork()
        assert dep.violations == []
        dep.assert_clean()

    def test_parallel_map_refuses_to_fork_under_lock(self, monkeypatch):
        from repro.perf.parallel import ParallelMap

        monkeypatch.setenv(ENV_FLAG, "1")
        dep = resolve(None)
        lock = wrap(threading.Lock(), "parent.lock", dep)
        pm = ParallelMap(n_jobs=2, min_parallel_items=1)
        before = len(dep.violations)
        with lock:
            with pytest.raises(LockOrderError, match="pool spawn"):
                pm.map_table(_absolute, _column(range(64)))
        assert len(dep.violations) == before + 1
        assert pm.shm_bytes == 0  # refused before any segment was made

    def test_parallel_map_forks_fine_with_no_lock_held(self, monkeypatch):
        from repro.perf.parallel import ParallelMap

        monkeypatch.setenv(ENV_FLAG, "1")
        pm = ParallelMap(n_jobs=2, min_parallel_items=1)
        assert pm.map_table(_absolute, _column([-3, -2, -1])) == [3, 2, 1]


class TestWrapperFidelity:
    def test_wrap_without_dep_returns_the_primitive(self):
        primitive = threading.Lock()
        assert wrap(primitive, "x", None) is primitive

    def test_semaphore_timeout_signature_passes_through(self):
        dep = LockDep("test")
        sem = SanitizedLock(threading.BoundedSemaphore(1), "sem", dep)
        assert sem.acquire(timeout=0.01) is True
        assert sem.acquire(timeout=0.01) is False  # exhausted, not held
        assert dep.held() == ("sem",)
        sem.release()
        assert dep.held() == ()

    def test_locked_and_getattr_forward(self):
        dep = LockDep("test")
        lock = SanitizedLock(threading.Lock(), "x", dep)
        assert lock.locked() is False
        with lock:
            assert lock.locked() is True

    def test_reacquiring_same_wrapper_is_not_an_inversion(self):
        # an RLock re-entered through its own wrapper must not trip the
        # order check (self-edges are the static rule's concern)
        dep = LockDep("test")
        rlock = SanitizedLock(threading.RLock(), "r", dep)
        with rlock:
            with rlock:
                pass
        assert dep.violations == []


class TestResolution:
    def test_explicit_dep_wins(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        dep = LockDep("mine")
        assert resolve(dep) is dep
        assert resolve(None) is None
        assert not enabled()

    def test_env_flag_arms_the_default(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        assert enabled()
        assert resolve(None) is lockdep.DEFAULT
        monkeypatch.setenv(ENV_FLAG, "0")
        assert not enabled()
        assert resolve(None) is None

    def test_store_constructs_sanitized_locks_under_env(self, monkeypatch):
        from repro.serving.store import ArtifactStore

        monkeypatch.setenv(ENV_FLAG, "1")
        store = ArtifactStore("v1", {"/x": ("text/plain", lambda: "hi")})
        assert isinstance(store._meta, SanitizedLock)
        assert store.get("/x").body == b"hi"

    def test_store_locks_stay_raw_by_default(self, monkeypatch):
        from repro.serving.store import ArtifactStore

        monkeypatch.delenv(ENV_FLAG, raising=False)
        store = ArtifactStore("v1", {"/x": ("text/plain", lambda: "hi")})
        assert not isinstance(store._meta, SanitizedLock)
