"""One BLAS thread pool per solve: numpy's OpenBLAS runs at one thread."""

import importlib
import sys
import threading

import pytest

from mteq import (ConvDiffSpec, SolverConfig, TruncationConfig, _blas, build_convdiff, solve,
                  true_residual)

two_runtimes = pytest.mark.skipif(
    _blas._numpy_pool() is None,
    reason="numpy and scipy do not load two distinct OpenBLAS runtimes here",
)

CFG = SolverConfig(tol=1e-8, maxit=30, truncation=TruncationConfig(maxrank=20))


@pytest.fixture(scope="module")
def eq():
    return build_convdiff(ConvDiffSpec(n=34, eps=0.1))


@pytest.fixture
def numpy_threads():
    """Read numpy's pool; it is at two threads when the test starts."""
    runtime = _blas.RUNTIMES["numpy"]
    if runtime is None:
        pytest.skip("numpy's OpenBLAS is not observable here")
    entry = runtime.get_threads()
    runtime.set_threads(2)
    yield runtime.get_threads
    runtime.set_threads(entry)


def solve_seeing_threads(eq, numpy_threads, **kwargs):
    seen = []
    x, report = solve(eq, CFG, callback=lambda info: seen.append(numpy_threads()), **kwargs)
    return report, seen


@two_runtimes
def test_numpy_runs_one_thread_inside_solve(eq, numpy_threads):
    report, seen = solve_seeing_threads(eq, numpy_threads)
    assert report.converged
    assert seen and set(seen) == {1}
    assert numpy_threads() == 2
    with _blas.single_pool():
        true_residual(eq, solve(eq, CFG)[0])
        assert numpy_threads() == 1  # a nested exit leaves the outer block's pool
    assert numpy_threads() == 2


@two_runtimes
def test_entry_count_restored_after_a_raising_solve(eq, numpy_threads):
    def fail(info):
        assert numpy_threads() == 1
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError, match="stop"):
        solve(eq, CFG, callback=fail)
    assert numpy_threads() == 2


@two_runtimes
def test_concurrent_solves_restore_when_the_last_exits(eq, numpy_threads):
    both_inside = threading.Barrier(2, timeout=60)
    first_done = threading.Event()
    seen = {"first": [], "second": []}
    errors = []

    def run(name):
        def callback(info):
            if info.k == 0:
                both_inside.wait()
                if name == "second":
                    # Still inside after the other solve has returned.
                    assert first_done.wait(timeout=60)
            seen[name].append(numpy_threads())

        try:
            solve(eq, CFG, callback=callback)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)
        if name == "first":
            first_done.set()

    threads = [threading.Thread(target=run, args=(name,)) for name in seen]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert set(seen["first"]) == set(seen["second"]) == {1}
    assert numpy_threads() == 2


@two_runtimes
def test_many_threads_entering_and_leaving_keep_the_count(numpy_threads):
    interval = sys.getswitchinterval()
    bad = []

    def churn():
        for _ in range(2000):
            with _blas.single_pool():
                if numpy_threads() != 1:
                    bad.append(numpy_threads())

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad
    assert numpy_threads() == 2


def test_without_a_runtime_the_pool_is_left_alone(eq, numpy_threads, monkeypatch):
    report, _ = solve_seeing_threads(eq, numpy_threads)
    monkeypatch.setitem(_blas.RUNTIMES, "numpy", None)
    plain, seen = solve_seeing_threads(eq, numpy_threads)
    assert set(seen) == {2}
    assert (plain.iterations, plain.ranks) == (report.iterations, report.ranks)


def test_import_changes_no_thread_count(numpy_threads):
    before = _blas.describe()
    importlib.reload(_blas)  # runs the runtime lookup again
    assert _blas.describe() == before
