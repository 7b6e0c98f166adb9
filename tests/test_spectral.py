import dataclasses
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bncheck
from bncheck import (
    CapacityError,
    ConvergenceError,
    GnpParams,
    Graph,
    sample_gnp,
    top_two,
)
from bncheck.spectral import (
    DEFAULT_TOL,
    DENSE_LIMIT,
    MATVEC_CAP_FACTOR,
    CsrPattern,
    _one_blas_thread,
    _openblas,
    _top_tridiagonal_pair,
    _top_two_iterative,
    adjacency_matrix,
)
from reference import full_spectrum, make_named
from strategies import symmetric_matrices


def cycle_eigenvalues(n):
    """2 cos(2 pi k / n), k = 0..n-1, the circulant closed form."""
    return sorted((2.0 * math.cos(2.0 * math.pi * k / n) for k in range(n)), reverse=True)


def iterative(g):
    """The Lanczos route, forced below DENSE_LIMIT, at its default budget."""
    return _top_two_iterative(g, DEFAULT_TOL, MATVEC_CAP_FACTOR * g.n)


def path_eigenvalues(n):
    """2 cos(pi k / (n+1)), k = 1..n."""
    return sorted((2.0 * math.cos(math.pi * k / (n + 1)) for k in range(1, n + 1)), reverse=True)


def test_full_spectrum_empty():
    assert full_spectrum(make_named("empty", 4)) == [0.0, 0.0, 0.0, 0.0]


def test_full_spectrum_k4():
    w = full_spectrum(make_named("complete", 4))
    assert np.allclose(w, [3, -1, -1, -1], atol=1e-12)


def test_full_spectrum_p3():
    w = full_spectrum(make_named("path", 3))
    assert np.allclose(w, [math.sqrt(2), 0.0, -math.sqrt(2)], atol=1e-12)
    assert np.allclose(w, path_eigenvalues(3), atol=1e-12)


def test_full_spectrum_c5():
    w = full_spectrum(make_named("cycle", 5))
    assert np.allclose(w, cycle_eigenvalues(5), atol=1e-12)
    assert abs(w[1] - 0.618034) < 1e-6 and abs(w[3] + 1.618034) < 1e-6


def test_full_spectrum_is_descending_and_consistent():
    for seed in range(10):
        g = sample_gnp(GnpParams(30, 0.4, seed=seed))
        w = full_spectrum(g)
        assert w == sorted(w, reverse=True)
        assert abs(sum(w)) <= 1e-8  # zero trace
        assert abs(sum(x * x for x in w) - 2 * g.edge_count) <= 1e-6 * max(1, 2 * g.edge_count)


def test_full_spectrum_capacity():
    with pytest.raises(CapacityError):
        full_spectrum(make_named("empty", DENSE_LIMIT + 1))


def test_top_two_requires_two_vertices():
    with pytest.raises(ValueError):
        top_two(make_named("empty", 1))


def test_top_two_known_graphs():
    s = top_two(make_named("complete", 6))
    assert abs(s.lambda1 - 5) < 1e-9 and abs(s.lambda2 + 1) < 1e-9
    s = top_two(make_named("complete_bipartite", 6, a=3, b=3))
    assert abs(s.lambda1 - 3) < 1e-9 and abs(s.lambda2) < 1e-9
    s = top_two(make_named("cycle", 5))
    assert abs(s.lambda1 - 2) < 1e-9
    assert abs(s.lambda2 - 2 * math.cos(2 * math.pi / 5)) < 1e-9


def test_top_two_matches_full_spectrum_dense():
    for seed in range(10):
        g = sample_gnp(GnpParams(40, 0.5, seed=seed))
        s = top_two(g)
        w = full_spectrum(g)
        assert s.method == "dense"
        assert abs(s.lambda1 - w[0]) <= 1e-9
        assert abs(s.lambda2 - w[1]) <= 1e-9


def two_disjoint_k4():
    return Graph.from_edges(8, [(b + i, b + j) for b in (0, 4) for i in range(4)
                                for j in range(i + 1, 4)])


@st.composite
def dense_route_graphs(draw):
    """G(n, p) with n <= 120, or an edgeless graph, K_n or a star."""
    n = draw(st.integers(2, 120))
    kind = draw(st.sampled_from(["gnp", "empty", "complete", "star"]))
    if kind == "gnp":
        p = draw(st.floats(0.0, 1.0))
        return sample_gnp(GnpParams(n, p, seed=draw(st.integers(0, 2**63 - 1))))
    if kind == "star":
        return make_named("complete_bipartite", n, a=1, b=n - 1)
    return make_named(kind, n)


@settings(max_examples=80, deadline=None)
@given(dense_route_graphs())
@example(make_named("empty", 2))
@example(make_named("complete", 2))
@example(two_disjoint_k4())  # lambda1 = lambda2 = 3, a repeated top eigenvalue
@example(make_named("complete", 31))  # dsyevr returns no pair here
def test_dense_top_two_matches_eigvalsh(g):
    w = np.linalg.eigvalsh(g.matrix.astype(np.float64))
    s = top_two(g)
    tol = 1e-9 * max(1.0, w[-1])
    assert s.method == "dense"
    assert abs(s.lambda1 - w[-1]) <= tol and abs(s.lambda2 - w[-2]) <= tol
    assert max(s.residual1, s.residual2) <= DEFAULT_TOL * max(1.0, s.lambda1)


@pytest.mark.parametrize("n", [2, 3, 9])
def test_edgeless_graphs_give_positive_zero(n):
    # a -0.0 would reach trials.csv as "-0.0"
    s = top_two(make_named("empty", n))
    assert (repr(s.lambda1), repr(s.lambda2)) == ("0.0", "0.0")


def test_residual_certificates():
    for seed in range(5):
        g = sample_gnp(GnpParams(50, 0.3, seed=seed))
        s = top_two(g)
        bound = 1e-9 * max(1.0, s.lambda1)
        assert 0 <= s.residual1 <= bound
        assert 0 <= s.residual2 <= bound
        assert s.lambda1 >= s.lambda2


def test_lambda1_bounds():
    # 2e/n <= lambda1 <= n-1; lambda1 >= 1 whenever there is an edge
    for seed in range(10):
        g = sample_gnp(GnpParams(25, 0.2, seed=seed))
        s = top_two(g)
        assert s.lambda1 >= 2 * g.edge_count / g.n - 1e-9
        assert s.lambda1 <= g.n - 1 + 1e-9
        if g.edge_count >= 1:
            assert s.lambda1 >= 1 - 1e-9


def test_iterative_matches_dense():
    # spec-level consistency sweep: 50 random graphs, 64 <= n <= 256
    rng = random.Random(314)
    for _ in range(50):
        n = rng.randint(64, 256)
        p = rng.uniform(0.1, 0.8)
        g = sample_gnp(GnpParams(n, p, seed=rng.getrandbits(63)))
        dense = top_two(g)
        it = iterative(g)
        assert it.method == "iterative"
        assert abs(it.lambda1 - dense.lambda1) <= 1e-7
        assert abs(it.lambda2 - dense.lambda2) <= 1e-7
        assert it.residual1 <= 1e-9 * max(1.0, it.lambda1)
        assert it.residual2 <= 1e-9 * max(1.0, it.lambda1)


def test_iterative_handles_ties_and_degenerate_graphs():
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    s = iterative(two_triangles)
    assert abs(s.lambda1 - 2) < 1e-8 and abs(s.lambda2 - 2) < 1e-8
    s = iterative(make_named("empty", 30))
    assert abs(s.lambda1) < 1e-9 and abs(s.lambda2) < 1e-9
    s = iterative(make_named("complete", 30))
    assert abs(s.lambda1 - 29) < 1e-7 and abs(s.lambda2 + 1) < 1e-7
    s = iterative(make_named("complete_bipartite", 40, a=20, b=20))
    assert abs(s.lambda1 - 20) < 1e-7 and abs(s.lambda2) < 1e-7


def test_iterative_kicks_in_past_default_dense_limit():
    # n just over DENSE_LIMIT takes the Lanczos route, sparse or dense
    n = 2100
    for p in (0.02, 0.5):
        g = sample_gnp(GnpParams(n, p, seed=60))
        s = top_two(g)
        assert s.method == "iterative"
        assert s.residual1 <= 1e-9 * max(1.0, s.lambda1)
        assert s.residual2 <= 1e-9 * max(1.0, s.lambda1)
        assert s.lambda2 <= s.lambda1 <= n - 1
        assert s.lambda1 >= 2 * g.edge_count / n - 1e-9
        assert abs(s.lambda1 - p * n) <= 0.15 * p * n  # tracks the p*n growth law


def test_iterative_budget_exhaustion():
    g = sample_gnp(GnpParams(60, 0.5, seed=4))
    with pytest.raises(ConvergenceError) as info:
        _top_two_iterative(g, DEFAULT_TOL, 2)
    assert info.value.best_residual > 0


def test_petersen_spectrum(petersen):
    # {3, 1 (x5), -2 (x4)}
    w = full_spectrum(petersen)
    expected = [3.0] + [1.0] * 5 + [-2.0] * 4
    assert np.allclose(w, expected, atol=1e-9)
    s = top_two(petersen)
    assert abs(s.lambda1 - 3) < 1e-9 and abs(s.lambda2 - 1) < 1e-9


def test_adjacency_matrix_round_trip():
    g = sample_gnp(GnpParams(33, 0.5, seed=11))
    a = adjacency_matrix(g)
    assert a.shape == (33, 33)
    assert a.sum() == 2 * g.edge_count
    for i, j in g.edges():
        assert a[i, j] == 1.0 and a[j, i] == 1.0
    csr = adjacency_matrix(g, sparse=True)
    assert isinstance(csr, CsrPattern)
    assert csr.indptr.dtype == csr.indices.dtype == np.int32 and len(csr.indptr) == 34
    rows = np.repeat(np.arange(33), np.diff(csr.indptr))
    dense = np.zeros((33, 33))
    dense[rows, csr.indices] = 1.0
    assert np.array_equal(dense, a)
    assert all((np.diff(csr.indices[lo:hi]) > 0).all() for lo, hi in zip(csr.indptr, csr.indptr[1:]))
    x = np.arange(33.0)
    assert np.array_equal(csr @ x, a @ x)
    for bad in (np.ones(32), np.ones((33, 1))):
        with pytest.raises(ValueError):
            csr @ bad


@settings(max_examples=40, deadline=None)
@given(symmetric_matrices())
@example((np.zeros((9, 9), dtype=np.uint8), 0))
@example(((1 - np.eye(13)).astype(np.uint8), 78))
@example((sample_gnp(GnpParams(4096, 0.01, seed=1)).matrix, None))
def test_csr_arrays_are_the_ones_csr_array_builds(drawn):
    from scipy.sparse import csr_array

    g = Graph(drawn[0])
    ours, theirs = adjacency_matrix(g, sparse=True), csr_array(g.matrix.view(bool), dtype=np.float64)
    assert theirs.has_sorted_indices
    for name in ("indptr", "indices"):
        mine, scipys = getattr(ours, name), getattr(theirs, name)
        assert mine.dtype == scipys.dtype and np.array_equal(mine, scipys)
    # the kernel's matvec has the bits of scipy's CSR product; entries of
    # mixed magnitude make the bits depend on the summation order
    rng = np.random.default_rng(g.n)
    x = rng.standard_normal(g.n) * 2.0 ** rng.integers(-30, 30, g.n)
    assert np.array_equal(ours @ x, theirs @ x)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-50, 50), st.floats(0.01, 50)), min_size=1, max_size=60))
def test_top_tridiagonal_pair_is_eigh_tridiagonals_bit_for_bit(entries):
    from scipy.linalg import eigh_tridiagonal

    d = np.array([a for a, _ in entries])
    e = np.array([b for _, b in entries[1:]])
    k = len(d) - 1
    w, v = eigh_tridiagonal(d, e, select="i", select_range=(k, k))
    theta, ritz = _top_tridiagonal_pair(d, e)
    assert theta == float(w[0]) and np.array_equal(ritz, v[:, 0])


def test_import_leaves_scipy_unloaded():
    # scipy.linalg takes longer to load than many whole trials, so bncheck
    # imports no scipy module, on the Lanczos route (n > DENSE_LIMIT) either
    src = str(Path(bncheck.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, bncheck\n"
            "assert bncheck.top_two(bncheck.sample_gnp(bncheck.GnpParams(2049, 0.01, seed=1)))"
            ".method == 'iterative'\n"
            "sys.exit(int(any(name.split('.')[0] == 'scipy' for name in sys.modules)))")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_openblas_found_when_numpy_bundles_it():
    # without the handle the one-thread pin is a silent no-op
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "scipy-openblas" not in blas:
        pytest.skip(f"numpy is built against {blas}")
    blas = _openblas()
    assert blas is not None and None not in (blas.dsyevr, blas.dstebz, blas.dstein)


@pytest.fixture
def blas_threads_at_two():
    blas = _openblas()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS")
    found = blas.get_threads()
    blas.set_threads(2)
    yield blas.get_threads
    blas.set_threads(found)


def watch_dsyevr(monkeypatch, wrapper):
    """Route the dense top_two's LAPACKE_dsyevr call through wrapper(dsyevr, *args)."""
    blas = _openblas()
    watched = dataclasses.replace(blas, dsyevr=lambda *args: wrapper(blas.dsyevr, *args))
    monkeypatch.setattr(bncheck.spectral, "_openblas", lambda: watched)


def test_dense_route_pins_one_blas_thread_and_restores_the_count(blas_threads_at_two, monkeypatch):
    get = blas_threads_at_two
    g = sample_gnp(GnpParams(40, 0.5, seed=3))
    eigh = np.linalg.eigh
    seen = []

    def counting_dsyevr(dsyevr, *args):
        seen.append(("dsyevr", get()))
        return dsyevr(*args)

    def counting_eigh(a):
        seen.append(("eigh", get()))
        return eigh(a)

    watch_dsyevr(monkeypatch, counting_dsyevr)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    top_two(g)
    assert seen == [("dsyevr", 1)]
    assert get() == 2

    def raising_dsyevr(dsyevr, *args):
        raise OSError("LAPACKE call failed")

    watch_dsyevr(monkeypatch, raising_dsyevr)
    with pytest.raises(OSError):
        top_two(g)
    assert get() == 2

    def failing_dsyevr(dsyevr, *args):
        return 1  # info > 0: the inverse iteration did not converge

    watch_dsyevr(monkeypatch, failing_dsyevr)
    with pytest.raises(ConvergenceError):
        top_two(g)
    assert get() == 2


def test_dense_route_takes_eigh_when_dsyevr_returns_no_pair(blas_threads_at_two, monkeypatch):
    # LAPACK's bisection can land inside a cluster of equal eigenvalues and
    # report success with no pair, as dsyevr does on K_31
    s = top_two(make_named("complete", 31))
    assert abs(s.lambda1 - 30) <= 1e-12 and abs(s.lambda2 + 1) <= 1e-12
    g = sample_gnp(GnpParams(40, 0.5, seed=3))
    expected = top_two(g)
    eigh = np.linalg.eigh
    seen = []

    def no_pair(dsyevr, *args):
        seen.append("dsyevr")
        return 0  # info 0, m left at 0

    def counting_eigh(a):
        seen.append(("eigh", blas_threads_at_two()))
        return eigh(a)

    watch_dsyevr(monkeypatch, no_pair)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    s = top_two(g)
    assert seen == ["dsyevr", ("eigh", 1)]
    tol = 1e-9 * max(1.0, expected.lambda1)
    assert abs(s.lambda1 - expected.lambda1) <= tol and abs(s.lambda2 - expected.lambda2) <= tol
    assert max(s.residual1, s.residual2) <= DEFAULT_TOL * max(1.0, s.lambda1)


@pytest.mark.parametrize("pair", [0, 1])  # dsyevr's order: 0 is lambda2, 1 is lambda1
def test_dense_route_checks_the_residual_of_both_pairs(pair, monkeypatch):
    if _openblas() is None:
        pytest.skip("numpy bundles no OpenBLAS")

    def perturbed(dsyevr, *args):
        info = dsyevr(*args)
        args[14][pair, 0] += 1e-3  # z, row-major 2 x n: one eigenvector per row
        return info

    watch_dsyevr(monkeypatch, perturbed)
    with pytest.raises(ConvergenceError):
        top_two(sample_gnp(GnpParams(40, 0.5, seed=3)))


def test_nested_pin_does_not_deadlock(blas_threads_at_two):
    get = blas_threads_at_two
    g = sample_gnp(GnpParams(40, 0.5, seed=3))
    expected = top_two(g)
    results, inside = [], []

    def nested():
        with _one_blas_thread():
            results.append(top_two(g))
            inside.append(get())

    worker = threading.Thread(target=nested, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert results == [expected] and inside == [1]
    assert get() == 2


def test_lanczos_route_pins_one_blas_thread_and_restores_the_count(blas_threads_at_two,
                                                                  monkeypatch):
    # every Lanczos matvec, sparse or dense graph, multiplies by the CSR
    # pattern on one BLAS thread
    get = blas_threads_at_two
    matvec = CsrPattern.__matmul__
    seen = []

    def counting(a, x):
        seen.append(get())
        return matvec(a, x)

    monkeypatch.setattr(bncheck.spectral, "DENSE_LIMIT", 64)
    monkeypatch.setattr(CsrPattern, "__matmul__", counting)
    for p in (0.05, 0.5):
        seen.clear()
        assert top_two(sample_gnp(GnpParams(100, p, seed=1))).method == "iterative"
        assert seen and set(seen) == {1}, p
        assert get() == 2


def test_dense_route_without_openblas_is_not_pinned(monkeypatch):
    # without the bundled library the dense top_two takes the top two of eigh
    graphs = [sample_gnp(GnpParams(n, 0.5, seed=n)) for n in (2, 30, 200)]
    graphs += [make_named("empty", 3), two_disjoint_k4()]
    expected = [top_two(g) for g in graphs]
    eigh = np.linalg.eigh
    calls = []

    def counting_eigh(a):
        calls.append(a.shape[0])
        return eigh(a)

    monkeypatch.setattr(bncheck.spectral, "_openblas", lambda: None)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for g, want in zip(graphs, expected):
        s = top_two(g)
        tol = 1e-9 * max(1.0, want.lambda1)
        assert s.method == "dense"
        assert abs(s.lambda1 - want.lambda1) <= tol and abs(s.lambda2 - want.lambda2) <= tol
        assert max(s.residual1, s.residual2) <= DEFAULT_TOL * max(1.0, s.lambda1)
    assert calls == [g.n for g in graphs]
    assert repr(top_two(make_named("empty", 2)).lambda2) == "0.0"
    s = top_two(make_named("complete", 4))
    assert abs(s.lambda1 - 3) < 1e-12 and abs(s.lambda2 + 1) < 1e-12


def test_lanczos_route_without_openblas_takes_eigh_of_the_tridiagonal(monkeypatch):
    # without the bundled library each Lanczos step takes the top pair of
    # numpy's eigh of the k x k tridiagonal
    graphs = [sample_gnp(GnpParams(n, p, seed=n)) for n, p in ((40, 0.5), (90, 0.05))]
    graphs += [two_disjoint_k4(), make_named("empty", 12)]
    eigh = np.linalg.eigh
    calls = []

    def counting_eigh(a):
        calls.append(a.shape[0])
        return eigh(a)

    monkeypatch.setattr(bncheck.spectral, "_openblas", lambda: None)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    for g in graphs:
        w = full_spectrum(g)
        calls.clear()
        s = iterative(g)
        assert s.method == "iterative" and max(calls, default=1) < g.n
        assert calls or g.edge_count == 0
        assert abs(s.lambda1 - w[0]) <= 1e-8 and abs(s.lambda2 - w[1]) <= 1e-8
        assert max(s.residual1, s.residual2) <= DEFAULT_TOL * max(1.0, s.lambda1)


def test_concurrent_dense_calls_keep_the_pin(blas_threads_at_two, monkeypatch):
    # The thread count is process-wide: without one pinned section at a time,
    # one Python thread restores 2 under another's dsyevr, or saves its 1.
    get = blas_threads_at_two
    g = sample_gnp(GnpParams(30, 0.5, seed=4))
    expected = top_two(g)
    seen = []

    def counting_dsyevr(dsyevr, *args):
        seen.append(get())
        return dsyevr(*args)

    watch_dsyevr(monkeypatch, counting_dsyevr)
    results = []

    def worker():
        results.extend(top_two(g) for _ in range(50))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert results == [expected] * 200
    assert len(seen) == 200 and set(seen) == {1} and get() == 2
