import math
import random

import numpy as np
import pytest

from bncheck import (
    CapacityError,
    ConvergenceError,
    GnpParams,
    Graph,
    full_spectrum,
    make_named,
    sample_gnp,
    top_two,
)
from bncheck.spectral import (
    DEFAULT_TOL,
    DENSE_LIMIT,
    MATVEC_CAP_FACTOR,
    _top_two_iterative,
    adjacency_matrix,
)


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
    # n just over DENSE_LIMIT takes the Lanczos route
    n, p = 2100, 0.02
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
