import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings

from bncheck import (
    BoundParams,
    CapacityError,
    GnpParams,
    Graph,
    check_conjecture,
    check_proof_events,
    is_clique,
    make_named,
    max_clique,
    max_clique_bruteforce,
    sample_gnp,
)
from bncheck.clique import _bit_rows, _degeneracy_order
from strategies import symmetric_matrices


def _drawn(g):
    return g.matrix, g.edge_count


def _two_disjoint_k5():
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    return Graph.from_edges(10, k5 + [(i + 5, j + 5) for i, j in k5])


def assert_certified(result, g):
    assert not result.time_limited
    assert len(result.witness) == result.omega
    assert is_clique(g, result.witness)
    assert 1 <= result.omega <= g.n
    assert result.nodes_explored >= 1


def test_trivial_graphs():
    k5 = make_named("complete", 5)
    r = max_clique(k5)
    assert r.omega == 5
    assert_certified(r, k5)

    c5 = make_named("cycle", 5)
    r = max_clique(c5)
    assert r.omega == 2  # triangle-free
    assert_certified(r, c5)

    empty = make_named("empty", 6)
    r = max_clique(empty)
    assert r.omega == 1
    assert_certified(r, empty)

    single = make_named("empty", 1)
    assert max_clique(single).omega == 1


def test_petersen(petersen):
    r = max_clique(petersen)
    assert r.omega == 2
    assert r.omega == max_clique_bruteforce(petersen)
    assert_certified(r, petersen)


def test_bruteforce_examples():
    k4_minus = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert max_clique_bruteforce(k4_minus) == 3
    assert max_clique_bruteforce(make_named("complete_bipartite", 6, a=3, b=3)) == 2
    g = sample_gnp(GnpParams(10, 0.5, seed=7))
    assert max_clique_bruteforce(g) == max_clique(g).omega
    assert max_clique_bruteforce(make_named("empty", 4)) == 1
    assert max_clique_bruteforce(make_named("complete", 7)) == 7


def test_bruteforce_capacity():
    with pytest.raises(CapacityError):
        max_clique_bruteforce(make_named("empty", 21))


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices())
def test_bit_rows_match_matrix(drawn):
    a, _ = drawn
    n = len(a)
    rows = _bit_rows(a)
    assert rows == _bit_rows(a.astype(bool))
    assert all(rows[i] >> j & 1 == a[i, j] for i in range(n) for j in range(n))
    assert all(row >> n == 0 for row in rows)


@settings(max_examples=80, deadline=None)
@given(symmetric_matrices())
@example(_drawn(make_named("empty", 7)))
@example(_drawn(make_named("complete", 7)))
@example(_drawn(_two_disjoint_k5()))
def test_degeneracy_order_is_smallest_last(drawn):
    # each vertex, when removed, has the least degree among the vertices still
    # there, and the lowest label among those of that degree
    a, _ = drawn
    n = len(a)
    order = _degeneracy_order(a)
    assert sorted(order) == list(range(n))
    live = np.ones(n, dtype=bool)
    for v in order:
        degree = {u: int(a[u, live].sum()) for u in np.flatnonzero(live).tolist()}
        assert v == min(degree, key=lambda u: (degree[u], u))
        live[v] = False


def test_oracle_equivalence_sweep():
    # the acceptance suite runs the full 300-graph version
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(6, 12)
        p = rng.choice([0.2, 0.5, 0.8])
        g = sample_gnp(GnpParams(n, p, seed=rng.getrandbits(63)))
        r = max_clique(g)
        assert r.omega == max_clique_bruteforce(g)
        assert_certified(r, g)


@pytest.mark.parametrize("n", [30, 60, 120])
@pytest.mark.parametrize("p", [0.3, 0.5])
def test_omega_matches_networkx_beyond_bruteforce(n, p):
    # relabelling for the search must not change omega, and the witness comes
    # back in the original labels
    for seed in range(2):
        g = sample_gnp(GnpParams(n, p, seed=1000 * n + seed))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges())
        r = max_clique(g)
        assert r.omega == nx.max_weight_clique(nxg, weight=None)[1]
        assert_certified(r, g)


def test_monotone_under_edge_addition():
    rng = random.Random(2)
    done = 0
    while done < 100:
        n = rng.randint(5, 14)
        g = sample_gnp(GnpParams(n, 0.4, seed=rng.getrandbits(63)))
        non_edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if not g.has_edge(i, j)
        ]
        if not non_edges:
            continue
        i, j = rng.choice(non_edges)
        bigger = Graph.from_edges(n, list(g.edges()) + [(i, j)])
        assert max_clique(bigger).omega >= max_clique(g).omega
        done += 1


def test_omega_equals_n_iff_complete():
    for n in range(1, 8):
        assert max_clique(make_named("complete", n)).omega == n
    for n in range(2, 8):
        almost = Graph.from_edges(n, list(make_named("complete", n).edges())[:-1])
        assert max_clique(almost).omega == n - 1


def test_time_budget_gives_lower_bound():
    g = sample_gnp(GnpParams(400, 0.5, seed=12345))
    r = max_clique(g, time_budget=0.05)
    assert r.time_limited
    assert not r.certified
    assert r.omega >= 1
    assert is_clique(g, r.witness)
    assert len(r.witness) == r.omega


@pytest.mark.parametrize("budget", [math.nan, 0, 0.0, -1, math.inf, -math.inf])
def test_bad_time_budget_is_refused(budget):
    # a NaN deadline never passes, so it would silently mean "no budget"
    g = sample_gnp(GnpParams(120, 0.9, seed=1))
    with pytest.raises(ValueError, match="time_budget"):
        max_clique(g, time_budget=budget)
    with pytest.raises(ValueError, match="time_budget"):
        check_conjecture(g, clique_time_budget=budget)
    with pytest.raises(ValueError, match="time_budget"):
        check_proof_events(g, BoundParams(eps=0.5, p=0.9), clique_time_budget=budget)


def test_witness_is_always_maximal():
    # no vertex outside the witness may be adjacent to all of it, even for
    # time-limited lower bounds
    cases = [
        max_clique(sample_gnp(GnpParams(400, 0.5, seed=12345)), time_budget=0.05),
    ]
    graphs = [sample_gnp(GnpParams(400, 0.5, seed=12345))]
    for seed in range(10):
        g = sample_gnp(GnpParams(25, 0.5, seed=seed))
        graphs.append(g)
        cases.append(max_clique(g))
    for g, r in zip(graphs, cases):
        members = set(r.witness)
        for v in range(g.n):
            if v not in members:
                assert not all(g.has_edge(v, w) for w in r.witness)


def test_witness_is_sorted_original_labels():
    g = sample_gnp(GnpParams(30, 0.6, seed=9))
    r = max_clique(g)
    assert list(r.witness) == sorted(r.witness)
    assert all(0 <= v < 30 for v in r.witness)


def test_is_clique_rejects():
    g = make_named("cycle", 5)
    assert is_clique(g, (0, 1))
    assert not is_clique(g, (0, 1, 2))
    assert not is_clique(g, (0, 0))  # repeated vertex
    assert is_clique(g, ())
    with pytest.raises(ValueError, match="negative vertex"):
        is_clique(g, (0, -1))  # numpy would read -1 as vertex 4, a neighbour of 0
    with pytest.raises(IndexError):
        is_clique(g, (0, 5))
