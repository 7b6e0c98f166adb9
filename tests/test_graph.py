import random

import numpy as np
import pytest

from bncheck import (
    CapacityError,
    GnpParams,
    Graph,
    ParseError,
    derive_trial_seed,
    make_named,
    read_edge_list,
    sample_gnp,
    write_edge_list,
)
from bncheck.graph import MAX_VERTICES, _gnp_edge_mask, _mix64, _splitmix64_outputs
from bncheck.spectral import adjacency_matrix


def test_graph_rejects_bad_rows():
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError, match="self-loop"):
        Graph(2, [0b01, 0b01])
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(3, [0b010, 0b000, 0b000])
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(3, [0b000, 0b001, 0b000])  # lower-triangle bit without mirror
    with pytest.raises(ValueError, match="outside"):
        Graph(2, [0b100, 0b000])


def test_from_edges_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.edge_count == 2
    assert g.has_edge(1, 0) and g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert g == Graph.from_edges(4, [(2, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


def test_gnp_params_validation():
    with pytest.raises(ValueError):
        GnpParams(0, 0.5, 1)
    with pytest.raises(ValueError):
        GnpParams(5, 1.5, 1)
    with pytest.raises(ValueError):
        GnpParams(5, -0.1, 1)
    assert GnpParams(5, 0.0, 1).degenerate_p
    assert GnpParams(5, 1.0, 1).degenerate_p
    assert not GnpParams(5, 0.5, 1).degenerate_p
    # seeds are canonicalized to 64 bits
    assert GnpParams(2, 0.5, -1).seed == (1 << 64) - 1


def test_sample_endpoints_exact():
    empty = sample_gnp(GnpParams(5, 0.0, seed=1))
    assert empty.edge_count == 0
    full = sample_gnp(GnpParams(5, 1.0, seed=1))
    assert full.edge_count == 10
    assert full == make_named("complete", 5)


def test_sample_determinism():
    a = sample_gnp(GnpParams(30, 0.4, seed=123456789))
    b = sample_gnp(GnpParams(30, 0.4, seed=123456789))
    assert a == b and a.rows == b.rows
    c = sample_gnp(GnpParams(30, 0.4, seed=123456790))
    assert a != c


def test_sample_capacity():
    with pytest.raises(CapacityError):
        sample_gnp(GnpParams(MAX_VERTICES + 1, 0.5, 1))


def test_sample_symmetry_and_zero_diagonal():
    for seed in range(5):
        g = sample_gnp(GnpParams(25, 0.3, seed=seed))
        a = adjacency_matrix(g)
        assert np.array_equal(a, a.T)
        assert not a.diagonal().any()


def test_sample_mean_edge_count():
    # law of large numbers: mean e over 1000 seeds within 3% of p*n(n-1)/2
    n, p = 40, 0.5
    expected = p * n * (n - 1) / 2
    counts = [_gnp_edge_mask(n, p, seed).sum() for seed in range(1000)]
    mean = sum(counts) / len(counts)
    assert abs(mean - expected) <= 0.03 * expected


def test_edge_mask_matches_graph():
    params = GnpParams(12, 0.37, seed=99)
    mask = _gnp_edge_mask(params.n, params.p, params.seed)
    g = sample_gnp(params)
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    assert [g.has_edge(i, j) for i, j in pairs] == list(mask)


def test_per_pair_edge_frequency():
    # over T samples each pair's frequency sits within 4 sigma of p; with 190
    # pairs a perfect sampler exceeds 4 sigma somewhere in ~1% of seed sets,
    # so the master seed freezes a verified instance
    n, p, trials = 20, 0.3, 10000
    total = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    for t in range(trials):
        total += _gnp_edge_mask(n, p, derive_trial_seed(0, t))
    freq = total / trials
    margin = 4.0 * np.sqrt(p * (1 - p) / trials)
    assert np.all(np.abs(freq - p) <= margin)


def test_vectorized_stream_matches_scalar():
    outs = _splitmix64_outputs(987654321, 200)
    for t in (0, 1, 2, 63, 199):
        assert int(outs[t]) == _mix64((987654321 + (t + 1) * 0x9E3779B97F4A7C15) & ((1 << 64) - 1))


def test_derive_trial_seed_pure_and_distinct():
    assert derive_trial_seed(42, 7) == derive_trial_seed(42, 7)
    assert derive_trial_seed(42, 0) != derive_trial_seed(42, 1)
    with pytest.raises(ValueError):
        derive_trial_seed(42, -1)
    # evaluation order must not matter
    forward = [derive_trial_seed(5, t) for t in range(50)]
    backward = [derive_trial_seed(5, t) for t in reversed(range(50))]
    assert forward == backward[::-1]


def test_derive_trial_seed_no_collisions_million():
    outs = _splitmix64_outputs(0xDEADBEEF, 10**6)
    assert len(np.unique(outs)) == 10**6
    # the vectorized stream is exactly derive_trial_seed
    assert int(outs[123456]) == derive_trial_seed(0xDEADBEEF, 123456)


def test_make_named_families():
    assert make_named("complete", 4).edge_count == 6
    c5 = make_named("cycle", 5)
    assert c5.edge_count == 5
    assert all(c5.degree(v) == 2 for v in range(5))
    k12 = make_named("complete_bipartite", 3, a=1, b=2)
    assert k12.edge_count == 2
    assert sorted(k12.degree(v) for v in range(3)) == [1, 1, 2]
    assert make_named("path", 1).edge_count == 0
    assert make_named("path", 6).edge_count == 5
    assert make_named("empty", 7).edge_count == 0


def test_make_named_errors():
    with pytest.raises(ValueError):
        make_named("cycle", 2)
    with pytest.raises(ValueError):
        make_named("complete_bipartite", 4, a=1, b=2)
    with pytest.raises(ValueError):
        make_named("complete_bipartite", 4)
    with pytest.raises(ValueError):
        make_named("hypercube", 8)
    with pytest.raises(ValueError):
        make_named("empty", 0)


def test_edge_count_examples(petersen):
    assert make_named("empty", 7).edge_count == 0
    assert make_named("complete", 6).edge_count == 15
    assert petersen.edge_count == 15
    assert all(petersen.degree(v) == 3 for v in range(10))


def test_read_edge_list_basic():
    g = read_edge_list("p edge 3 2\ne 1 2\ne 2 3\n")
    assert g == make_named("path", 3)
    # reversed endpoints normalize
    g2 = read_edge_list("p edge 3 2\ne 2 1\ne 3 2\n")
    assert g2 == g


@pytest.mark.parametrize(
    "text,fragment,line_no",
    [
        ("p edge 3 1\ne 2 2\n", "self-loop", 2),
        ("p edge 3 2\ne 1 2\ne 1 2\n", "duplicate edge", 3),
        ("p edge 3 1\ne 1 4\n", "out of range", 2),
        ("e 1 2\n", "before 'p' header", 1),
        ("p edge 3 1\np edge 3 1\n", "duplicate 'p'", 2),
        ("p clique 3 1\ne 1 2\n", "header must be", 1),
        ("p edge x 1\ne 1 2\n", "integers", 1),
        ("q edge 3 1\n", "unrecognized", 1),
        ("p edge 0 0\n", ">= 1", 1),
    ],
)
def test_read_edge_list_errors(text, fragment, line_no):
    with pytest.raises(ParseError, match=fragment) as info:
        read_edge_list(text)
    assert info.value.line_no == line_no


def test_read_edge_list_count_mismatch_and_missing_header():
    with pytest.raises(ParseError, match="declares 3 edges"):
        read_edge_list("p edge 4 3\ne 1 2\n")
    with pytest.raises(ParseError, match="no 'p edge' header"):
        read_edge_list("c just a comment\n")


def test_write_edge_list_round_trip(petersen, petersen_text):
    canonical = write_edge_list(petersen)
    assert read_edge_list(canonical) == petersen
    # writing the parse of the canonical form is a fixed point
    assert write_edge_list(read_edge_list(canonical)) == canonical
    # the sample file is not in canonical order, but parses to the same graph
    assert read_edge_list(petersen_text) == read_edge_list(canonical)


def test_round_trip_random_graphs():
    for seed in range(5):
        g = sample_gnp(GnpParams(17, 0.4, seed=seed))
        assert read_edge_list(write_edge_list(g)) == g


def test_read_edge_list_capacity():
    with pytest.raises(CapacityError):
        read_edge_list(f"p edge {MAX_VERTICES + 1} 0\n")


def test_parallel_sampling_order_independent():
    # simulates out-of-order trial scheduling: results depend only on indices
    seeds = [derive_trial_seed(77, t) for t in range(20)]
    graphs = {t: sample_gnp(GnpParams(15, 0.5, seeds[t])) for t in range(20)}
    order = list(range(20))
    random.Random(0).shuffle(order)
    for t in order:
        assert sample_gnp(GnpParams(15, 0.5, seeds[t])) == graphs[t]
