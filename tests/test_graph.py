import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bncheck import (
    CapacityError,
    GnpParams,
    Graph,
    ParseError,
    derive_trial_seed,
    read_edge_list,
    sample_gnp,
    write_edge_list,
)
from bncheck.graph import (
    _GAMMA,
    _MASK64,
    _MIX1,
    _MIX2,
    MAX_VERTICES,
    _mix64,
    _splitmix64_outputs,
)
from bncheck.spectral import adjacency_matrix
from reference import gnp_edge_mask, gnp_matrix, make_named
from strategies import symmetric_matrices


@pytest.mark.parametrize(
    "matrix,fragment",
    [
        (np.zeros((0, 0)), "at least one vertex"),
        (np.zeros(3), "square"),
        (np.zeros((2, 3)), "square"),
        ([[0, 2], [2, 0]], "0 or 1"),
        ([[0, -1], [-1, 0]], "0 or 1"),
        ([[0, 0.5], [0.5, 0]], "0 or 1"),
        ([[0, np.nan], [np.nan, 0]], "0 or 1"),
        ([[1, 0], [1, 0]], "self-loop"),
        ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], "asymmetric"),
        ([[0, 0, 0], [1, 0, 0], [0, 0, 0]], "asymmetric"),
    ],
    ids=["empty", "1-D", "non-square", "entry 2", "entry -1", "entry 0.5", "entry NaN",
         "self-loop", "upper entry without mirror", "lower entry without mirror"],
)
def test_graph_rejects_bad_matrices(matrix, fragment):
    with pytest.raises(ValueError, match=fragment):
        Graph(matrix)


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices())
def test_matrix_is_stored_and_counted(drawn):
    a, edges = drawn
    g = Graph(a)
    assert g.n == len(a) and g.edge_count == edges
    assert g.matrix.dtype == np.uint8 and np.array_equal(g.matrix, a)
    assert g == Graph(a.astype(bool)) == Graph(a.astype(np.float64)) == Graph(a.tolist())


def test_graph_is_immutable():
    a = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    g = Graph(a)
    a[0, 1] = a[1, 0] = 0  # the caller's array is not the graph's
    assert g.matrix[0, 1] and g.edge_count == 1
    with pytest.raises(ValueError, match="read-only"):
        g.matrix[0, 1] = 0


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices(min_n=2), st.data())
def test_one_flipped_bit_is_rejected(drawn, data):
    a, _ = drawn
    n = len(a)
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
    asymmetric = a.copy()
    asymmetric[i, j] ^= 1
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(asymmetric)
    looped = a.copy()
    looped[i, i] = 1
    with pytest.raises(ValueError, match="self-loop"):
        Graph(looped)


@pytest.mark.parametrize("i,j", [(10, 590), (590, 10), (255, 256), (256, 255)])
def test_unmatched_bit_found_in_any_symmetry_block(i, j):
    # n = 600 spans three comparison blocks a side: (10, 590) lies inside an
    # off-diagonal block, (255, 256) at its corner next to two diagonal blocks
    a = sample_gnp(GnpParams(600, 0.5, seed=8)).matrix.copy()
    a[i, j] ^= 1
    pair = rf"\({min(i, j)}, {max(i, j)}\)"
    with pytest.raises(ValueError, match=f"asymmetric adjacency at pair {pair}"):
        Graph(a)


def test_from_edges_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.edge_count == 2
    assert g.matrix[1, 0] and g.matrix[1, 2] and not g.matrix[0, 2]
    assert g.matrix[1].sum() == 2
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert g == Graph.from_edges(4, [(2, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(3, [(0, 3)])
    # edge lists taken from numpy, such as np.argwhere, hold numpy integers
    g = Graph.from_edges(100, [(np.int64(0), np.int64(70))])
    assert g.matrix[70, 0] and list(g.edges()) == [(0, 70)]


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices())
@example((sample_gnp(GnpParams(MAX_VERTICES, 0.01, seed=1)).matrix, None))
def test_edges_are_the_upper_triangle_row_major(drawn):
    a, _ = drawn
    i, j = np.nonzero(np.triu(a, 1))
    assert list(Graph(a).edges()) == list(zip(i.tolist(), j.tolist()))


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
    assert a == b and hash(a) == hash(b)
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
    counts = [gnp_edge_mask(n, p, seed).sum() for seed in range(1000)]
    mean = sum(counts) / len(counts)
    assert abs(mean - expected) <= 0.03 * expected


def test_edge_mask_matches_graph():
    params = GnpParams(12, 0.37, seed=99)
    mask = gnp_edge_mask(params.n, params.p, params.seed)
    g = sample_gnp(params)
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    assert [g.matrix[i, j] for i, j in pairs] == list(mask)


def test_per_pair_edge_frequency():
    # over T samples each pair's frequency sits within 4 sigma of p; with 190
    # pairs a perfect sampler exceeds 4 sigma somewhere in ~1% of seed sets,
    # so the master seed freezes a verified instance
    n, p, trials = 20, 0.3, 10000
    total = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    for t in range(trials):
        total += gnp_edge_mask(n, p, derive_trial_seed(0, t))
    freq = total / trials
    margin = 4.0 * np.sqrt(p * (1 - p) / trials)
    assert np.all(np.abs(freq - p) <= margin)


# p whose thresholds floor(p * 2**64) sit at the ends of the 64-bit range:
# 1, 3 and 2**64 - 2**11 (the largest double below 1)
EXTREME_P = (2.0**-64, 3 * 2.0**-64, 0.5, float(np.nextafter(1.0, 0.0)))


def _seed_with_first_output(value):
    """The seed whose splitmix64 output 0 is `value`: the finalizer inverted,
    minus one GAMMA step."""
    x = value
    x ^= (x >> 31) ^ (x >> 62)
    x = x * pow(_MIX2, -1, 1 << 64) & _MASK64
    x ^= (x >> 27) ^ (x >> 54)
    x = x * pow(_MIX1, -1, 1 << 64) & _MASK64
    x ^= (x >> 30) ^ (x >> 60)
    return (x - _GAMMA) & _MASK64


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 70),
    p=st.one_of(st.sampled_from([0.0, *EXTREME_P, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, (1 << 64) - 1),
)
def test_kernel_draw_matches_whole_stream(n, p, seed):
    assert np.array_equal(sample_gnp(GnpParams(n, p, seed)).matrix, gnp_matrix(n, p, seed))


@pytest.mark.parametrize("p", EXTREME_P)
def test_kernel_draw_is_an_edge_exactly_below_the_threshold(p):
    threshold = int(p * 2.0**64)
    for value, edges in ((threshold - 1, 1), (threshold, 0)):
        seed = _seed_with_first_output(value)
        assert int(_splitmix64_outputs(seed, 1)[0]) == value
        assert sample_gnp(GnpParams(2, p, seed)).edge_count == edges


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, (1 << 64) - 1), start=st.integers(0, 300), count=st.integers(0, 300))
def test_stream_from_an_offset_is_a_slice_of_the_stream(seed, start, count):
    whole = _splitmix64_outputs(seed, start + count)
    assert np.array_equal(_splitmix64_outputs(seed, count, start), whole[start:])


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
    assert all(c5.matrix[v].sum() == 2 for v in range(5))
    k12 = make_named("complete_bipartite", 3, a=1, b=2)
    assert k12.edge_count == 2
    assert sorted(k12.matrix[v].sum() for v in range(3)) == [1, 1, 2]
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
    assert all(petersen.matrix[v].sum() == 3 for v in range(10))


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


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices(), st.randoms(use_true_random=False))
def test_edge_list_round_trip_any_line_order(drawn, rnd):
    # e lines in any order, either endpoint first, with comment lines anywhere
    g = Graph(drawn[0])
    header, *edge_lines = write_edge_list(g).splitlines()
    rnd.shuffle(edge_lines)
    lines = [header]
    for line in edge_lines:
        _, i, j = line.split()
        lines.append(f"e {j} {i}" if rnd.random() < 0.5 else line)
    for _ in range(rnd.randint(0, 5)):
        lines.insert(rnd.randint(0, len(lines)), "c a comment")
    assert read_edge_list("\n".join(lines) + "\n") == g


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
