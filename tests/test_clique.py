import json
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bncheck
import reference
from bncheck import (
    BoundParams,
    CapacityError,
    GnpParams,
    Graph,
    check_conjecture,
    check_proof_events,
    derive_trial_seed,
    is_clique,
    max_clique,
    sample_gnp,
)
from bncheck import _kernel
from reference import make_named, max_clique_bruteforce
from strategies import symmetric_matrices

# n at and around the 64-bit word edges of the kernel's bitsets
WORD_EDGES = (1, 2, 63, 64, 65, 127, 128, 129)
SRC = str(Path(bncheck.__file__).parents[1])
# K5 in a subprocess, which cannot import the tests' reference module
K5_SOURCE = "Graph([[int(i != j) for j in range(5)] for i in range(5)])"


def _drawn(g):
    return g.matrix, g.edge_count


def kernel_order(a):
    order = np.empty(len(a), dtype=np.int64)
    assert _kernel.library().bn_degeneracy_order(a, len(a), order) == 0
    return order


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
    order = kernel_order(a)
    assert sorted(order) == list(range(n))
    live = np.ones(n, dtype=bool)
    for v in order:
        degree = {u: int(a[u, live].sum()) for u in np.flatnonzero(live).tolist()}
        assert v == min(degree, key=lambda u: (degree[u], u))
        live[v] = False


@pytest.mark.parametrize("n", [1, 63, 64, 65])
@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
def test_kernel_order_matches_reference_at_block_edges(n, p):
    # the kernel keeps one minimum per 64 degrees and reads rows 8 bytes at a time
    a = sample_gnp(GnpParams(n, p, seed=n)).matrix
    assert np.array_equal(kernel_order(a), reference.degeneracy_order(a))


@settings(max_examples=80, deadline=None)
@given(symmetric_matrices())
@example(_drawn(make_named("empty", 70)))
@example(_drawn(make_named("complete", 70)))
@example(_drawn(sample_gnp(GnpParams(4095, 0.01, seed=1))))
@example(_drawn(sample_gnp(GnpParams(4096, 0.5, seed=1))))
def test_kernel_order_matches_reference(drawn):
    a, _ = drawn
    assert np.array_equal(kernel_order(a), reference.degeneracy_order(a))


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
            (i, j) for i in range(n) for j in range(i + 1, n) if not g.matrix[i, j]
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


def _beyond_budget():
    """A graph the exact search cannot finish in 20 s (omega in the thousand
    range), so a short budget always interrupts it, on any machine."""
    return sample_gnp(GnpParams(2048, 0.999, seed=12345))


def test_time_budget_gives_lower_bound():
    g = _beyond_budget()
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
    graphs = [_beyond_budget()]
    cases = [max_clique(graphs[0], time_budget=0.05)]
    for seed in range(10):
        g = sample_gnp(GnpParams(25, 0.5, seed=seed))
        graphs.append(g)
        cases.append(max_clique(g))
    for g, r in zip(graphs, cases):
        members = set(r.witness)
        for v in range(g.n):
            if v not in members:
                assert not all(g.matrix[v, w] for w in r.witness)


@pytest.mark.parametrize("n", [2048, 4096])
def test_budget_also_bounds_the_greedy_seed(n):
    # The greedy seed alone takes seconds on these graphs (5.5 s in Python at
    # n = 2048, 5.4 s in C at n = 4096); it reads the deadline at every step,
    # so the budget holds before the search proper starts.
    g = sample_gnp(GnpParams(n, 0.999, seed=1))
    _kernel.library()  # a first call may compile the kernel
    t0 = time.perf_counter()
    r = max_clique(g, time_budget=0.5)
    assert time.perf_counter() - t0 < 1.5
    assert r.time_limited
    assert is_clique(g, r.witness)
    outside = np.setdiff1d(np.arange(g.n), r.witness)
    assert not g.matrix[np.ix_(outside, r.witness)].all(axis=1).any()


@st.composite
def word_edge_graphs(draw):
    """G(n, p) with n at a word edge or up to 140 and any p in [0, 1]. Above
    64 vertices p avoids (0.6, 0.995), where the Python reference takes
    seconds to minutes (G(129, 0.9): 161 s)."""
    n = draw(st.one_of(st.sampled_from(WORD_EDGES), st.integers(1, 140)))
    if n <= 64:
        p = draw(st.floats(0, 1))
    else:
        p = draw(st.one_of(st.floats(0, 0.6), st.floats(0.995, 1)))
    return sample_gnp(GnpParams(n, p, seed=draw(st.integers(0, 2**64 - 1))))


@settings(max_examples=80, deadline=None)
@given(word_edge_graphs())
@example(sample_gnp(GnpParams(64, 0.9, seed=1)))
@example(sample_gnp(GnpParams(65, 0.9, seed=1)))
@example(sample_gnp(GnpParams(129, 0.5, seed=1)))
@example(sample_gnp(GnpParams(128, 1.0, seed=1)))
def test_kernel_matches_python_reference(g):
    r = max_clique(g)
    assert not r.time_limited
    assert (r.omega, r.witness, r.nodes_explored) == reference.max_clique(g)


@pytest.mark.parametrize("k", range(2))
def test_kernel_matches_python_reference_on_criterion_9_graphs(k):
    g = sample_gnp(GnpParams(400, 0.5, seed=derive_trial_seed(900, k)))
    r = max_clique(g)
    assert (r.omega, r.witness, r.nodes_explored) == reference.max_clique(g)


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


def _run_python(args, cache, path=None):
    """A fresh interpreter with `cache` as XDG_CACHE_HOME and, if given, PATH."""
    env = {**os.environ, "XDG_CACHE_HOME": str(cache), "PYTHONPATH": SRC}
    if path is not None:
        env["PATH"] = path
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300
    )


def test_kernel_compiles_once_into_the_cache(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    log = tmp_path / "cc.log"
    wrapper = bin_dir / "cc"
    wrapper.write_text(
        f'#!/bin/sh\necho "$@" >> {shlex.quote(str(log))}\nexec {shlex.quote(shutil.which("cc"))} "$@"\n'
    )
    wrapper.chmod(0o755)
    code = f"from bncheck import Graph, max_clique; print(max_clique({K5_SOURCE}).omega)"
    for _ in range(2):
        done = _run_python(["-c", code], tmp_path / "cache", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "5\n"
    assert len(log.read_text().splitlines()) == 1  # the second process only loads
    built = list((tmp_path / "cache" / "bncheck").iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"  # no temporary file left


def test_two_workers_on_an_empty_cache(tmp_path):
    # both spawn workers meet an empty cache and compile at once
    csvs = {}
    for threads in ("2", "1"):
        out = tmp_path / f"threads{threads}"
        cfg = tmp_path / f"threads{threads}.json"
        cfg.write_text(json.dumps({"n": 40, "p": 0.5, "trials": 12, "seed": 3, "out_dir": str(out)}))
        done = _run_python(
            ["-m", "bncheck", "montecarlo", "--config", str(cfg), "--threads", threads],
            tmp_path / f"cache{threads}",
        )
        assert done.returncode == 0, done.stderr
        csvs[threads] = (out / "trials.csv").read_bytes()
    assert csvs["2"] == csvs["1"]


def test_import_neither_compiles_nor_loads_the_kernel(tmp_path):
    # what mcbench's setup_s times: the import and the config, and no kernel
    no_compiler = tmp_path / "empty"
    no_compiler.mkdir()
    code = (
        "import bncheck, bncheck._kernel as k\n"
        "bncheck.MonteCarloConfig.from_dict({'n': 200, 'p': 0.5, 'trials': 1, 'seed': 1})\n"
        "assert k.library.cache_info().currsize == 0\n"
    )
    done = _run_python(["-c", code], tmp_path / "cache", str(no_compiler))
    assert done.returncode == 0, done.stderr
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("call", [
    "sample_gnp(GnpParams(5, 0.5, seed=1))",
    pytest.param(f"max_clique({K5_SOURCE})", id="max_clique(K5)"),
])
def test_first_kernel_call_without_cc_names_the_compiler(tmp_path, call):
    no_compiler = tmp_path / "empty"
    no_compiler.mkdir()
    code = f"from bncheck import *\n{call}"
    done = _run_python(["-c", code], tmp_path / "cache", str(no_compiler))
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("RuntimeError: bncheck needs a C compiler: no `cc` on PATH")
    assert str(tmp_path / "cache" / "bncheck") in last


def test_kernel_source_ships_with_the_package():
    # a wheel without the source fails at the first trial (no tomllib on 3.10)
    pyproject = (Path(SRC).parent / "pyproject.toml").read_text()
    package_data = pyproject.split("\n[tool.setuptools.package-data]\n", 1)[1].split("\n[", 1)[0]
    assert f'bncheck = ["{_kernel.SOURCE.name}"]' in package_data
    assert _kernel.SOURCE.parent == Path(bncheck.__file__).parent and _kernel.SOURCE.is_file()
