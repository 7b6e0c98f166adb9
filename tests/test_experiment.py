import json
import math
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import textwrap
import threading
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bncheck
from bncheck import (
    BoundParams,
    GnpParams,
    Graph,
    MonteCarloConfig,
    UncertifiedCliqueError,
    check_conjecture,
    check_proof_events,
    derive_trial_seed,
    envelope_sides,
    envelope_thresholds,
    run_monte_carlo,
    sample_gnp,
)
from bncheck import experiment
from bncheck.experiment import CSV_HEADER, _inequality_check
from reference import gnp_edge_mask, make_named


def test_p3_equality_case():
    chk = check_conjecture(make_named("path", 3))
    assert chk.holds
    assert abs(chk.lhs - 2.0) < 1e-9
    assert chk.rhs == 2.0
    assert abs(chk.slack) < 1e-9
    assert chk.omega == 2 and chk.e == 2
    assert not chk.is_complete


def test_k3_violates_as_stated():
    chk = check_conjecture(make_named("complete", 3))
    assert not chk.holds
    assert chk.is_complete
    assert abs(chk.lhs - 5.0) < 1e-12
    assert chk.rhs == 4.0
    assert abs(chk.slack + 1.0) < 1e-12


def test_k2_violates_as_stated():
    chk = check_conjecture(make_named("complete", 2))
    assert not chk.holds and chk.is_complete
    assert abs(chk.lhs - 2.0) < 1e-12
    assert chk.rhs == 1.0
    assert abs(chk.slack + 1.0) < 1e-12


def test_c5_holds():
    chk = check_conjecture(make_named("cycle", 5))
    golden_2 = 2.0 * math.cos(2.0 * math.pi / 5.0)
    assert chk.holds
    assert abs(chk.lhs - (4.0 + golden_2 * golden_2)) < 1e-9  # ~4.38197
    assert chk.rhs == 5.0


def test_empty_graph_holds_with_omega_one():
    chk = check_conjecture(make_named("empty", 4))
    assert chk.holds
    assert chk.omega == 1
    assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.slack == 0.0


def test_star_equality_cases_not_misreported():
    # K_{1,b}, b >= 2: lambda1 = sqrt(b), lambda2 = 0, lhs = b = rhs exactly
    # (K_{1,1} is K2, a complete-graph violation, covered elsewhere)
    for b in range(2, 9):
        g = make_named("complete_bipartite", b + 1, a=1, b=b)
        chk = check_conjecture(g)
        assert chk.holds, (b, chk)
        assert abs(chk.slack) < 1e-9


def test_every_atlas_graph_on_two_to_seven_vertices():
    # networkx's atlas holds every graph on up to 7 vertices (1,251 on 2-7). Only
    # the 6 complete graphs may violate; 26 others have float lhs > rhs by at most
    # 5.3e-15 and hold only through EQUALITY_TOL.
    checked, violations = 0, []
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n < 2:
            continue
        chk = check_conjecture(Graph.from_edges(n, h.edges()))
        assert chk.omega == max(len(c) for c in nx.find_cliques(h)), nx.to_edgelist(h)
        if not chk.holds:
            violations.append((n, chk.e))
        checked += 1
    assert checked == 1251
    assert violations == [(n, n * (n - 1) // 2) for n in range(2, 8)]


def test_check_requires_two_vertices():
    with pytest.raises(ValueError):
        check_conjecture(make_named("empty", 1))


def test_uncertified_clique_raises():
    g = sample_gnp(GnpParams(400, 0.5, seed=3))
    with pytest.raises(UncertifiedCliqueError):
        check_conjecture(g, clique_time_budget=1e-4)


def test_events_empty_graph():
    params = BoundParams(0.5, 0.3, 1.0)
    ev = check_proof_events(make_named("empty", 10), params)
    assert not ev.event_y  # omega = 1 makes the right side 0
    assert not ev.event_z  # e = 0 below the required edge mass
    assert ev.y_rhs == 0.0
    assert ev.z_rhs == 0.0 and ev.z_lhs > 0


def test_events_complete_graph():
    ev = check_proof_events(make_named("complete", 10), BoundParams(0.5, 0.5, 1.0))
    assert ev.event_z  # e = 45 >= 0.5*0.5*90/2 = 11.25
    assert ev.z_lhs == pytest.approx(11.25)
    assert ev.z_rhs == 45.0


def test_events_flags_match_recorded_sides():
    params = BoundParams(0.5, 0.5, 1.0)
    g = sample_gnp(GnpParams(30, 0.5, seed=1))
    ev = check_proof_events(g, params)
    assert ev.event_x == (ev.x_lhs <= ev.x_rhs)
    assert ev.event_y == (ev.y_lhs <= ev.y_rhs)
    assert ev.event_z == (ev.z_lhs <= ev.z_rhs)
    chk = check_conjecture(g)
    assert ev.x_lhs == chk.lhs


def test_relabeling_changes_nothing_but_the_witness():
    rng = random.Random(8)
    g = sample_gnp(GnpParams(24, 0.45, seed=21))
    base = check_conjecture(g)
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges()])
        other = check_conjecture(relabeled)
        assert (other.n, other.e, other.omega) == (base.n, base.e, base.omega)
        assert other.holds == base.holds and other.is_complete == base.is_complete
        assert abs(other.lambda1 - base.lambda1) < 1e-8
        assert abs(other.lambda2 - base.lambda2) < 1e-8
        assert abs(other.lhs - base.lhs) < 1e-8
        assert other.rhs == base.rhs
        assert abs(other.slack - base.slack) < 1e-8


def test_triangle_free_samples_always_hold():
    # the omega = 2 case is settled; every triangle-free draw must hold
    seen = 0
    for seed in range(40):
        g = sample_gnp(GnpParams(20, 0.1, seed=seed))
        chk = check_conjecture(g)
        if chk.omega <= 2:
            seen += 1
            assert chk.holds, (seed, chk)
    assert seen >= 10  # sparse draws are usually triangle-free


@pytest.mark.parametrize("n,p,seed", [(2, 0.5, 3), (12, 0.3, 5), (20, 0.5, 17), (30, 0.7, 99)])
def test_checker_matches_harness_rows(n, p, seed):
    params = BoundParams(0.4, p, 2.0)
    report = run_monte_carlo(
        MonteCarloConfig(n=n, p=p, trials=4, seed=seed, eps=params.eps, c0=params.c0)
    )
    for k, row in enumerate(report.rows):
        g = sample_gnp(GnpParams(n, p, derive_trial_seed(seed, k)))
        assert check_conjecture(g) == row.check
        assert check_proof_events(g, params) == row.events


def test_config_from_dict():
    cfg = MonteCarloConfig.from_dict(
        {"n": 10, "p": 0.5, "trials": 3, "C0": 2.0, "eps": 0.4, "seed": 9}
    )
    assert cfg.c0 == 2.0 and cfg.eps == 0.4
    with pytest.raises(ValueError, match="unknown config keys"):
        MonteCarloConfig.from_dict({"n": 10, "p": 0.5, "trials": 3, "bogus": 1})
    with pytest.raises(ValueError, match="missing config keys"):
        MonteCarloConfig.from_dict({"n": 10, "p": 0.5})
    with pytest.raises(ValueError, match="both"):
        MonteCarloConfig.from_dict({"n": 10, "p": 0.5, "trials": 3, "C0": 1, "c0": 1})
    with pytest.raises(ValueError):
        MonteCarloConfig(n=10, p=0.0, trials=3)
    with pytest.raises(ValueError):
        MonteCarloConfig(n=1, p=0.5, trials=3)
    with pytest.raises(ValueError):
        MonteCarloConfig(n=10, p=0.5, trials=0)


def test_config_field_types():
    doc = {"n": 8, "p": 0.5, "trials": 2}
    for key, value in [("n", True), ("eps", "0.5"), ("C0", None), ("out_dir", 3),
                       ("clique_time_budget", [1])]:
        with pytest.raises(ValueError, match=repr(key.lower())):
            MonteCarloConfig.from_dict({**doc, key: value})
    # any real number where a float belongs, and null where a key is optional
    cfg = MonteCarloConfig.from_dict({**doc, "C0": 2, "clique_time_budget": 2, "out_dir": None})
    assert cfg.c0 == 2 and cfg.clique_time_budget == 2 and cfg.out_dir is None


@pytest.mark.parametrize(
    "key,value",
    [("clique_time_budget", -1), ("clique_time_budget", 0), ("clique_time_budget", 0.0),
     ("clique_time_budget", math.nan), ("clique_time_budget", math.inf),
     ("C0", math.inf), ("C0", -math.inf), ("C0", math.nan),
     ("eps", math.nan), ("p", math.inf), ("p", math.nan)],
)
def test_config_rejects_nonfinite_and_nonpositive(key, value):
    # a NaN budget would mean no budget, and an infinite C0 is not JSON
    with pytest.raises(ValueError, match=rf"\b{key.lower()}\b"):
        MonteCarloConfig.from_dict({"n": 8, "p": 0.5, "trials": 2, key: value})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_checker_is_monotone_in_omega(data):
    # verdict-first clique bounds rely on this: a larger omega never lowers rhs
    # or turns a holding graph into a violating one
    n = data.draw(st.integers(2, 4096))
    e = data.draw(st.integers(0, n * (n - 1) // 2))
    lam1 = data.draw(st.floats(0.0, n - 1.0))
    lam2 = data.draw(st.floats(-(n - 1.0), lam1))
    low = data.draw(st.integers(1, n - 1))
    high = data.draw(st.integers(low + 1, n))
    small, big = (_inequality_check(n, e, w, lam1, lam2) for w in (low, high))
    assert big.rhs >= small.rhs
    assert big.holds or not small.holds


def test_n2_case_split():
    # at n=2 a draw is either empty (holds) or K2 (violating, complete);
    # holds_fraction must equal the empty-draw fraction exactly
    cfg = MonteCarloConfig(n=2, p=0.5, trials=100, seed=7, out_dir=None)
    report = run_monte_carlo(cfg)
    # oracle: count empty draws straight off the pair stream
    empties = sum(
        int(not gnp_edge_mask(2, 0.5, derive_trial_seed(7, t))[0]) for t in range(100)
    )
    assert report.holds_fraction == empties / 100
    assert 0.3 <= report.holds_fraction <= 0.7
    assert report.complete_draws == 100 - empties
    assert report.violating_noncomplete == 0  # K2 violations are complete draws
    assert report.invalid_trials == 0
    for row in report.rows:
        if row.check.is_complete:
            assert not row.check.holds and row.check.slack == -1.0
        else:
            assert row.check.holds and row.check.lhs == 0.0 and row.check.rhs == 0.0


def test_monte_carlo_determinism_and_files(tmp_path):
    cfg = dict(n=15, p=0.4, trials=20, seed=11, eps=0.3, c0=1.0)
    r1 = run_monte_carlo(MonteCarloConfig(out_dir=str(tmp_path / "a"), **cfg))
    r2 = run_monte_carlo(MonteCarloConfig(out_dir=str(tmp_path / "b"), **cfg))
    csv1 = (tmp_path / "a" / "trials.csv").read_bytes()
    csv2 = (tmp_path / "b" / "trials.csv").read_bytes()
    assert csv1 == csv2
    assert csv1.decode().splitlines()[0] == CSV_HEADER
    assert len(csv1.decode().splitlines()) == 21
    agg = json.loads((tmp_path / "a" / "aggregate.json").read_text())
    assert agg["config"]["C0"] == 1.0
    assert agg["holds_fraction"] == r1.holds_fraction
    assert agg["theorem_lower_bound"] + agg["hoeffding_tail"] == 1.0
    assert r1.csv_path == str(tmp_path / "a" / "trials.csv")
    # per-row reproducibility from (master seed, trial index)
    for row in r1.rows[:5]:
        assert row.seed == derive_trial_seed(11, row.trial)
    assert r1.holds_fraction == r2.holds_fraction
    assert r1.min_slack == r2.min_slack


def test_monte_carlo_bytes_independent_of_blas_threads(tmp_path):
    # A second BLAS thread used to move the last digits of lambda1 and lhs
    # at n >= 300, and of lambda2 at G(2100, 0.13), where the Lanczos route
    # multiplied by a dense matrix (2e/n^2 ~ 0.13 > 1/8). The dense route
    # (n = 300) and the Lanczos route (n = 2100) at any density now run on one.
    src = str(Path(bncheck.__file__).parents[1])
    blas_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in blas_vars}
    for n, p, trials in ((300, 0.1, 4), (2100, 0.01, 2), (2100, 0.13, 1)):
        csvs = {}
        for blas, env in (("unset", unset), ("1", {**unset, "OPENBLAS_NUM_THREADS": "1"})):
            for threads in ("1", "2"):
                out = tmp_path / f"n{n}-p{p}-blas{blas}-threads{threads}"
                cfg = tmp_path / f"{out.name}.json"
                cfg.write_text(json.dumps({"n": n, "p": p, "trials": trials, "seed": 5,
                                           "out_dir": str(out)}))
                subprocess.run(
                    [sys.executable, "-m", "bncheck", "montecarlo", "--config", str(cfg),
                     "--threads", threads],
                    env={**env, "PYTHONPATH": src}, check=True, capture_output=True,
                )
                csvs[out.name] = (out / "trials.csv").read_bytes()
        assert len(set(csvs.values())) == 1, sorted(csvs)


@pytest.fixture
def no_kept_pool():
    """Start and end the test with no worker pool kept by an earlier call."""

    def drop():
        if experiment._pool is not None:
            experiment._pool[1].shutdown()
            experiment._pool = None

    drop()
    yield
    drop()


def _run_bytes(out_dir, threads):
    """trials.csv and aggregate.json of one G(50, 1/2) x 60 run, with the
    echoed out_dir blanked."""
    run_monte_carlo(
        MonteCarloConfig(n=50, p=0.5, trials=60, seed=23, out_dir=str(out_dir)), threads=threads
    )
    aggregate = (out_dir / "aggregate.json").read_bytes()
    return (out_dir / "trials.csv").read_bytes(), aggregate.replace(str(out_dir).encode(), b"")


def _worker_pids():
    return {proc.pid for proc in multiprocessing.active_children()}


def test_pool_is_kept_across_calls(tmp_path, no_kept_pool):
    one = _run_bytes(tmp_path / "one", 1)
    assert _worker_pids() == set()
    assert _run_bytes(tmp_path / "first", 2) == one
    workers = _worker_pids()
    assert len(workers) == 2
    assert _run_bytes(tmp_path / "second", 2) == one
    assert _worker_pids() == workers


def test_other_worker_count_replaces_pool(tmp_path, no_kept_pool):
    one = _run_bytes(tmp_path / "one", 1)
    assert _run_bytes(tmp_path / "two", 2) == one
    old = multiprocessing.active_children()
    assert _run_bytes(tmp_path / "three", 3) == one
    assert not any(proc.is_alive() for proc in old)
    new = _worker_pids()
    assert len(new) == 3 and new.isdisjoint(proc.pid for proc in old)


def test_killed_worker_fails_the_run_and_the_next_starts_fresh(tmp_path, no_kept_pool):
    one = _run_bytes(tmp_path / "one", 1)
    assert _run_bytes(tmp_path / "warm", 2) == one
    victim, survivor = multiprocessing.active_children()
    # 200 draws of G(200, 1/2) keep two warm workers busy for about a second.
    kill = threading.Timer(0.1, os.kill, (victim.pid, signal.SIGKILL))
    kill.start()
    try:
        with pytest.raises(BrokenProcessPool):
            run_monte_carlo(MonteCarloConfig(n=200, p=0.5, trials=200, seed=3), threads=2)
    finally:
        kill.join(timeout=60)
    survivor.join(timeout=60)
    assert not survivor.is_alive()
    assert _run_bytes(tmp_path / "after", 2) == one
    assert _worker_pids().isdisjoint({victim.pid, survivor.pid})


def test_kept_pool_leaves_no_process_at_exit(tmp_path):
    src = str(Path(bncheck.__file__).parents[1])
    script = textwrap.dedent(f"""
        import multiprocessing
        from bncheck import MonteCarloConfig, run_monte_carlo
        if __name__ == "__main__":
            for k in range(2):
                out_dir = {str(tmp_path)!r} + f"/{{k}}"
                run_monte_carlo(MonteCarloConfig(n=50, p=0.5, trials=60, seed=23, out_dir=out_dir),
                                threads=2)
            print(*(proc.pid for proc in multiprocessing.active_children()))
    """)
    (tmp_path / "two_calls.py").write_text(script)
    done = subprocess.run(
        [sys.executable, str(tmp_path / "two_calls.py")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    workers = [int(pid) for pid in done.stdout.split()]
    assert len(workers) == 2
    for pid in workers:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    csvs = [(tmp_path / k / "trials.csv").read_bytes() for k in ("0", "1")]
    assert csvs[0] == csvs[1]


def test_monte_carlo_aggregates_are_exact_counts():
    report = run_monte_carlo(MonteCarloConfig(n=12, p=0.5, trials=37, seed=5, out_dir=None))
    holds = sum(1 for r in report.rows if r.check.holds)
    assert report.holds_fraction == holds / 37
    ez = sum(1 for r in report.rows if r.events.event_z)
    assert report.event_z_fraction == ez / 37
    assert report.not_z_fraction == (37 - ez) / 37
    assert report.min_slack == min(r.check.slack for r in report.rows)


def test_monte_carlo_invalid_trials_flagged():
    cfg = MonteCarloConfig(
        n=120, p=0.9, trials=2, seed=1, out_dir=None, clique_time_budget=1e-4
    )
    report = run_monte_carlo(cfg)
    assert report.invalid_trials >= 1
    assert any(not r.certified for r in report.rows)


def test_edge_mass_event_never_fails_at_tiny_tail():
    # at n=40, p=0.5, eps=0.2 the edge tail is exp(-15.6) ~ 1.7e-7, so no
    # draw should ever land below the (1-eps) edge mass
    report = run_monte_carlo(
        MonteCarloConfig(n=40, p=0.5, trials=200, seed=4040, eps=0.2, out_dir=None)
    )
    assert report.hoeffding_tail < 1e-6
    assert report.not_z_fraction == 0.0
    assert report.event_z_fraction == 1.0
    assert report.holds_fraction == 1.0


def test_implication_beyond_crossover():
    # parameters with a desk-scale crossover: n0 ~ 1212 < n = 1250
    params = BoundParams(eps=0.5, p=0.125, c0=0.001)
    rep = envelope_thresholds(params)
    n = 1250
    assert rep.p_admissible and rep.n0 < n
    lhs, rhs = envelope_sides(n, params)
    assert lhs <= rhs  # the guaranteed envelope crossover, checked numerically
    report = run_monte_carlo(
        MonteCarloConfig(n=n, p=0.125, trials=3, seed=77, eps=0.5, c0=0.001, out_dir=None)
    )
    chained = 0
    for row in report.rows:
        ev = row.events
        if ev.event_x and ev.event_y and ev.event_z:
            chained += 1
            assert row.check.holds  # the chained implication, row by row
    assert report.holds_fraction >= chained / report.config.trials
    assert chained >= 1  # this regime actually exercises the implication
