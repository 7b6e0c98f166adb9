"""Acceptance suite: one test per criterion, each printing a PASS line with its
runtime (visible under pytest -s). The heavy criteria pin their runtime caps.
"""

import json
import math
import random
import time

from bncheck import (
    GnpParams,
    check_conjecture,
    clique_asymptote,
    cli,
    derive_trial_seed,
    fk_lambda2_bound,
    max_clique,
    sample_gnp,
    theorem_lower_bound,
    top_two,
)
from bncheck.bounds import BoundParams, admissible_p_max, envelope_sides, envelope_thresholds
from bncheck.experiment import MonteCarloConfig, run_monte_carlo
from reference import full_spectrum, make_named, max_clique_bruteforce


def _report(number: int, elapsed: float, cap: float, detail: str) -> None:
    print(f"PASS criterion {number}: {detail} [{elapsed:.1f}s < {cap:.0f}s]")
    assert elapsed < cap


def test_criterion_1_closed_form_spectra():
    t0 = time.perf_counter()
    tol = 1e-9
    checked = 0
    for n in range(2, 51):
        s = top_two(make_named("complete", n))
        assert abs(s.lambda1 - (n - 1)) <= tol and abs(s.lambda2 + 1) <= tol
        checked += 1
    for n in range(3, 51):
        s = top_two(make_named("cycle", n))
        assert abs(s.lambda1 - 2.0) <= tol
        assert abs(s.lambda2 - 2.0 * math.cos(2.0 * math.pi / n)) <= tol
        checked += 1
    for n in range(2, 51):
        s = top_two(make_named("path", n))
        assert abs(s.lambda1 - 2.0 * math.cos(math.pi / (n + 1))) <= tol
        assert abs(s.lambda2 - 2.0 * math.cos(2.0 * math.pi / (n + 1))) <= tol
        checked += 1
    for n in range(2, 51):
        for a in range(1, n // 2 + 1):
            b = n - a
            s = top_two(make_named("complete_bipartite", n, a=a, b=b))
            assert abs(s.lambda1 - math.sqrt(a * b)) <= tol
            expected_l2 = -1.0 if n == 2 else 0.0  # K_{1,1} is K2
            assert abs(s.lambda2 - expected_l2) <= tol
            checked += 1
    _report(1, time.perf_counter() - t0, 10.0, f"{checked} closed-form spectra within 1e-9")


def test_criterion_2_frobenius_and_trace():
    t0 = time.perf_counter()
    rng = random.Random(20250401)
    for _ in range(100):
        n = rng.randint(2, 64)
        p = rng.uniform(0.05, 0.95)
        g = sample_gnp(GnpParams(n, p, seed=rng.getrandbits(63)))
        w = full_spectrum(g)
        frob = sum(x * x for x in w)
        assert abs(frob - 2 * g.edge_count) <= 1e-6 * max(1.0, 2 * g.edge_count)
        assert abs(sum(w)) <= 1e-8
    _report(2, time.perf_counter() - t0, 30.0, "sum(w^2)=2e and sum(w)=0 on 100 random graphs")


def test_criterion_3_clique_oracle_equivalence():
    t0 = time.perf_counter()
    count = 0
    for p in (0.2, 0.5, 0.8):
        for k in range(100):
            n = 6 + k % 7
            g = sample_gnp(GnpParams(n, p, seed=derive_trial_seed(300 + int(p * 10), k)))
            assert max_clique(g).omega == max_clique_bruteforce(g)
            count += 1
    _report(3, time.perf_counter() - t0, 60.0, f"branch-and-bound == brute force on {count} graphs")


def test_criterion_4_holding_frequency():
    t0 = time.perf_counter()
    report = run_monte_carlo(
        MonteCarloConfig(n=50, p=0.5, trials=500, seed=20250808, eps=0.5, c0=1.0, out_dir=None)
    )
    bound = theorem_lower_bound(50, 0.5, 0.5)
    assert report.holds_fraction == 1.0
    assert report.complete_draws == 0
    assert report.violating_noncomplete == 0
    assert report.holds_fraction >= bound
    _report(
        4,
        time.perf_counter() - t0,
        300.0,
        f"holds_fraction=1.0 over 500 trials at n=50, p=0.5 (bound {bound})",
    )


def test_criterion_5_complete_graphs_violate():
    t0 = time.perf_counter()
    # "slack = -1 exactly" is pinned at 1e-12: the eigensolver carries ~2 ulp
    # on K3, so bitwise equality is not attainable without faking values.
    for n in (2, 3):
        chk = check_conjecture(make_named("complete", n))
        assert chk.holds is False
        assert chk.is_complete is True
        assert abs(chk.slack + 1.0) <= 1e-12
        assert abs((chk.lhs - chk.rhs) - 1.0) <= 1e-12
    for n in (4, 7, 12):
        chk = check_conjecture(make_named("complete", n))
        assert not chk.holds and abs(chk.slack + 1.0) <= 1e-12
    _report(5, time.perf_counter() - t0, 10.0, "K_n slack is -1 (within 1e-12) with is_complete")


def test_criterion_6_envelope_grid():
    t0 = time.perf_counter()
    points = 0
    for eps in (0.3, 0.5, 0.7):
        p_max = admissible_p_max(eps)
        for p in (p_max / 4, p_max / 2, p_max):
            for c0 in (0.5, 1.0, 2.0):
                params = BoundParams(eps, p, c0)
                rep = envelope_thresholds(params)
                assert rep.p_admissible
                assert math.isfinite(rep.n0)
                for j in range(20):
                    n = rep.n0 * 1000.0 ** ((j + 1) / 20.0)
                    lhs, rhs = envelope_sides(n, params)
                    assert lhs <= rhs, (eps, p, c0, n)
                    points += 1
    _report(6, time.perf_counter() - t0, 1.0, f"lhs <= rhs at all {points} grid points")


def test_criterion_7_lambda1_tracks_pn():
    t0 = time.perf_counter()
    p = 0.3
    for n, cap in ((100, 0.05), (200, 0.05), (400, 0.02)):
        ratios = []
        for k in range(20):
            g = sample_gnp(GnpParams(n, p, seed=derive_trial_seed(700 + n, k)))
            ratios.append(top_two(g).lambda1 / n)
        mean = sum(ratios) / len(ratios)
        assert abs(mean - p) <= cap, (n, mean)
    _report(7, time.perf_counter() - t0, 120.0, "mean lambda1/n within 0.05 (0.02 at n=400) of p")


def test_criterion_8_lambda2_below_fk_bound():
    t0 = time.perf_counter()
    params = BoundParams(eps=0.5, p=0.5, c0=1.0)
    bound = fk_lambda2_bound(400, params)
    assert abs(bound - (20.0 + 400 ** (1 / 3) * math.log(400))) < 1e-9
    for k in range(20):
        g = sample_gnp(GnpParams(400, 0.5, seed=derive_trial_seed(800, k)))
        lam2 = top_two(g).lambda2
        assert lam2 <= bound, (k, lam2, bound)
    _report(8, time.perf_counter() - t0, 120.0, f"20 samples of lambda2 below {bound:.2f}")


def test_criterion_9_omega_tracks_asymptote():
    t0 = time.perf_counter()
    target = clique_asymptote(400, 0.5)
    lo, hi = 0.55 * target, 1.10 * target
    omegas = []
    for k in range(5):
        g = sample_gnp(GnpParams(400, 0.5, seed=derive_trial_seed(900, k)))
        result = max_clique(g)
        assert not result.time_limited
        assert lo <= result.omega <= hi, (k, result.omega, lo, hi)
        omegas.append(result.omega)
    _report(
        9,
        time.perf_counter() - t0,
        600.0,
        f"exact omega {omegas} inside [{lo:.1f}, {hi:.1f}]",
    )


def test_criterion_10_edge_count_tail():
    t0 = time.perf_counter()
    n, p, eps = 40, 0.5, 0.2
    threshold = (1 - eps) * p * n * (n - 1) / 2  # = 312
    assert threshold == 312.0
    low = sum(
        1
        for k in range(1000)
        if sample_gnp(GnpParams(n, p, seed=derive_trial_seed(1000, k))).edge_count < threshold
    )
    assert low == 0
    tail = math.exp(-(eps**2) * (p**2) * n * (n - 1))
    assert abs(tail - math.exp(-15.6)) < 1e-12
    _report(10, time.perf_counter() - t0, 120.0, f"0/1000 trials below e=312 (tail {tail:.2e})")


def test_criterion_11_csv_determinism_across_threads(tmp_path, capsys):
    t0 = time.perf_counter()
    results = {}
    for threads in (1, 2):
        out_dir = tmp_path / f"threads{threads}"
        cfg = {"n": 20, "p": 0.5, "eps": 0.5, "C0": 1.0, "trials": 30, "seed": 1234,
               "out_dir": str(out_dir)}
        cfg_path = tmp_path / f"cfg{threads}.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main(["montecarlo", "--config", str(cfg_path), "--threads", str(threads)])
        assert code == 0
        results[threads] = (out_dir / "trials.csv").read_bytes()
    capsys.readouterr()
    assert results[1] == results[2]
    _report(
        11,
        time.perf_counter() - t0,
        120.0,
        f"byte-identical CSV ({len(results[1])} bytes) for --threads 1 vs 2",
    )
