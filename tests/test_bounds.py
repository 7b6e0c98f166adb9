import math

import pytest

from bncheck import (
    BoundParams,
    Graph,
    admissible_p_max,
    check_proof_events,
    clique_asymptote,
    envelope_sides,
    envelope_thresholds,
    fk_lambda2_bound,
    hoeffding_edge_tail,
    juhasz_expected_lambda1,
    theorem_lower_bound,
)


def rel_close(x, y, tol=1e-12):
    return abs(x - y) <= tol * max(1.0, abs(x), abs(y))


def test_bound_params_validation():
    for bad in (
        dict(eps=0.0, p=0.5),
        dict(eps=1.0, p=0.5),
        dict(eps=0.5, p=0.0),
        dict(eps=0.5, p=1.0),
        dict(eps=0.5, p=0.5, c0=0.0),
        dict(eps=0.5, p=0.5, c0=-1.0),
    ):
        with pytest.raises(ValueError):
            BoundParams(**bad)
    assert BoundParams(0.5, 0.1).c0 == 1.0


def test_thresholds_worked_example():
    # eps=0.5, p=0.1, c0=1: hand-checkable values
    rep = envelope_thresholds(BoundParams(0.5, 0.1, 1.0))
    assert rel_close(rep.m0, 216.0)
    assert rel_close(rep.m1, 720.0**6)  # ~1.3931e17
    assert rel_close(rep.m2, 600.0**3)  # 2.16e8
    assert rel_close(rep.m3, 1.0 / (1.0 - math.sqrt(0.5)))  # ~3.41421
    assert rel_close(rep.m4, math.exp(math.log(10.0) / (1.0 - math.sqrt(0.5))))  # ~2.60e3
    assert abs(rep.m4 - 2.60e3) < 10.0
    assert rep.p_max == 0.125
    assert rep.p_admissible
    assert rep.n0 == rep.m1  # m1 dominates here


def test_threshold_composition():
    rep = envelope_thresholds(BoundParams(0.3, 0.05, 2.0))
    assert rep.n0_prime == max(rep.m0, rep.m1, rep.m2)
    assert rep.n0_double_prime == max(rep.m3, rep.m4)
    assert rep.n0 == max(rep.n0_prime, rep.n0_double_prime)
    assert all(t > 0 for t in (rep.m0, rep.m1, rep.m2, rep.m3, rep.m4))


def test_m3_closed_form():
    # eps = 0.75 makes sqrt(1-eps) exactly 0.5
    rep = envelope_thresholds(BoundParams(0.75, 0.01, 1.0))
    assert rep.m3 == 2.0


def test_admissibility_flag():
    assert envelope_thresholds(BoundParams(0.5, 0.2, 1.0)).p_admissible is False  # 0.2 > 0.125
    assert envelope_thresholds(BoundParams(0.5, 0.125, 1.0)).p_admissible is True
    assert admissible_p_max(0.5) == 0.125
    with pytest.raises(ValueError):
        admissible_p_max(1.5)


def test_threshold_overflow_reported_as_inf():
    rep = envelope_thresholds(BoundParams(0.01, 0.0001, 1.0))
    assert rep.m4 == math.inf  # exponent ~ 928, past the double range
    assert rep.n0 == math.inf
    assert rep.p_admissible  # p_max(0.01) ~ 0.96
    # a slightly tamer case stays finite but astronomically large
    tame = envelope_thresholds(BoundParams(0.01, 0.001, 1.0))
    assert 1e300 < tame.m4 < math.inf


@pytest.mark.parametrize("p", [1e-200, 5e-324])
@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_threshold_underflow_reported_as_inf(eps, p):
    # eps * p * p rounds to 0 here, and at p = 5e-324 so can eps * p: a division
    # by it is an infinite threshold, not a ZeroDivisionError
    rep = envelope_thresholds(BoundParams(eps, p, 1.0))
    assert rep.m1 == rep.m2 == rep.m4 == rep.n0 == math.inf
    if p == 5e-324:
        assert rep.m0 == math.inf
    else:
        assert rel_close(rep.m0, 12.0 / (eps * p))
    assert rep.m3 == 1.0 / (1.0 - math.sqrt(1.0 - eps)) and rep.p_admissible


def test_per_term_inequalities_hold_beyond_thresholds():
    params = BoundParams(0.5, 0.1, 1.0)
    eps, p, c0 = params.eps, params.p, params.c0
    rep = envelope_thresholds(params)
    budget = eps * p * p / 3.0
    root = math.sqrt(1.0 - eps)
    for factor in (1.01, 2.0, 10.0):
        n = rep.m0 * factor
        assert 4.0 * p * (1.0 - p) / n <= budget
        n = rep.m1 * factor
        assert 4.0 * c0 * math.sqrt(p * (1 - p)) * n ** (-7.0 / 6.0) * math.log(n) <= budget
        n = rep.m2 * factor
        assert c0 * c0 * n ** (-4.0 / 3.0) * math.log(n) ** 2 <= budget
        n = rep.m3 * factor
        assert 1.0 - 1.0 / n >= root
        n = rep.m4 * factor
        assert 1.0 - math.log(1.0 / p) / (2.0 * (1.0 - eps) * math.log(n)) >= root


def test_envelope_sides_formula():
    params = BoundParams(0.5, 0.1, 1.0)
    n = 1000.0
    lhs, rhs = envelope_sides(n, params)
    log_n = math.log(n)
    expected_lhs = (
        1.5 * 0.01 * n * n
        + 4 * 0.09 * n
        + 4 * math.sqrt(0.09) * n ** (5 / 6) * log_n
        + n ** (2 / 3) * log_n**2
    )
    expected_rhs = 0.1 * 0.5 * n * (n - 1) * (1 - math.log(10.0) / (1.0 * log_n))
    assert rel_close(lhs, expected_lhs)
    assert rel_close(rhs, expected_rhs)
    with pytest.raises(ValueError):
        envelope_sides(1, params)


def test_envelope_lhs_degenerates_without_spectral_terms():
    # with c0 denormal-small the two c0 terms vanish below double resolution
    params = BoundParams(0.3, 0.2, 1e-300)
    n = 500.0
    lhs, _ = envelope_sides(n, params)
    assert lhs == 1.3 * 0.04 * n * n + 4 * 0.2 * 0.8 * n


def test_envelope_holds_beyond_n0():
    # the guaranteed regime: admissible p, n above the crossover
    params = BoundParams(0.5, 0.1, 1.0)
    n0 = envelope_thresholds(params).n0
    for n in (n0 * 1.5, 2e17, n0 * 900):
        lhs, rhs = envelope_sides(n, params)
        assert lhs <= rhs


def test_envelope_rhs_positive_when_log_clears_discount():
    params = BoundParams(0.5, 0.1, 1.0)
    n_min = math.exp(math.log(10.0) / (2 * 0.5))  # log n > log(1/p)/(2(1-eps))
    for n in (n_min * 1.01, n_min * 10, n_min * 1000):
        _, rhs = envelope_sides(n, params)
        assert rhs > 0


def test_juhasz_surrogate():
    assert juhasz_expected_lambda1(100, 0.3) == 30.0
    assert juhasz_expected_lambda1(1, 0.7) == 0.7
    assert juhasz_expected_lambda1(400, 0.5) == 200.0
    with pytest.raises(ValueError):
        juhasz_expected_lambda1(0, 0.5)
    with pytest.raises(ValueError):
        juhasz_expected_lambda1(10, 1.5)


def test_fk_bound_values():
    params = BoundParams(0.5, 0.5, 1.0)
    assert fk_lambda2_bound(1, params) == 1.0  # log 1 = 0; 2*sqrt(0.25) = 1
    value = fk_lambda2_bound(100, params)
    assert rel_close(value, 10.0 + 100 ** (1 / 3) * math.log(100))
    assert abs(value - 31.3755) < 1e-3
    with pytest.raises(ValueError):
        fk_lambda2_bound(0, params)


def test_fk_bound_c0_term_vanishes():
    base = BoundParams(0.5, 0.5, 1e-300)
    assert fk_lambda2_bound(100, base) == 2.0 * math.sqrt(0.25 * 100)


def test_clique_asymptote():
    value = clique_asymptote(400, 0.5)
    assert rel_close(value, 2 * math.log(400) / math.log(2))
    assert abs(value - 17.2877) < 1e-3
    # doubling n adds exactly 2 ln 2 / ln(1/p)
    for p in (0.2, 0.5, 0.8):
        for n in (10, 100, 1000):
            gap = clique_asymptote(2 * n, p) - clique_asymptote(n, p)
            assert rel_close(gap, 2 * math.log(2) / math.log(1 / p), tol=1e-9)
    # increasing in n and p
    assert clique_asymptote(401, 0.5) > value
    assert clique_asymptote(400, 0.51) > value
    # p = 1/e makes log(1/p) = 1, so the value is just 2 log n
    assert clique_asymptote(3, 1.0 / math.e) == pytest.approx(2 * math.log(3), rel=1e-15)
    with pytest.raises(ValueError):
        clique_asymptote(1, 0.5)
    with pytest.raises(ValueError):
        clique_asymptote(400, 0.0)


def test_log_of_one_over_p_survives_subnormal_p():
    # 1.0 / p overflows to inf below p ~ 5.6e-309, which made the clique
    # asymptote 0.0 and the envelope rhs NaN (0 x -inf)
    p = 5e-324
    assert clique_asymptote(100, p) == pytest.approx(2 * math.log(100) / 744.44, rel=1e-5)
    _, rhs = envelope_sides(100, BoundParams(0.5, p))
    assert not math.isnan(rhs)
    assert envelope_thresholds(BoundParams(0.5, p)).m4 == math.inf
    ev = check_proof_events(Graph.from_edges(10, [(0, 1)]), BoundParams(0.5, p))
    assert ev.y_lhs == pytest.approx(1 - 744.44 / math.log(10), rel=1e-5) and ev.event_y is True
    # at ordinary p the bits are those of math.log(1.0 / p)
    for p in (0.5, 0.01, 1e-300, 5.6e-309, 1 - 1e-16):
        assert clique_asymptote(100, p) == 2.0 * math.log(100) / math.log(1.0 / p)


def test_hoeffding_tail_values():
    value = hoeffding_edge_tail(10, 0.5, 0.5)
    assert value == math.exp(-0.25 * 0.25 * 90)
    assert abs(value - 3.607e-3) < 1e-5
    assert hoeffding_edge_tail(2, 0.5, 0.5) == math.exp(-2 * 0.25 * 0.25)
    # eps -> 0+ drives the bound to 1
    assert hoeffding_edge_tail(10, 0.5, 1e-12) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        hoeffding_edge_tail(1, 0.5, 0.5)
    with pytest.raises(ValueError):
        hoeffding_edge_tail(10, 0.5, 0.0)


def test_hoeffding_tail_monotone_decreasing():
    base = hoeffding_edge_tail(20, 0.4, 0.3)
    assert 0 < base < 1
    assert hoeffding_edge_tail(21, 0.4, 0.3) < base
    assert hoeffding_edge_tail(20, 0.45, 0.3) < base
    assert hoeffding_edge_tail(20, 0.4, 0.35) < base


def test_theorem_lower_bound_complements_tail():
    for n, p, eps in [(10, 0.5, 0.5), (2, 0.3, 0.2), (50, 0.5, 0.5), (400, 0.1, 0.9)]:
        assert theorem_lower_bound(n, p, eps) + hoeffding_edge_tail(n, p, eps) == 1.0
    assert abs(theorem_lower_bound(10, 0.5, 0.5) - 0.99639) < 1e-4
    # grows toward 1 with n
    values = [theorem_lower_bound(n, 0.3, 0.3) for n in (2, 5, 10, 50)]
    assert values == sorted(values)
