"""Closed-form bounds, thresholds, and tail estimates for G(n,p) spectra.

Log convention: natural logarithm everywhere. All quantities here are the
finite-n numeric surrogates of asymptotic statements; nothing in this module
asserts a probability of exactly 1 at finite n.

The envelope machinery compares two sides at a given scale n:

  lhs(n) = (1+eps) p^2 n^2 + 4 p(1-p) n
           + 4 C0 (p(1-p))^(1/2) n^(5/6) log n + C0^2 n^(2/3) (log n)^2
  rhs(n) = p (1-eps) n (n-1) (1 - log(1/p) / (2 (1-eps) log n))

lhs dominates lambda1^2 + lambda2^2 with high probability (Juhasz plus
Furedi-Komlos); rhs is a high-probability lower bound on 2 e(G) (1 - 1/omega)
(Hoeffding edge concentration plus the Grimmett-McDiarmid clique growth). For
admissible p, lhs(n) <= rhs(n) for every n beyond the crossover threshold n0
reported by `envelope_thresholds`; the per-term thresholds m0..m4 are the
scales past which each lhs term fits its budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BoundParams:
    """Slack eps in (0,1), edge probability p in (0,1), finite spectral constant c0 > 0."""

    eps: float
    p: float
    c0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1)")
        if not 0.0 < self.c0 < math.inf:
            raise ValueError("c0 must be positive and finite")


@dataclass(frozen=True)
class ThresholdReport:
    """Crossover thresholds for the envelope inequality at parameters (eps, p, c0).

    n0_prime = max(m0, m1, m2) bounds the spectral-side terms;
    n0_double_prime = max(m3, m4) bounds the edge-clique side discounts;
    n0 = max of the two. Values can be astronomically large; overflow is
    reported as inf. p_admissible records p <= p_max = (1-eps)^2 / (1+2 eps).
    """

    m0: float
    m1: float
    m2: float
    m3: float
    m4: float
    n0_prime: float
    n0_double_prime: float
    n0: float
    p_max: float
    p_admissible: bool


def admissible_p_max(eps: float) -> float:
    """Largest edge probability for which the envelope crossover is guaranteed."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return (1.0 - eps) ** 2 / (1.0 + 2.0 * eps)


def _log_inverse(p: float) -> float:
    """log(1/p), also once 1/p overflows (p below about 5.6e-309), where it
    is -log(p); at every other p it is math.log(1.0 / p) to the bit."""
    inverse = 1.0 / p
    return math.log(inverse) if inverse < math.inf else -math.log(p)


def _overflow_to_inf(fn) -> float:
    """fn(), or inf when it overflows or divides by a denominator that
    underflowed to 0 (eps * p * p once p is below about 5e-162)."""
    try:
        return fn()
    except (OverflowError, ZeroDivisionError):
        return math.inf


def envelope_thresholds(params: BoundParams) -> ThresholdReport:
    """Per-term thresholds m0..m4 and their maxima n0', n0'', n0.

    Inadmissible p (p > p_max) is a reported state, not an error, so parameter
    sweeps can chart the admissible region.
    """
    eps, p, c0 = params.eps, params.p, params.c0
    m0 = _overflow_to_inf(lambda: 12.0 * (1.0 - p) / (eps * p))
    m1 = _overflow_to_inf(lambda: (12.0 * c0 * math.sqrt(p * (1.0 - p)) / (eps * p * p)) ** 6)
    m2 = _overflow_to_inf(lambda: (3.0 * c0 * c0 / (eps * p * p)) ** 3)
    root = 1.0 - math.sqrt(1.0 - eps)
    m3 = 1.0 / root
    m4 = _overflow_to_inf(lambda: math.exp(_log_inverse(p) / (root * 2.0 * (1.0 - eps))))
    n0_prime = max(m0, m1, m2)
    n0_double_prime = max(m3, m4)
    p_max = admissible_p_max(eps)
    return ThresholdReport(
        m0=m0,
        m1=m1,
        m2=m2,
        m3=m3,
        m4=m4,
        n0_prime=n0_prime,
        n0_double_prime=n0_double_prime,
        n0=max(n0_prime, n0_double_prime),
        p_max=p_max,
        p_admissible=p <= p_max,
    )


def envelope_sides(n: float, params: BoundParams) -> tuple[float, float]:
    """Both envelope sides at scale n (n may be a real; thresholds often exceed 2**53)."""
    if n < 2:
        raise ValueError("envelope sides need n >= 2")
    eps, p, c0 = params.eps, params.p, params.c0
    log_n = math.log(n)
    lhs = (
        (1.0 + eps) * p * p * n * n
        + 4.0 * p * (1.0 - p) * n
        + 4.0 * c0 * math.sqrt(p * (1.0 - p)) * n ** (5.0 / 6.0) * log_n
        + c0 * c0 * n ** (2.0 / 3.0) * log_n * log_n
    )
    rhs = p * n * (n - 1.0) * (1.0 - eps) * (1.0 - _log_inverse(p) / (2.0 * (1.0 - eps) * log_n))
    return lhs, rhs


def juhasz_expected_lambda1(n: int, p: float) -> float:
    """Finite-n surrogate of the almost-sure limit lambda1 / n -> p: just p * n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return p * n


def fk_lambda2_bound(n: int, params: BoundParams) -> float:
    """Furedi-Komlos style high-probability bound on lambda2:
    2 sqrt(p (1-p) n) + c0 n^(1/3) log n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, c0 = params.p, params.c0
    return 2.0 * math.sqrt(p * (1.0 - p) * n) + c0 * n ** (1.0 / 3.0) * math.log(n)


def clique_asymptote(n: int, p: float) -> float:
    """Grimmett-McDiarmid clique growth scale: 2 log n / log(1/p)."""
    if n < 2:
        raise ValueError("clique asymptote needs n >= 2")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return 2.0 * math.log(n) / _log_inverse(p)


def hoeffding_edge_tail(n: int, p: float, eps: float) -> float:
    """Hoeffding bound on P(e(G) <= (1-eps) p n(n-1)/2): exp(-eps^2 p^2 n(n-1))."""
    if n < 2:
        raise ValueError("edge tail needs n >= 2")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return math.exp(-(eps * eps) * (p * p) * n * (n - 1.0))


def theorem_lower_bound(n: int, p: float, eps: float) -> float:
    """Lower bound 1 - exp(-C n(n-1)), C = eps^2 p^2, on the checker's holding
    probability; exactly the complement of `hoeffding_edge_tail`."""
    return 1.0 - hoeffding_edge_tail(n, p, eps)
