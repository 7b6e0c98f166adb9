"""Finite-n frequencies of the proof's three events on seeded G(n, p) batches.

Runs `run_monte_carlo` once per (eps, p, n) cell, all in one process, with
p = f * p_max(eps) for each fraction f, and prints one CSV row per cell:

    eps,p,n,trials,undecided,holds,event_x,event_y,event_z,min_slack,holds_lower95

`holds` and `event_*` are the fractions of the cell's draws on which each one
held. `undecided` counts draws whose clique search hit --time-budget. Their
omega is a lower bound, so `holds` and `event_y` read true on them only when
they are true; a false reading there is counted as false. `holds_lower95` is
the exact one-sided 95% lower confidence bound on P(holds) from those counts.
After each (eps, p) block a comment line gives the smallest n of the grid at
which each column held on >= 95% of the draws, next to the envelope
thresholds m0..m4 (`bncheck thresholds`).

    PYTHONPATH=src python experiments/events_sweep.py --n 50 100 200 --trials 100 --threads 2
"""

from __future__ import annotations

import argparse
import math

from bncheck import BoundParams, MonteCarloConfig, admissible_p_max, envelope_thresholds
from bncheck import run_monte_carlo

COLUMNS = ("holds", "event_x", "event_y", "event_z")


def binomial_lower_bound(k: int, n: int, alpha: float = 0.05) -> float:
    """The exact (Clopper-Pearson) one-sided lower confidence bound on a success
    probability q after k successes in n draws: the q at which
    P(Binomial(n, q) >= k) = alpha. 500 of 500 gives 0.994 at alpha = 0.05."""
    if k == 0:
        return 0.0

    def tail(q: float) -> float:
        log_q, log_1q = math.log(q), math.log1p(-q)
        return math.fsum(
            math.exp(
                math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                + i * log_q + (n - i) * log_1q
            )
            for i in range(k, n + 1)
        )

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if tail(mid) > alpha else (mid, hi)
    return lo


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps", type=float, nargs="+", default=[0.05, 0.1, 0.25, 0.5])
    ap.add_argument("--fractions", type=float, nargs="+", default=[0.2, 0.5, 0.8],
                    help="edge probabilities as fractions of p_max(eps)")
    ap.add_argument("--n", type=int, nargs="+", default=[50, 100, 200])
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--time-budget", type=float, default=1.0,
                    help="seconds per clique search before a draw is undecided")
    args = ap.parse_args(argv)

    print("eps,p,n,trials,undecided,holds,event_x,event_y,event_z,min_slack,holds_lower95")
    for eps in args.eps:
        for fraction in args.fractions:
            p = fraction * admissible_p_max(eps)
            first = dict.fromkeys(COLUMNS, "-")
            for n in sorted(args.n):
                config = MonteCarloConfig(n=n, p=p, trials=args.trials, seed=args.seed, eps=eps,
                                          clique_time_budget=args.time_budget)
                report = run_monte_carlo(config, threads=args.threads)
                fractions = (report.holds_fraction, report.event_x_fraction,
                             report.event_y_fraction, report.event_z_fraction)
                for name, value in zip(COLUMNS, fractions):
                    if value >= 0.95 and first[name] == "-":
                        first[name] = str(n)
                holds = sum(row.check.holds for row in report.rows)
                cells = [eps, f"{p:.6g}", n, args.trials, report.invalid_trials,
                         *fractions, f"{report.min_slack:.6g}",
                         f"{binomial_lower_bound(holds, args.trials):.4f}"]
                print(",".join(map(str, cells)))
            m = envelope_thresholds(BoundParams(eps, p, config.c0))
            print(f"# eps={eps} p={p:.6g} first n at >= 95%: "
                  + " ".join(f"{name}={first[name]}" for name in COLUMNS)
                  + f" | m0={m.m0:.3g} m1={m.m1:.3g} m2={m.m2:.3g} m3={m.m3:.3g} m4={m.m4:.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
