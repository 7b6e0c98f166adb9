"""Per-graph inequality checking, proof-event decomposition, and the Monte
Carlo harness.

The inequality under test, for a graph with e edges, clique number omega, and
top adjacency eigenvalues lambda1 >= lambda2:

    lambda1^2 + lambda2^2  <=  2 e (1 - 1/omega)

Complete graphs violate it as stated (slack is exactly -1 for every K_n); the
checker reports them truthfully with is_complete set rather than excluding
them. A violating *non-complete* graph would be a reportable counterexample,
which is why the harness surfaces those through a dedicated exit status.

Each Monte Carlo trial also records three event flags that decompose why the
inequality held, each an explicit numeric comparison:

    event_x: lambda1^2 + lambda2^2        <= spectral envelope lhs(n)
    event_y: 1 - log(1/p)/(2(1-eps)log n) <= 1 - 1/omega
    event_z: (1-eps) p n(n-1)/2           <= e

For n beyond the envelope crossover n0, x and y and z together force the
inequality, and that implication is checkable row by row.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat
from multiprocessing import get_context
from pathlib import Path

from .bounds import BoundParams, envelope_sides, hoeffding_edge_tail, theorem_lower_bound
from .clique import max_clique
from .errors import UncertifiedCliqueError
from .graph import GnpParams, Graph, derive_trial_seed, sample_gnp
from .spectral import DENSE_LIMIT, top_two

EQUALITY_TOL = 1e-9

CSV_HEADER = (
    "trial,seed,n,p,e,omega,lambda1,lambda2,lhs,rhs,slack,holds,"
    "event_x,event_y,event_z,is_complete,certified"
)


@dataclass(frozen=True)
class InequalityCheck:
    """One evaluation of the inequality on a concrete graph."""

    n: int
    e: int
    omega: int
    lambda1: float
    lambda2: float
    lhs: float
    rhs: float
    slack: float
    holds: bool
    is_complete: bool


@dataclass(frozen=True)
class EventTriple:
    """The three per-sample comparisons, with their numeric sides recorded."""

    event_x: bool
    event_y: bool
    event_z: bool
    x_lhs: float
    x_rhs: float
    y_lhs: float
    y_rhs: float
    z_lhs: float
    z_rhs: float


def _inequality_check(n: int, e: int, omega: int, lam1: float, lam2: float) -> InequalityCheck:
    lhs = lam1 * lam1 + lam2 * lam2
    # Single rounding: 2e(1 - 1/omega) evaluated as an exact integer numerator
    # over omega, so equality cases (paths, stars) and complete graphs land on
    # exact values.
    rhs = (2.0 * e * (omega - 1)) / omega
    holds = lhs <= rhs + EQUALITY_TOL * max(1.0, rhs)
    return InequalityCheck(
        n=n,
        e=e,
        omega=omega,
        lambda1=lam1,
        lambda2=lam2,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        holds=holds,
        is_complete=e == n * (n - 1) // 2,
    )


def _event_triple(check: InequalityCheck, params: BoundParams) -> EventTriple:
    n = check.n
    x_lhs = check.lhs
    x_rhs = envelope_sides(n, params)[0]
    y_lhs = 1.0 - math.log(1.0 / params.p) / (2.0 * (1.0 - params.eps) * math.log(n))
    y_rhs = 1.0 - 1.0 / check.omega
    z_lhs = (1.0 - params.eps) * params.p * n * (n - 1) / 2.0
    z_rhs = float(check.e)
    return EventTriple(
        event_x=x_lhs <= x_rhs,
        event_y=y_lhs <= y_rhs,
        event_z=z_lhs <= z_rhs,
        x_lhs=x_lhs,
        x_rhs=x_rhs,
        y_lhs=y_lhs,
        y_rhs=y_rhs,
        z_lhs=z_lhs,
        z_rhs=z_rhs,
    )


def _measure(
    g: Graph, clique_time_budget: float | None
) -> tuple[InequalityCheck, bool, float, float]:
    """Measure g once: the inequality's sides, whether omega is certified, and
    the seconds spent in `top_two` and in `max_clique`."""
    t0 = time.perf_counter()
    summary = top_two(g)
    t1 = time.perf_counter()
    clique = max_clique(g, time_budget=clique_time_budget)
    t2 = time.perf_counter()
    check = _inequality_check(g.n, g.edge_count, clique.omega, summary.lambda1, summary.lambda2)
    return check, not clique.time_limited, t1 - t0, t2 - t1


def check_conjecture(g: Graph, *, clique_time_budget: float | None = None) -> InequalityCheck:
    """Evaluate the inequality on g with certified omega and residual-checked
    eigenvalues. Raises ValueError for n < 2, and UncertifiedCliqueError if the
    clique search times out."""
    check, certified, _, _ = _measure(g, clique_time_budget)
    if not certified:
        raise UncertifiedCliqueError("clique search hit its time budget; omega not certified")
    return check


def check_proof_events(
    g: Graph, params: BoundParams, *, clique_time_budget: float | None = None
) -> EventTriple:
    """Evaluate the three event comparisons on g at the given parameters."""
    return _event_triple(check_conjecture(g, clique_time_budget=clique_time_budget), params)


@dataclass(frozen=True)
class MonteCarloConfig:
    n: int
    p: float
    trials: int
    seed: int = 0
    eps: float = 0.5
    c0: float = 1.0
    out_dir: str | None = None
    clique_time_budget: float | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("monte carlo needs n >= 2")
        if not 0.0 < self.p < 1.0:
            raise ValueError("monte carlo needs 0 < p < 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        BoundParams(self.eps, self.p, self.c0)  # validates eps/c0

    @classmethod
    def from_dict(cls, raw: dict) -> "MonteCarloConfig":
        """Config document keys: n, p, eps, C0, trials, seed, out_dir,
        clique_time_budget. Unknown keys are rejected. Older documents may
        also say "dense_limit": 2048; the eigensolver route is fixed by n, so
        any other value is rejected."""
        data = dict(raw)
        if data.pop("dense_limit", DENSE_LIMIT) != DENSE_LIMIT:
            raise ValueError(
                f"config key 'dense_limit' must be {DENSE_LIMIT} if given; "
                "the eigensolver route is chosen from n"
            )
        if "C0" in data and "c0" in data:
            raise ValueError("config sets both 'C0' and 'c0'")
        if "C0" in data:
            data["c0"] = data.pop("C0")
        allowed = {
            "n", "p", "trials", "seed", "eps", "c0", "out_dir", "clique_time_budget",
        }
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"n", "p", "trials"} - set(data)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(**data)

    def echo(self) -> dict:
        """Config as written to reports (C0 spelled as in the config schema)."""
        return {
            "n": self.n,
            "p": self.p,
            "eps": self.eps,
            "C0": self.c0,
            "trials": self.trials,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "dense_limit": DENSE_LIMIT,
            "clique_time_budget": self.clique_time_budget,
        }


@dataclass(frozen=True)
class TrialRow:
    trial: int
    seed: int
    check: InequalityCheck
    events: EventTriple
    certified: bool
    spectral_seconds: float
    clique_seconds: float

    def csv_line(self, p: float) -> str:
        c, ev = self.check, self.events
        cells = [
            str(self.trial),
            str(self.seed),
            str(c.n),
            repr(p),
            str(c.e),
            str(c.omega),
            repr(c.lambda1),
            repr(c.lambda2),
            repr(c.lhs),
            repr(c.rhs),
            repr(c.slack),
            _csv_bool(c.holds),
            _csv_bool(ev.event_x),
            _csv_bool(ev.event_y),
            _csv_bool(ev.event_z),
            _csv_bool(c.is_complete),
            _csv_bool(self.certified),
        ]
        return ",".join(cells)


def _csv_bool(value: bool) -> str:
    return "true" if value else "false"


def _run_trial(config: MonteCarloConfig, trial: int) -> TrialRow:
    """One trial: sample, measure, compare. Pure in (config, trial)."""
    seed = derive_trial_seed(config.seed, trial)
    g = sample_gnp(GnpParams(config.n, config.p, seed))
    check, certified, spectral_seconds, clique_seconds = _measure(g, config.clique_time_budget)
    return TrialRow(
        trial=trial,
        seed=seed,
        check=check,
        events=_event_triple(check, BoundParams(config.eps, config.p, config.c0)),
        certified=certified,
        spectral_seconds=spectral_seconds,
        clique_seconds=clique_seconds,
    )


@dataclass(frozen=True)
class MonteCarloReport:
    config: MonteCarloConfig
    rows: list[TrialRow]
    holds_fraction: float
    event_x_fraction: float
    event_y_fraction: float
    event_z_fraction: float
    not_z_fraction: float
    min_slack: float
    theorem_lower_bound: float
    hoeffding_tail: float
    invalid_trials: int
    complete_draws: int
    violating_noncomplete: int
    csv_path: str | None = None
    json_path: str | None = None

    def aggregate_dict(self) -> dict:
        return {
            "config": self.config.echo(),
            "holds_fraction": self.holds_fraction,
            "event_x_fraction": self.event_x_fraction,
            "event_y_fraction": self.event_y_fraction,
            "event_z_fraction": self.event_z_fraction,
            "not_z_fraction": self.not_z_fraction,
            "min_slack": self.min_slack,
            "theorem_lower_bound": self.theorem_lower_bound,
            "hoeffding_tail": self.hoeffding_tail,
            "invalid_trials": self.invalid_trials,
            "complete_draws": self.complete_draws,
            "violating_noncomplete": self.violating_noncomplete,
        }


def run_monte_carlo(config: MonteCarloConfig, *, threads: int = 1) -> MonteCarloReport:
    """Run the harness: `trials` independent draws, per-trial CSV rows plus an
    aggregate JSON, both written under out_dir (if set) in trial order.

    Trials are pure functions of (master seed, trial index, config), so the
    rows, and therefore the output bytes, are independent of the worker count.
    """
    if threads > 1:
        # spawn, not fork: BLAS thread pools in the parent do not survive
        # forking reliably.
        with ProcessPoolExecutor(
            max_workers=threads, mp_context=get_context("spawn")
        ) as pool:
            chunksize = max(1, config.trials // (8 * threads))
            rows = list(
                pool.map(_run_trial, repeat(config), range(config.trials), chunksize=chunksize)
            )
    else:
        rows = list(map(_run_trial, repeat(config), range(config.trials)))

    trials = config.trials
    holds = sum(1 for r in rows if r.check.holds)
    ex = sum(1 for r in rows if r.events.event_x)
    ey = sum(1 for r in rows if r.events.event_y)
    ez = sum(1 for r in rows if r.events.event_z)
    report = MonteCarloReport(
        config=config,
        rows=rows,
        holds_fraction=holds / trials,
        event_x_fraction=ex / trials,
        event_y_fraction=ey / trials,
        event_z_fraction=ez / trials,
        not_z_fraction=(trials - ez) / trials,
        min_slack=min(r.check.slack for r in rows),
        theorem_lower_bound=theorem_lower_bound(config.n, config.p, config.eps),
        hoeffding_tail=hoeffding_edge_tail(config.n, config.p, config.eps),
        invalid_trials=sum(1 for r in rows if not r.certified),
        complete_draws=sum(1 for r in rows if r.check.is_complete),
        violating_noncomplete=sum(
            1 for r in rows if r.certified and not r.check.holds and not r.check.is_complete
        ),
    )
    if config.out_dir is not None:
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "trials.csv"
        json_path = out_dir / "aggregate.json"
        with open(csv_path, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                fh.write(row.csv_line(config.p) + "\n")
        with open(json_path, "w") as fh:
            fh.write(json.dumps(report.aggregate_dict(), indent=2) + "\n")
        report = replace(report, csv_path=str(csv_path), json_path=str(json_path))
    return report
