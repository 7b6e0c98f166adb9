"""Output checks for the Monte Carlo benchmark, computed apart from bncheck.

Nothing here imports bncheck. The trial seeds and the G(n,p) edge sets are
regenerated from a splitmix64 written in this file, the top two eigenvalues
come from numpy/scipy on a matrix built from that edge set, and the clique
number comes from networkx. The remaining checks are identities and theorems
that every `trials.csv` row and every `aggregate.json` must satisfy.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MUL1 = 0xBF58476D1CE4E5B9
MUL2 = 0x94D049BB133111EB

# Eigenvalues from two different solvers agree to this share of max(1, lambda1);
# both sides certify residuals near 1e-9 of that scale.
LAMBDA_TOL = 1e-7
# Relative width of the band around a comparison in which either verdict of a
# recorded flag is accepted (the program and this file round differently).
FLAG_TOL = 1e-9
# Above this n the eigenvalue oracle is ARPACK on CSR instead of dense LAPACK.
DENSE_ORACLE_MAX_N = 400

COLUMNS = (
    "trial", "seed", "n", "p", "e", "omega", "lambda1", "lambda2", "lhs", "rhs",
    "slack", "holds", "event_x", "event_y", "event_z", "is_complete", "certified",
)
INT_COLUMNS = ("trial", "seed", "n", "e", "omega")
BOOL_COLUMNS = ("holds", "event_x", "event_y", "event_z", "is_complete", "certified")


def splitmix64_at(seed: int, index: int) -> int:
    """Output `index` (0-based) of the splitmix64 stream seeded with `seed`."""
    z = (seed + (index + 1) * GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * MUL1) & MASK64
    z = ((z ^ (z >> 27)) * MUL2) & MASK64
    return z ^ (z >> 31)


def splitmix64_block(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the splitmix64 stream as uint64 (wrapping)."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(GAMMA)
    z += np.uint64(seed & MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(MUL2)
    z ^= z >> np.uint64(31)
    return z


@dataclass(frozen=True)
class EdgeSet:
    """A simple graph on 0..n-1 as two endpoint arrays with u < v."""

    n: int
    u: np.ndarray
    v: np.ndarray

    @property
    def e(self) -> int:
        return int(self.u.size)

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate([self.u, self.v]), minlength=self.n)

    def csr(self) -> sp.csr_matrix:
        rows = np.concatenate([self.u, self.v])
        cols = np.concatenate([self.v, self.u])
        data = np.ones(rows.size, dtype=np.float64)
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n, self.n))

    def networkx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(zip(self.u.tolist(), self.v.tolist()))
        return g


def gnp_edges(n: int, p: float, seed: int) -> EdgeSet:
    """G(n,p) by the frozen rule: one draw per pair of the row-major strict
    upper triangle, an edge iff the draw is below floor(p * 2**64)."""
    pairs = n * (n - 1) // 2
    threshold = int(p * 2.0**64)
    hit = np.flatnonzero(splitmix64_block(seed, pairs) < np.uint64(threshold))
    # Pair index k of row i starts at offset(i) = i*n - i*(i+1)/2.
    starts = np.array([i * n - i * (i + 1) // 2 for i in range(n)], dtype=np.int64)
    u = np.searchsorted(starts, hit, side="right") - 1
    v = hit - starts[u] + u + 1
    return EdgeSet(n, u.astype(np.int64), v.astype(np.int64))


def edges_from_pairs(n: int, pairs) -> EdgeSet:
    pairs = sorted((min(a, b), max(a, b)) for a, b in pairs)
    arr = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return EdgeSet(n, arr[:, 0].copy(), arr[:, 1].copy())


def read_dimacs(text: str) -> EdgeSet:
    n = None
    pairs = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "p":
            n = int(parts[2])
        elif parts and parts[0] == "e":
            pairs.append((int(parts[1]) - 1, int(parts[2]) - 1))
    if n is None:
        raise ValueError("no 'p edge' header")
    return edges_from_pairs(n, pairs)


def dense_top_two(g: EdgeSet) -> tuple[float, float]:
    a = np.zeros((g.n, g.n))
    a[g.u, g.v] = 1.0
    a[g.v, g.u] = 1.0
    w = np.linalg.eigvalsh(a)
    return float(w[-1]), float(w[-2])


def arpack_top_two(g: EdgeSet) -> tuple[float, float]:
    v0 = splitmix64_block(0xC0FFEE, g.n).astype(np.float64) / 2.0**64 - 0.5
    w = np.sort(eigsh(g.csr(), k=2, which="LA", v0=v0, tol=0, return_eigenvectors=False))
    return float(w[-1]), float(w[-2])


def top_two_oracle(g: EdgeSet) -> tuple[float, float]:
    """lambda1 >= lambda2 by dense LAPACK at small n, ARPACK on CSR above."""
    return dense_top_two(g) if g.n <= DENSE_ORACLE_MAX_N else arpack_top_two(g)


def omega_oracle(g: EdgeSet, method: str) -> int:
    """Clique number by networkx: exact weighted search, or the largest maximal
    clique (Bron-Kerbosch), which is fast on sparse graphs."""
    if g.e == 0:
        return 1
    h = g.networkx()
    if method == "max_weight_clique":
        clique, _ = nx.max_weight_clique(h, weight=None)
        return len(clique)
    if method == "find_cliques":
        return max(len(c) for c in nx.find_cliques(h))
    raise ValueError(f"unknown clique oracle {method!r}")


def envelope_lhs(n: int, p: float, eps: float, c0: float) -> float:
    """Spectral envelope: (1+eps)p^2n^2 + 4p(1-p)n + 4c0 sqrt(p(1-p)) n^(5/6) log n
    + c0^2 n^(2/3) log^2 n."""
    ln = math.log(n)
    return (
        (1.0 + eps) * p * p * n * n
        + 4.0 * p * (1.0 - p) * n
        + 4.0 * c0 * math.sqrt(p * (1.0 - p)) * n ** (5.0 / 6.0) * ln
        + c0 * c0 * n ** (2.0 / 3.0) * ln * ln
    )


def parse_row(record: dict) -> dict:
    row = {}
    for key in COLUMNS:
        raw = record[key]
        if key in INT_COLUMNS:
            row[key] = int(raw)
        elif key in BOOL_COLUMNS:
            if raw not in ("true", "false"):
                raise ValueError(f"{key}={raw!r} is not a CSV bool")
            row[key] = raw == "true"
        else:
            row[key] = float(raw)
    return row


def read_trials(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), [parse_row(r) for r in reader]


def _flag_ok(flag: bool, lhs: float, rhs: float) -> bool:
    """A recorded `lhs <= rhs` flag agrees with the sides, up to rounding."""
    if abs(lhs - rhs) <= FLAG_TOL * max(1.0, abs(rhs)):
        return True
    return flag == (lhs <= rhs)


def _close(a: float, b: float, scale: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(scale))


@dataclass(frozen=True)
class Expected:
    """What a row must say about its graph: the config it ran under and, when
    known, the oracle values."""

    p: float
    eps: float
    c0: float
    graph: EdgeSet
    seed: int | None = None
    top_two: tuple[float, float] | None = None
    omega: int | None = None


def row_problems(row: dict, trial: int, exp: Expected) -> list[str]:
    """Every way `row` disagrees with the independent computations. Empty
    means the row passes."""
    bad = []
    g = exp.graph
    n, e, om = row["n"], row["e"], row["omega"]
    lam1, lam2 = row["lambda1"], row["lambda2"]
    scale = max(1.0, abs(lam1))
    if row["trial"] != trial:
        bad.append(f"trial {row['trial']} != {trial}")
    if exp.seed is not None and row["seed"] != exp.seed:
        bad.append(f"seed {row['seed']} != {exp.seed}")
    if n != g.n:
        bad.append(f"n {n} != {g.n}")
    if row["p"] != exp.p:
        bad.append(f"p {row['p']} != {exp.p}")
    if e != g.e:
        bad.append(f"e {e} != {g.e}")
    if not row["certified"]:
        bad.append("certified is false")
    if row["is_complete"] != (e == n * (n - 1) // 2):
        bad.append("is_complete disagrees with e")
    # Spectral facts: ordering, 2e/n <= lambda1 <= max degree, and
    # lambda1^2 + lambda2^2 <= sum of all squared eigenvalues = 2e.
    tol = LAMBDA_TOL * scale
    maxdeg = int(g.degrees().max()) if g.e else 0
    if lam1 < lam2:
        bad.append("lambda1 < lambda2")
    if not (2.0 * e / n - tol <= lam1 <= maxdeg + tol):
        bad.append(f"lambda1 {lam1} outside [2e/n, maxdeg] = [{2.0 * e / n}, {maxdeg}]")
    if lam1 * lam1 + lam2 * lam2 > 2.0 * e + 2.0 * tol * scale:
        bad.append("lambda1^2 + lambda2^2 > 2e")
    if exp.top_two is not None:
        o1, o2 = exp.top_two
        if abs(lam1 - o1) > tol or abs(lam2 - o2) > tol:
            bad.append(f"lambdas ({lam1}, {lam2}) != oracle ({o1}, {o2})")
    # Wilf: n / (n - lambda1) <= omega <= lambda1 + 1.
    if om < 1 or om > lam1 + 1.0 + tol or (lam1 < n and om < n / (n - lam1) - 1e-6):
        bad.append(f"omega {om} outside Wilf's bounds")
    if exp.omega is not None and om != exp.omega:
        bad.append(f"omega {om} != oracle {exp.omega}")
    # The inequality's columns agree with each other.
    lhs, rhs, slack = row["lhs"], row["rhs"], row["slack"]
    if not _close(lhs, lam1 * lam1 + lam2 * lam2, lhs):
        bad.append("lhs != lambda1^2 + lambda2^2")
    if not _close(rhs, 2.0 * e * (om - 1) / om, rhs):
        bad.append("rhs != 2e(1 - 1/omega)")
    if not _close(slack, rhs - lhs, rhs):
        bad.append("slack != rhs - lhs")
    if not _flag_ok(row["holds"], lhs, rhs):
        bad.append("holds disagrees with lhs <= rhs")
    # The proof events, recomputed from their definitions.
    p, eps = exp.p, exp.eps
    if not _flag_ok(row["event_x"], lam1 * lam1 + lam2 * lam2, envelope_lhs(n, p, eps, exp.c0)):
        bad.append("event_x disagrees with the envelope")
    y_lhs = 1.0 - math.log(1.0 / p) / (2.0 * (1.0 - eps) * math.log(n))
    if not _flag_ok(row["event_y"], y_lhs, 1.0 - 1.0 / om):
        bad.append("event_y disagrees with the clique discount")
    if not _flag_ok(row["event_z"], (1.0 - eps) * p * n * (n - 1) / 2.0, float(e)):
        bad.append("event_z disagrees with the edge count")
    return bad


def aggregate_problems(agg: dict, rows: list[dict], config: dict) -> list[str]:
    """`aggregate.json` against the CSV column means and the config it ran."""
    bad = []
    t = len(rows)
    echo = agg.get("config", {})
    for key in ("n", "p", "trials", "seed", "eps", "C0"):
        if echo.get(key) != config[key]:
            bad.append(f"config echo {key}={echo.get(key)!r} != {config[key]!r}")
    if t == 0:
        return bad + ["no rows"]

    def count(pred) -> int:
        return sum(1 for r in rows if pred(r))

    ez = count(lambda r: r["event_z"])
    want = {
        "holds_fraction": count(lambda r: r["holds"]) / t,
        "event_x_fraction": count(lambda r: r["event_x"]) / t,
        "event_y_fraction": count(lambda r: r["event_y"]) / t,
        "event_z_fraction": ez / t,
        "not_z_fraction": (t - ez) / t,
        "min_slack": min(r["slack"] for r in rows),
        "invalid_trials": count(lambda r: not r["certified"]),
        "complete_draws": count(lambda r: r["is_complete"]),
        "violating_noncomplete": count(
            lambda r: r["certified"] and not r["holds"] and not r["is_complete"]
        ),
    }
    for key, value in want.items():
        if agg.get(key) != value:
            bad.append(f"{key} {agg.get(key)!r} != {value!r}")
    n, p, eps = config["n"], config["p"], config["eps"]
    tail = math.exp(-(eps * eps) * (p * p) * n * (n - 1.0))
    if not _close(agg.get("hoeffding_tail", math.nan), tail, tail):
        bad.append("hoeffding_tail disagrees with exp(-eps^2 p^2 n(n-1))")
    if not _close(agg.get("theorem_lower_bound", math.nan), 1.0 - tail, 1.0):
        bad.append("theorem_lower_bound != 1 - hoeffding_tail")
    return bad


@dataclass
class RunCheck:
    """Outcome of checking one `run_monte_carlo` output directory."""

    attempted: int
    failed_trials: list[int]
    problems: list[str]
    oracle_trials: list[int]


def check_output(
    out_dir: Path, config: dict, oracle_trials: set[int], clique_oracle: str
) -> RunCheck:
    """Check `trials.csv` and `aggregate.json` under out_dir. A trial fails when
    its row fails a check; every trial fails when the files as a whole do."""
    t = config["trials"]
    everything = RunCheck(t, list(range(t)), [], [])
    try:
        header, rows = read_trials(out_dir / "trials.csv")
        agg = json.loads((out_dir / "aggregate.json").read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        everything.problems.append(f"{out_dir}: unreadable output: {exc}")
        return everything
    if tuple(header) != COLUMNS:
        everything.problems.append(f"{out_dir}: header {header} != {list(COLUMNS)}")
        return everything
    if len(rows) != t:
        everything.problems.append(f"{out_dir}: {len(rows)} rows for {t} trials")
        return everything
    agg_bad = aggregate_problems(agg, rows, config)
    if agg_bad:
        everything.problems.extend(f"{out_dir}: aggregate: {b}" for b in agg_bad)
        return everything
    result = RunCheck(t, [], [], sorted(oracle_trials & set(range(t))))
    n, p = config["n"], config["p"]
    for k, row in enumerate(rows):
        seed = splitmix64_at(config["seed"], k)
        g = gnp_edges(n, p, seed)
        exp = Expected(
            p=p, eps=config["eps"], c0=config["C0"], graph=g, seed=seed,
            top_two=top_two_oracle(g),
            omega=omega_oracle(g, clique_oracle) if k in oracle_trials else None,
        )
        bad = row_problems(row, k, exp)
        if bad:
            result.failed_trials.append(k)
            result.problems.extend(f"{out_dir} trial {k}: {b}" for b in bad)
    return result
