"""Self-test of the output checks in checks.py.

The checks must accept the truth and reject a lie. They pass on graphs with
closed-form spectra and clique numbers, and on a small Monte Carlo output
written here from the oracles alone. They flag that output's row once for
every column whose value is corrupted, and flag a corrupted aggregate.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

import checks

EPS, C0 = 0.5, 1.0
SMALL_RUN = {"n": 30, "p": 0.5, "eps": EPS, "C0": C0, "trials": 3, "seed": 7}


def closed_form_graphs(root: Path) -> list[tuple[str, checks.EdgeSet, tuple[float, float], int]]:
    """(name, graph, (lambda1, lambda2), omega) with known answers."""
    a, b = 3, 4
    petersen = checks.read_dimacs((root / "tests" / "data" / "petersen.col").read_text())
    return [
        ("K_6", checks.edges_from_pairs(6, combinations(range(6), 2)), (5.0, -1.0), 6),
        ("K_3,4", checks.edges_from_pairs(a + b, [(i, a + j) for i in range(a) for j in range(b)]),
         (math.sqrt(a * b), 0.0), 2),
        ("Petersen", petersen, (3.0, 1.0), 2),
    ]


def true_row(trial: int, seed: int, p: float, g: checks.EdgeSet,
             lam: tuple[float, float], omega: int) -> dict:
    """The row a correct program writes for g."""
    n, e = g.n, g.e
    lhs = lam[0] * lam[0] + lam[1] * lam[1]
    rhs = 2.0 * e * (omega - 1) / omega
    return {
        "trial": trial, "seed": seed, "n": n, "p": p, "e": e, "omega": omega,
        "lambda1": lam[0], "lambda2": lam[1], "lhs": lhs, "rhs": rhs, "slack": rhs - lhs,
        "holds": lhs <= rhs,
        "event_x": lhs <= checks.envelope_lhs(n, p, EPS, C0),
        "event_y": 1.0 - math.log(1.0 / p) / (2.0 * (1.0 - EPS) * math.log(n)) <= 1.0 - 1.0 / omega,
        "event_z": (1.0 - EPS) * p * n * (n - 1) / 2.0 <= e,
        "is_complete": e == n * (n - 1) // 2,
        "certified": True,
    }


def cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def write_true_output(out: Path, config: dict) -> None:
    """trials.csv and aggregate.json for config, computed from the oracles."""
    n, p, t = config["n"], config["p"], config["trials"]
    rows = []
    for k in range(t):
        seed = checks.splitmix64_at(config["seed"], k)
        g = checks.gnp_edges(n, p, seed)
        rows.append(true_row(k, seed, p, g, checks.top_two_oracle(g),
                             checks.omega_oracle(g, "max_weight_clique")))
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(checks.COLUMNS)]
    lines += [",".join(cell(r[c]) for c in checks.COLUMNS) for r in rows]
    (out / "trials.csv").write_text("\n".join(lines) + "\n")
    tail = math.exp(-(EPS * EPS) * (p * p) * n * (n - 1.0))
    ez = sum(r["event_z"] for r in rows)
    agg = {
        "config": {k: config[k] for k in ("n", "p", "eps", "C0", "trials", "seed")},
        "holds_fraction": sum(r["holds"] for r in rows) / t,
        "event_x_fraction": sum(r["event_x"] for r in rows) / t,
        "event_y_fraction": sum(r["event_y"] for r in rows) / t,
        "event_z_fraction": ez / t,
        "not_z_fraction": (t - ez) / t,
        "min_slack": min(r["slack"] for r in rows),
        "theorem_lower_bound": 1.0 - tail,
        "hoeffding_tail": tail,
        "invalid_trials": 0,
        "complete_draws": sum(r["is_complete"] for r in rows),
        "violating_noncomplete": sum(not r["holds"] and not r["is_complete"] for r in rows),
    }
    (out / "aggregate.json").write_text(json.dumps(agg))


def corrupt(value: str, column: str) -> str:
    if column in checks.BOOL_COLUMNS:
        return "false" if value == "true" else "true"
    if column in checks.INT_COLUMNS:
        return str(int(value) + 1)
    x = float(value)
    return repr(x * (1.0 + 1e-3) if x else 1e-3)


def self_test(root: Path, work: Path) -> list[str]:
    """Problems found with the checks themselves; empty means they work."""
    bad = []
    for name, g, lam, omega in closed_form_graphs(root):
        for route in (checks.dense_top_two, checks.arpack_top_two):
            got = route(g)
            if max(abs(got[0] - lam[0]), abs(got[1] - lam[1])) > 1e-9:
                bad.append(f"{name}: {route.__name__} gave {got}, want {lam}")
        for method in ("max_weight_clique", "find_cliques"):
            if checks.omega_oracle(g, method) != omega:
                bad.append(f"{name}: {method} disagrees with omega={omega}")
        exp = checks.Expected(p=0.5, eps=EPS, c0=C0, graph=g, top_two=lam, omega=omega)
        for problem in checks.row_problems(true_row(0, 0, 0.5, g, lam, omega), 0, exp):
            bad.append(f"{name}: true row rejected: {problem}")

    out = work / "selftest"
    write_true_output(out, SMALL_RUN)
    every = set(range(SMALL_RUN["trials"]))
    result = checks.check_output(out, SMALL_RUN, every, "max_weight_clique")
    bad += [f"true output rejected: {p}" for p in result.problems]

    csv_path, agg_path = out / "trials.csv", out / "aggregate.json"
    text, agg_text = csv_path.read_text(), agg_path.read_text()
    records = [line.split(",") for line in text.splitlines()]
    victim = 2  # the row of trial 1
    for col, column in enumerate(records[0]):
        changed = [list(r) for r in records]
        changed[victim][col] = corrupt(changed[victim][col], column)
        csv_path.write_text("\n".join(",".join(r) for r in changed) + "\n")
        if 1 not in checks.check_output(out, SMALL_RUN, every, "max_weight_clique").failed_trials:
            bad.append(f"corrupted {column} of trial 1 was not flagged")
    csv_path.write_text(text)
    agg = json.loads(agg_text)
    agg["holds_fraction"] -= 1.0 / SMALL_RUN["trials"]
    agg_path.write_text(json.dumps(agg))
    if not checks.check_output(out, SMALL_RUN, every, "max_weight_clique").problems:
        bad.append("corrupted holds_fraction was not flagged")
    return bad
