import importlib.util
import math
from pathlib import Path

import pytest

from bncheck import MonteCarloConfig, admissible_p_max, run_monte_carlo

_SCRIPT = Path(__file__).resolve().parents[1] / "experiments" / "events_sweep.py"
_spec = importlib.util.spec_from_file_location("events_sweep", _SCRIPT)
events_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(events_sweep)


@pytest.mark.parametrize("k,n", [(1, 1), (3, 7), (5, 10), (19, 20), (40, 40)])
def test_binomial_lower_bound_is_the_exact_tail_quantile(k, n):
    q = events_sweep.binomial_lower_bound(k, n)
    tail = sum(math.comb(n, i) * q**i * (1 - q) ** (n - i) for i in range(k, n + 1))
    assert tail == pytest.approx(0.05, rel=1e-9)


def test_binomial_lower_bound_edges():
    assert events_sweep.binomial_lower_bound(0, 30) == 0.0
    assert events_sweep.binomial_lower_bound(500, 500) == pytest.approx(0.05 ** (1 / 500))
    assert round(events_sweep.binomial_lower_bound(500, 500), 3) == 0.994


def test_sweep_rows_match_run_monte_carlo(capsys):
    assert events_sweep.main(["--eps", "0.5", "--fractions", "0.5", "--n", "30", "20",
                              "--trials", "12", "--seed", "4"]) == 0
    header, *rows, summary = capsys.readouterr().out.splitlines()
    assert header.split(",")[-1] == "holds_lower95"
    p = 0.5 * admissible_p_max(0.5)
    for row, n in zip(rows, (20, 30), strict=True):
        cells = row.split(",")
        report = run_monte_carlo(
            MonteCarloConfig(n=n, p=p, trials=12, seed=4, eps=0.5, clique_time_budget=1.0)
        )
        assert cells[2:5] == [str(n), "12", "0"]
        assert [float(c) for c in cells[5:9]] == [
            report.holds_fraction,
            report.event_x_fraction,
            report.event_y_fraction,
            report.event_z_fraction,
        ]
    assert summary.startswith("# eps=0.5 p=0.0625 first n at >= 95%: ")
