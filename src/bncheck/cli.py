"""Command-line interface.

JSON goes to stdout, diagnostics to stderr, so output is pipeline-composable.
Exit codes: 0 success, 1 runtime error, 2 usage error, 3 for a Monte Carlo run
containing a violating non-complete graph (counterexample alert) or invalid
trials.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .bounds import (
    BoundParams,
    clique_asymptote,
    envelope_sides,
    envelope_thresholds,
    fk_lambda2_bound,
    hoeffding_edge_tail,
    juhasz_expected_lambda1,
    theorem_lower_bound,
)
from .experiment import MonteCarloConfig, check_conjecture, check_proof_events, run_monte_carlo
from .graph import GnpParams, read_edge_list, sample_gnp, write_edge_list

OUT_DIR_ENV = "BNCHECK_OUT_DIR"


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _load_graph(path: str):
    return read_edge_list(Path(path).read_text())


def _cmd_check(args: argparse.Namespace) -> int:
    result = check_conjecture(_load_graph(args.graph), clique_time_budget=args.time_budget)
    _emit(asdict(result))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    params = GnpParams(args.n, args.p, args.seed)
    if params.degenerate_p:
        print(
            f"note: p={args.p} is outside the 0 < p < 1 random model; "
            "the draw is deterministic",
            file=sys.stderr,
        )
    graph = sample_gnp(params)
    Path(args.out).write_text(write_edge_list(graph))
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    raw = json.loads(Path(args.config).read_text())
    if not isinstance(raw, dict):
        raise ValueError("config document must be a JSON object")
    if raw.get("out_dir") is None:
        raw["out_dir"] = os.environ.get(OUT_DIR_ENV, ".")
    config = MonteCarloConfig.from_dict(raw)
    report = run_monte_carlo(config, threads=args.threads)
    _emit(report.aggregate_dict())
    if report.violating_noncomplete > 0:
        print(
            f"counterexample alert: {report.violating_noncomplete} violating "
            "non-complete graph(s); see the trial CSV",
            file=sys.stderr,
        )
        return 3
    if report.invalid_trials > 0:
        print(f"{report.invalid_trials} trial(s) had non-certified omega", file=sys.stderr)
        return 3
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    report = envelope_thresholds(BoundParams(args.eps, args.p, args.c0))
    _emit(asdict(report))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    params = BoundParams(args.eps, args.p, args.c0)
    lhs, rhs = envelope_sides(args.n, params)
    _emit(
        {
            "n": args.n,
            "p": args.p,
            "eps": args.eps,
            "C0": args.c0,
            "juhasz_expected_lambda1": juhasz_expected_lambda1(args.n, args.p),
            "fk_lambda2_bound": fk_lambda2_bound(args.n, params),
            "clique_asymptote": clique_asymptote(args.n, args.p),
            "envelope_lhs": lhs,
            "envelope_rhs": rhs,
            "hoeffding_tail": hoeffding_edge_tail(args.n, args.p, args.eps),
            "theorem_lower_bound": theorem_lower_bound(args.n, args.p, args.eps),
            "thresholds": asdict(envelope_thresholds(params)),
        }
    )
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    triple = check_proof_events(
        _load_graph(args.graph),
        BoundParams(args.eps, args.p, args.c0),
        clique_time_budget=args.time_budget,
    )
    _emit(asdict(triple))
    return 0


def _positive(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def _seconds(text: str) -> float:
    if not 0.0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return float(text)


def _add_bound_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps", type=float, required=True, help="slack parameter in (0,1)")
    parser.add_argument("--p", type=float, required=True, help="edge probability in (0,1)")
    parser.add_argument("--c0", type=float, default=1.0, help="spectral constant (default 1)")


def _add_graph_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", required=True, help="edge-list file to read")
    parser.add_argument(
        "--time-budget", type=_seconds, default=None, dest="time_budget",
        help="clique search budget in seconds (default: none)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bncheck",
        description="Check the spectral clique-number inequality on graphs and G(n,p) samples.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_check = sub.add_parser("check", help="evaluate the inequality on one graph file")
    _add_graph_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_sample = sub.add_parser("sample", help="draw one G(n,p) graph to a file")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--p", type=float, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--out", required=True, help="output edge-list path")
    p_sample.set_defaults(func=_cmd_sample)

    p_mc = sub.add_parser("montecarlo", help="run the Monte Carlo harness from a JSON config")
    p_mc.add_argument("--config", required=True, help="JSON config path")
    p_mc.add_argument("--threads", type=_positive, default=1, help="workers (results identical)")
    p_mc.set_defaults(func=_cmd_montecarlo)

    p_thresh = sub.add_parser("thresholds", help="envelope crossover thresholds")
    _add_bound_flags(p_thresh)
    p_thresh.set_defaults(func=_cmd_thresholds)

    p_bounds = sub.add_parser("bounds", help="all closed-form bound values at one n")
    p_bounds.add_argument("--n", type=int, required=True)
    _add_bound_flags(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_events = sub.add_parser("events", help="event decomposition for one graph file")
    _add_graph_flags(p_events)
    _add_bound_flags(p_events)
    p_events.set_defaults(func=_cmd_events)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
