"""Monte Carlo benchmark for bncheck.

    python3 mcbench/run.py --workload g200_half --seed 1 --seconds 25 --trace 0

Run from the root of a bncheck checkout. Each run starts fresh interpreters
for the program (program.py), checks every output it wrote against
computations made apart from bncheck (checks.py), and prints one JSON line
last: the end-to-end metrics with --trace 0, the per-layer metrics of a
separate traced pass with --trace 1. Each result, with its set-up probes,
check problems and environment record, and the spans of a traced pass are
written under .mcbench_out/. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import networkx
import numpy
import scipy

import checks
import program
import selftest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".mcbench_out"

# Workload make-up. `trials` is one round of run_monte_carlo; `traced_trials`
# one round of the traced pass; the clique oracle runs on trial 0 of the first
# `oracle_rounds` rounds of each output kind that gets one.
WORKLOADS = {
    "g200_half": dict(
        n=200, p=0.5, threads=1, trials=20, traced_trials=10,
        oracle_rounds=3, clique_oracle="max_weight_clique",
    ),
    "g4096_sparse": dict(
        n=4096, p=0.01, threads=1, trials=1, traced_trials=2,
        oracle_rounds=2, clique_oracle="find_cliques",
    ),
    "g50_half_pool2": dict(
        n=50, p=0.5, threads=2, trials=500, traced_trials=200,
        oracle_rounds=8, clique_oracle="max_weight_clique",
    ),
}
POOL_THREADS = 2  # worker count of the traced pass's pool run on every workload
SETUP_PROBES = 5
CHILD_GRACE_S = 120  # a child may run this long past --seconds before it is killed
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
LAYER_METRICS = {
    "graph.sample_gnp_s": "s",
    "graph.validate_s": "s",
    "spectral.adjacency_matrix_s": "s",
    "spectral.top_two_s": "s",
    "clique.max_clique_s": "s",
    "clique.nodes": "count",
    "clique.nodes_per_s": "1/s",
    "experiment.harness_s": "s",
    "experiment.pool_s": "s",
}
TOP_LAYERS = ("graph.sample_gnp", "spectral.top_two", "clique.max_clique")


def log(msg: str) -> None:
    print(f"[mcbench] {msg}", file=sys.stderr, flush=True)


def program_env() -> dict:
    """The caller's environment with src on PYTHONPATH; BLAS threading untouched."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], env: dict, timeout: float) -> str:
    """Run a program.py child in its own session; kill the whole session
    (pool workers included) if it overruns."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "program.py"), *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"program.py {args[0]} ran over {timeout} s") from None
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"program.py {args[0]} exited {proc.returncode}:\n{err}")
    return out


def setup_seconds(env: dict, doc: dict, timeout: float) -> list[float]:
    """Wall time from starting a fresh interpreter to bncheck imported and the
    config document built, once per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "program.py"), "probe", json.dumps(doc)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=timeout) != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed")
    return times


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": commit,
    }


def check_outputs(outputs: list[tuple[Path, dict, bool]], spec: dict, work: Path) -> dict:
    """Check each (out_dir, config, oracle) output; the clique oracle runs on
    trial 0 of outputs marked for it."""
    attempted, failed, problems, oracle = 0, set(), [], []
    for out_dir, config, with_oracle in outputs:
        subset = {0} if with_oracle else set()
        res = checks.check_output(out_dir, config, subset, spec["clique_oracle"])
        rel = out_dir.relative_to(work)
        attempted += res.attempted
        failed |= {f"{rel}#{k}" for k in res.failed_trials}
        problems += res.problems
        oracle += [f"{rel}#{k}" for k in res.oracle_trials]
    return {"attempted": attempted, "failed": failed, "problems": problems, "oracle": oracle}


def job_for(spec: dict, seed: int, seconds: int, out_dir: Path, trials: int) -> dict:
    return {"n": spec["n"], "p": spec["p"], "threads": spec["threads"], "trials": trials,
            "seed": seed, "seconds": seconds, "out_dir": str(out_dir),
            "pool_threads": POOL_THREADS}


def end_to_end(spec: dict, args, env: dict, work: Path) -> tuple[dict, dict, dict]:
    job = job_for(spec, args.seed, args.seconds, work, spec["trials"])
    timeout = args.seconds + CHILD_GRACE_S
    setups = setup_seconds(env, program.config_doc(job, 0, work), timeout)
    report = json.loads(run_child(["rounds", json.dumps(job)], env, timeout).splitlines()[-1])
    rates = [spec["trials"] / w for w in report["walls"]]
    trials_per_s = spec["trials"] * len(rates) / sum(report["walls"])
    outputs = [(work / f"round-{r}", cfg, r < spec["oracle_rounds"])
               for r, cfg in enumerate(report["configs"])]
    checked = check_outputs(outputs, spec, work)
    metrics = {
        "trials_per_s": {"value": trials_per_s, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_kib"] * 1024 / 1e6, "unit": "MB"},
    }
    detail = {"setup_probes_s": setups, "round_walls_s": report["walls"],
              "trials_per_s_by_round": rates, "wall_s": report["wall_s"],
              "cpu_s": report["cpu_s"]}
    return metrics, checked, detail


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(report: dict, trials: int) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass's spans and walls."""
    spans = report["spans"]

    def per_trial(name: str) -> list[float]:
        total: dict[tuple[int, int], float] = {}
        for s in spans:
            if s["name"] == name:
                key = (s["round"], s["trial"])
                total[key] = total.get(key, 0.0) + _dur(s)
        return list(total.values())

    cliques = [s for s in spans if s["name"] == "clique.max_clique"]
    nodes_round0 = sum(s["count"] for s in cliques if s["round"] == 0)
    roots = {s["round"]: s for s in spans if s["name"] == "experiment.run_monte_carlo"}
    harness, coverage, overhead, pool = [], [], [], []
    for r, rec in enumerate(report["rounds"]):
        layered = sum(_dur(s) for s in spans if s["round"] == r and s["name"] in TOP_LAYERS)
        root = _dur(roots[r])
        harness.append((root - layered) / trials)
        coverage.append(layered / root)
        overhead.append((rec["traced_wall"] - rec["untraced_wall"]) / trials)
        pool.append((POOL_THREADS * rec["pool_wall"] - rec["untraced_wall"]) / trials)
    values = {
        "graph.sample_gnp_s": statistics.median(per_trial("graph.sample_gnp")),
        "graph.validate_s": statistics.median(per_trial("graph.validate")),
        "spectral.adjacency_matrix_s": statistics.median(per_trial("spectral.adjacency_matrix")),
        "spectral.top_two_s": statistics.median(per_trial("spectral.top_two")),
        "clique.max_clique_s": statistics.median(per_trial("clique.max_clique")),
        "clique.nodes": nodes_round0,
        "clique.nodes_per_s": sum(s["count"] for s in cliques) / sum(_dur(s) for s in cliques),
        "experiment.harness_s": statistics.median(harness),
        "experiment.pool_s": statistics.median(pool),
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_METRICS.items()}
    detail = {"rounds": len(report["rounds"]), "traced_trials": len(cliques),
              "trace_overhead_s_per_trial": statistics.median(overhead),
              "span_coverage": statistics.median(coverage),
              "round_walls_s": [{k: v for k, v in rec.items() if k.endswith("_wall")}
                                for rec in report["rounds"]]}
    return metrics, detail


def traced_pass(spec: dict, args, env: dict, work: Path) -> tuple[dict, dict, dict]:
    trials = spec["traced_trials"]
    job = job_for(spec, args.seed, args.seconds, work, trials)
    timeout = args.seconds + CHILD_GRACE_S
    report = json.loads(run_child(["traced", json.dumps(job)], env, timeout).splitlines()[-1])
    outputs = []
    for r, rec in enumerate(report["rounds"]):
        for kind, cfg in rec["configs"].items():
            oracle = kind == "traced" and r < spec["oracle_rounds"]
            outputs.append((work / f"round-{r}" / kind, cfg, oracle))
    checked = check_outputs(outputs, spec, work)
    # Rows depend only on (master seed, trial), not on tracing or worker count.
    for r in range(len(report["rounds"])):
        base = (work / f"round-{r}" / "untraced" / "trials.csv").read_text().splitlines()
        for kind in ("traced", "pool"):
            lines = (work / f"round-{r}" / kind / "trials.csv").read_text().splitlines()
            differ = [k for k in range(1, len(base)) if k >= len(lines) or lines[k] != base[k]]
            checked["failed"] |= {f"round-{r}/{kind}#{k - 1}" for k in differ}
            checked["problems"] += [f"round-{r}/{kind} trial {k - 1}: row differs from the "
                                    "one-worker untraced run" for k in differ]
    metrics, detail = layer_metrics(report, trials)
    spans_path = OUT / f"{work.name}-spans.json"
    spans_path.write_text(json.dumps(report["spans"]))
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, checked, detail


def run_workload(name: str, args, work: Path, test_problems: list[str]) -> dict:
    """One pass over one workload; writes its record and returns the result."""
    spec = WORKLOADS[name]
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    run = traced_pass if args.trace else end_to_end
    metrics, checked, detail = run(spec, args, program_env(), work / tag)
    for problem in checked["problems"][:20]:
        log(f"{name}: check: {problem}")
    result = {
        "correct": not test_problems,
        "attempted": checked["attempted"],
        "failed": len(checked["failed"]),
        "metrics": metrics,
    }
    record = {
        "workload": name, "spec": spec, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "result": result, "detail": detail,
        "checks": {"problems": checked["problems"], "oracle_trials": checked["oracle"],
                   "self_test_problems": test_problems},
        "environment": environment(),
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bncheck" / "__init__.py").is_file():
        log(f"no bncheck sources under {ROOT / 'src'}; run from a bncheck checkout")
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        test_problems = selftest.self_test(ROOT, work)
        for problem in test_problems:
            log(f"self-test: {problem}")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            result = run_workload(name, args, work, test_problems)
            prefix = f"{name}: " if len(names) > 1 else ""
            print(prefix + json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
