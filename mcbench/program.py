"""The program side of the benchmark: runs in a fresh interpreter with
`src` on PYTHONPATH and drives bncheck through its public functions.

    program.py probe  '<config json>'   import bncheck, build the config, print "ready"
    program.py rounds '<job json>'      timed run_monte_carlo rounds (tracing off)
    program.py traced '<job json>'      traced pass: spans around each layer

The last stdout line of `rounds` and `traced` is a JSON report. A job holds
n, p, threads, trials, seed (the run's --seed), seconds, out_dir and, for the
traced pass, pool_threads. Round r runs master seed 1000 * seed + r into
out_dir/round-r; rounds start until `seconds` have passed.
"""

from __future__ import annotations

import json
import re
import resource
import sys
import time
from pathlib import Path


def config_doc(job: dict, r: int, out_dir: Path) -> dict:
    return {
        "n": job["n"], "p": job["p"], "eps": 0.5, "C0": 1.0,
        "trials": job["trials"], "seed": 1000 * job["seed"] + r,
        "out_dir": str(out_dir),
    }


def peak_rss_kib() -> int:
    """Largest peak RSS of this process and of its reaped children (pool workers).

    This process's own peak is VmHWM: its ru_maxrss would also hold the
    parent's RSS at the moment this interpreter was started. A worker's
    ru_maxrss can hold no more than this process's RSS at spawn besides its
    own peak, and VmHWM already covers that.
    """
    with open("/proc/self/status") as fh:
        own = int(re.search(r"VmHWM:\s+(\d+) kB", fh.read()).group(1))
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def probe(doc: dict) -> None:
    from bncheck import MonteCarloConfig

    MonteCarloConfig.from_dict(doc)
    print("ready", flush=True)


def rounds(job: dict) -> dict:
    from bncheck import MonteCarloConfig, run_monte_carlo

    out = Path(job["out_dir"])
    walls, configs = [], []
    cpu0, start = cpu_seconds(), time.perf_counter()
    while True:
        r = len(walls)
        doc = config_doc(job, r, out / f"round-{r}")
        config = MonteCarloConfig.from_dict(doc)
        t0 = time.perf_counter()
        run_monte_carlo(config, threads=job["threads"])
        t1 = time.perf_counter()
        walls.append(t1 - t0)
        configs.append(doc)
        if t1 - start >= job["seconds"]:
            break
    return {
        "walls": walls,
        "configs": configs,
        "wall_s": time.perf_counter() - start,
        "cpu_s": cpu_seconds() - cpu0,
        "peak_rss_kib": peak_rss_kib(),
    }


class Tracer:
    """Spans (name, start, end, parent, round, trial) kept in memory.

    A trial starts at each call of sample_gnp, which run_monte_carlo makes once
    per trial in trial order when it runs in one process.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.round = 0
        self.trial = -1
        self.patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "round": self.round, "trial": self.trial,
                "parent": self.stack[-1] if self.stack else None}
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, starts_trial: bool = False, count=None):
        inner = getattr(owner, attr)

        def traced_call(*args, **kwargs):
            if starts_trial:
                self.trial += 1
            span = self.open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span["count"] = count(result)
            return result

        self.patches.append((owner, attr, inner))
        setattr(owner, attr, traced_call)

    def install(self, r: int) -> dict:
        import bncheck.experiment as experiment
        import bncheck.graph as graph
        import bncheck.spectral as spectral

        self.round, self.trial = r, -1
        self.wrap(experiment, "sample_gnp", "graph.sample_gnp", starts_trial=True)
        self.wrap(graph.Graph, "__init__", "graph.validate")
        self.wrap(experiment, "top_two", "spectral.top_two")
        self.wrap(spectral, "adjacency_matrix", "spectral.adjacency_matrix")
        self.wrap(experiment, "max_clique", "clique.max_clique",
                  count=lambda res: res.nodes_explored)
        return self.open("experiment.run_monte_carlo")

    def uninstall(self, root: dict) -> None:
        self.close(root)
        for owner, attr, inner in reversed(self.patches):
            setattr(owner, attr, inner)
        self.patches.clear()


def traced(job: dict) -> dict:
    """Per round: one untraced one-worker run, one traced one-worker run and one
    untraced run on `pool_threads` workers, all on the same trials. The two
    one-worker runs swap order every round so that neither always runs first."""
    from bncheck import MonteCarloConfig, run_monte_carlo

    out = Path(job["out_dir"])
    tracer = Tracer()
    rounds_out = []
    start = time.perf_counter()
    while True:
        r = len(rounds_out)
        rec = {"configs": {}}
        order = ("untraced", "traced") if r % 2 == 0 else ("traced", "untraced")
        for kind in (*order, "pool"):
            doc = config_doc(job, r, out / f"round-{r}" / kind)
            config = MonteCarloConfig.from_dict(doc)
            threads = job["pool_threads"] if kind == "pool" else 1
            root = tracer.install(r) if kind == "traced" else None
            t0 = time.perf_counter()
            try:
                run_monte_carlo(config, threads=threads)
            finally:
                t1 = time.perf_counter()
                if root is not None:
                    tracer.uninstall(root)
            rec[kind + "_wall"] = t1 - t0
            rec["configs"][kind] = doc
        rounds_out.append(rec)
        if time.perf_counter() - start >= job["seconds"]:
            break
    return {"rounds": rounds_out, "spans": tracer.spans, "peak_rss_kib": peak_rss_kib()}


def main(argv: list[str]) -> int:
    mode, arg = argv[1], json.loads(argv[2])
    if mode == "probe":
        probe(arg)
        return 0
    if mode == "rounds":
        report = rounds(arg)
    elif mode == "traced":
        report = traced(arg)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
