import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bncheck
from bncheck import (
    MonteCarloConfig,
    cli,
    read_edge_list,
    run_monte_carlo,
    write_edge_list,
)
from reference import make_named


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_public_surface():
    # every exported name resolves; the test-only oracles live in tests/reference.py
    for name in bncheck.__all__:
        getattr(bncheck, name)
    for name in ("full_spectrum", "make_named", "max_clique_bruteforce"):
        assert name not in bncheck.__all__ and not hasattr(bncheck, name)
    assert not hasattr(bncheck.Graph, "has_edge") and not hasattr(bncheck.Graph, "degree")


def test_thresholds_subcommand(capsys):
    code, out, _ = run(capsys, "thresholds", "--eps", "0.5", "--p", "0.1", "--c0", "1")
    assert code == 0
    data = json.loads(out)
    assert data["m0"] == pytest.approx(216.0)
    assert data["p_admissible"] is True


def test_bounds_subcommand(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "400", "--p", "0.5", "--eps", "0.5")
    assert code == 0
    data = json.loads(out)
    assert data["juhasz_expected_lambda1"] == 200.0
    assert data["clique_asymptote"] == pytest.approx(17.2877, abs=1e-3)
    assert data["theorem_lower_bound"] + data["hoeffding_tail"] == 1.0
    assert "n0" in data["thresholds"]


def test_bound_subcommands_at_an_underflowing_p(capsys):
    # eps * p * p rounds to 0: both commands report inf instead of a traceback
    for p in ("1e-200", "5e-324"):
        for eps in ("0.1", "0.5", "0.9"):
            code, out, err = run(capsys, "thresholds", "--eps", eps, "--p", p)
            assert (code, err) == (0, "")
            assert json.loads(out)["n0"] == math.inf
            code, out, err = run(capsys, "bounds", "--n", "100", "--eps", eps, "--p", p)
            assert (code, err) == (0, "")
            assert json.loads(out)["thresholds"]["m1"] == math.inf
            assert json.loads(out)["envelope_rhs"] < 0


def test_check_p3(tmp_path, capsys):
    path = tmp_path / "p3.col"
    path.write_text(write_edge_list(make_named("path", 3)))
    code, out, _ = run(capsys, "check", "--graph", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert abs(data["slack"]) < 1e-9


def test_sample_then_check_complete(tmp_path, capsys):
    out_file = tmp_path / "k5.col"
    code, _, err = run(capsys, "sample", "--n", "5", "--p", "1", "--seed", "1",
                       "--out", str(out_file))
    assert code == 0
    assert "outside the 0 < p < 1" in err
    code, out, _ = run(capsys, "check", "--graph", str(out_file))
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is False and data["is_complete"] is True
    assert abs(data["slack"] + 1) <= 1e-12  # criterion 5's tolerance; not exact in floats


def test_sample_deterministic_bytes(tmp_path, capsys):
    f1, f2 = tmp_path / "a.col", tmp_path / "b.col"
    assert run(capsys, "sample", "--n", "30", "--p", "0.4", "--seed", "9", "--out", str(f1))[0] == 0
    assert run(capsys, "sample", "--n", "30", "--p", "0.4", "--seed", "9", "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()
    g = read_edge_list(f1.read_text())
    assert g.n == 30


def test_events_subcommand(tmp_path, capsys):
    path = tmp_path / "c5.col"
    path.write_text(write_edge_list(make_named("cycle", 5)))
    code, out, _ = run(capsys, "events", "--graph", str(path),
                       "--eps", "0.5", "--p", "0.5", "--c0", "1")
    assert code == 0
    data = json.loads(out)
    assert set(data) >= {"event_x", "event_y", "event_z", "x_lhs", "z_rhs"}
    assert isinstance(data["event_x"], bool)


def test_montecarlo_subcommand(tmp_path, capsys):
    cfg = {"n": 12, "p": 0.5, "eps": 0.5, "C0": 1.0, "trials": 10, "seed": 3,
           "out_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "montecarlo", "--config", str(cfg_path))
    assert code == 0
    data = json.loads(out)
    assert data["holds_fraction"] == 1.0
    assert (tmp_path / "out" / "trials.csv").exists()
    on_disk = json.loads((tmp_path / "out" / "aggregate.json").read_text())
    assert on_disk == data


def test_montecarlo_out_dir_from_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "envout"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 8, "p": 0.5, "trials": 4, "seed": 1}))
    code, _, _ = run(capsys, "montecarlo", "--config", str(cfg_path))
    assert code == 0
    assert (tmp_path / "envout" / "trials.csv").exists()


def test_montecarlo_invalid_trials_exit_3(tmp_path, capsys):
    cfg = {"n": 120, "p": 0.9, "trials": 1, "seed": 1, "clique_time_budget": 1e-4,
           "out_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "montecarlo", "--config", str(cfg_path))
    assert code == 3
    assert "non-certified" in err
    assert json.loads(out)["invalid_trials"] == 1


def test_montecarlo_counterexample_exit_3(tmp_path, capsys, monkeypatch):
    # no honest counterexample is known, so fake the aggregate to pin the exit code
    from bncheck.experiment import MonteCarloConfig, run_monte_carlo

    def doctored(config, threads=1):
        import dataclasses
        real = run_monte_carlo(config, threads=threads)
        return dataclasses.replace(real, violating_noncomplete=1)

    monkeypatch.setattr(cli, "run_monte_carlo", doctored)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 8, "p": 0.5, "trials": 2, "seed": 1,
                                    "out_dir": str(tmp_path / "out")}))
    code, _, err = run(capsys, "montecarlo", "--config", str(cfg_path))
    assert code == 3
    assert "counterexample" in err


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "unknown-subcommand")[0] == 2
    assert run(capsys, "thresholds", "--eps", "0.5")[0] == 2  # missing --p
    assert run(capsys, "sample", "--n", "5")[0] == 2
    assert run(capsys)[0] == 2  # no subcommand


def test_dense_limit_is_no_longer_a_setting(capsys):
    # the eigensolver route follows n; older config documents keep loading
    doc = {"n": 8, "p": 0.5, "trials": 2}
    old_doc = {**doc, "dense_limit": 2048}
    assert MonteCarloConfig.from_dict(old_doc) == MonteCarloConfig.from_dict(doc)
    with pytest.raises(ValueError, match="dense_limit"):
        MonteCarloConfig.from_dict({**doc, "dense_limit": 1000})
    assert run(capsys, "check", "--graph", "g.col", "--dense-limit", "10")[0] == 2


def test_runtime_errors_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "check", "--graph", str(tmp_path / "missing.col"))
    assert code == 1 and "error:" in err
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 3 1\ne 2 2\n")
    code, _, err = run(capsys, "check", "--graph", str(bad))
    assert code == 1 and "self-loop" in err
    code, _, err = run(capsys, "thresholds", "--eps", "1.5", "--p", "0.1")
    assert code == 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 8, "p": 0.5, "trials": 2, "typo": 1}))
    assert run(capsys, "montecarlo", "--config", str(cfg_path))[0] == 1


@pytest.mark.parametrize(
    "key,value",
    [("n", "50"), ("n", 50.5), ("trials", 2.5), ("p", "0.5"), ("seed", 1.5),
     ("clique_time_budget", "x")],
)
def test_montecarlo_wrong_json_type_is_an_error_line(tmp_path, capsys, key, value):
    doc = {"n": 8, "p": 0.5, "trials": 2, "seed": 1, "out_dir": str(tmp_path / "out")}
    doc[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "montecarlo", "--config", str(cfg_path))
    assert code == 1
    assert err.startswith("error:") and repr(key) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_montecarlo_threads_below_one_is_a_usage_error(tmp_path, capsys, threads):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 8, "p": 0.5, "trials": 2, "seed": 1,
                                    "out_dir": str(tmp_path / "out")}))
    code, _, err = run(capsys, "montecarlo", "--config", str(cfg_path), "--threads", threads)
    assert code == 2 and "--threads" in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match="threads"):
        run_monte_carlo(MonteCarloConfig(n=8, p=0.5, trials=2), threads=int(threads))


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_bad_time_budget_or_c0_is_refused_before_any_work(tmp_path, capsys, value):
    graph = tmp_path / "g.col"
    graph.write_text(write_edge_list(make_named("cycle", 5)))
    for sub, extra in [("check", []), ("events", ["--eps", "0.5", "--p", "0.5"])]:
        code, out, err = run(capsys, sub, "--graph", str(graph), "--time-budget", value, *extra)
        assert code == 2 and "--time-budget" in err and out == ""
    doc = {"n": 8, "p": 0.5, "trials": 2, "out_dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**doc, "clique_time_budget": float(value)}))
    code, out, err = run(capsys, "montecarlo", "--config", str(cfg_path))
    assert code == 1 and "'clique_time_budget'" in err and out == ""
    assert not (tmp_path / "out").exists()
    code, out, err = run(capsys, "bounds", "--n", "100", "--eps", "0.5", "--p", "0.5",
                         "--c0", value)
    assert code == 1 and "c0" in err and out == ""


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    for sub in ("check", "sample", "montecarlo", "thresholds", "bounds", "events"):
        assert run(capsys, sub, "--help")[0] == 0


def test_check_without_a_compiler_is_an_error_line(tmp_path, petersen_text):
    graph = tmp_path / "petersen.col"
    graph.write_text(petersen_text)
    no_compiler = tmp_path / "empty"
    no_compiler.mkdir()
    env = {**os.environ, "PATH": str(no_compiler), "XDG_CACHE_HOME": str(tmp_path / "cache"),
           "PYTHONPATH": str(Path(bncheck.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "bncheck", "check", "--graph", str(graph)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "`cc`" in errors[0] and str(tmp_path / "cache") in errors[0]
