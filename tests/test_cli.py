import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gmtlab
from gmtlab import cli, raster
from gmtlab.cli import RunConfig, UsageError, parse_config
from gmtlab.reporting import ExperimentReport
from gmtlab.scenarios import SCENARIOS


FAST_KAKEYA = ["--set", "n=256", "--set", "stages=0,1,2"]


def run_cli(args):
    return cli.main(list(args))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_run_all_with_seed_and_out():
    cfg = parse_config(["run", "all", "--seed", "7", "--out", "results/"])
    assert cfg.scenario == "all"
    assert cfg.seed == 7
    assert str(cfg.output_dir).rstrip("/") == "results"
    assert cfg.jobs == 1 and not cfg.force and not cfg.list_only


def test_parse_set_overrides():
    cfg = parse_config(["run", "discrete-incidence",
                        "--set", "s=1.5", "--set", "qs=8,16,32"])
    assert cfg.overrides == {"s": 1.5, "qs": [8, 16, 32]}


def test_parse_box_override_and_types():
    cfg = parse_config(["run", "kakeya-compression",
                        "--set", "box=-2,-1,2,1.5", "--set", "n=50"])
    assert cfg.overrides["box"] == (-2.0, -1.0, 2.0, 1.5)
    assert cfg.overrides["n"] == 50


def test_parse_rejects_unknown_key_by_name():
    with pytest.raises(UsageError, match="bogus"):
        parse_config(["run", "all", "--set", "bogus=1"])


def test_single_scenario_rejects_keys_it_does_not_declare(tmp_path, capsys):
    # qs belongs to discrete-incidence; transversality must not drop it silently
    with pytest.raises(UsageError, match="its keys: curve, samples, fd_step$"):
        parse_config(["run", "transversality", "--set", "qs=8"])
    out = tmp_path / "r"
    assert run_cli(["run", "transversality", "--set", "qs=8", "--out", str(out)]) == 2
    assert "transversality has no key 'qs'" in capsys.readouterr().err
    assert not out.exists()
    # run all keeps giving each scenario only its own keys
    assert parse_config(["run", "all", "--set", "qs=8"]).overrides == {"qs": [8]}


def test_single_scenario_rejects_config_file_keys_it_does_not_declare(tmp_path, capsys):
    cfg_file = tmp_path / "lab.cfg"
    cfg_file.write_text("samples = 50\nn = 64\n")
    out = tmp_path / "r"
    assert run_cli(["run", "transversality", "--config", str(cfg_file),
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "transversality has no key 'n'" in err and str(cfg_file) in err
    assert not out.exists()
    # run all accepts every declared key from the file, and --set wins over it
    cfg = parse_config(["run", "all", "--config", str(cfg_file)])
    assert cfg.overrides == {"samples": 50, "n": 64}
    cfg = parse_config(["run", "all", "--config", str(cfg_file), "--set", "n=128"])
    assert cfg.overrides == {"samples": 50, "n": 128}


def test_kakeya_has_no_samples_key(tmp_path, capsys):
    # direction coverage is exact, so kakeya-compression takes no sample count
    args = ["run", "kakeya-compression", "--set", "samples=5", "--out", str(tmp_path / "r")]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "kakeya-compression has no key 'samples'" in err
    assert "its keys: stages, n, box\n" in err


def test_parse_rejects_unknown_scenario():
    with pytest.raises(UsageError, match="no-such"):
        parse_config(["run", "no-such"])


def test_parse_rejects_bad_values(tmp_path, capsys):
    with pytest.raises(UsageError):
        parse_config(["run", "all", "--set", "n=abc"])
    with pytest.raises(UsageError):
        parse_config(["run", "all", "--set", "box=1,2,3"])  # needs 4 entries
    with pytest.raises(UsageError):
        parse_config(["run", "all", "--set", "deltas="])
    # floats must be finite, alone or in a list
    for item in ("deltas=inf,0.04", "kappa=nan", "fd_step=-inf", "s=1e400"):
        with pytest.raises(UsageError, match="not a finite number"):
            parse_config(["run", "all", "--set", item])
    out = tmp_path / "r"
    assert run_cli(["run", "kakeya-compression", "--set", "box=-2,-1,2,nan",
                    "--out", str(out)]) == 2
    assert "not a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_every_registry_default_parses_back_to_itself():
    for sid, (defaults, _) in SCENARIOS.items():
        for key, value in defaults.items():
            text = (",".join(map(str, value)) if isinstance(value, (list, tuple))
                    else str(value))
            cfg = parse_config(["run", sid, "--set", f"{key}={text}"])
            assert cfg.overrides == {key: value}, (sid, key)


def test_parse_list_modes():
    assert parse_config(["list"]).list_only
    assert run_cli(["--list"]) == 2


def test_config_file_then_flag_precedence(tmp_path):
    cfg_file = tmp_path / "lab.cfg"
    cfg_file.write_text("# defaults for the lab\ns = 1.7\nqs = 8,16\n")
    cfg = parse_config(["run", "all", "--config", str(cfg_file)])
    assert cfg.overrides == {"s": 1.7, "qs": [8, 16]}
    # run settings keep their flag defaults
    assert (cfg.seed, cfg.output_dir, cfg.jobs, cfg.force) == (0, Path("results"), 1, False)
    # --set wins over the file value, whichever comes first on the line
    cfg = parse_config(["run", "all", "--set", "s=1.9", "--config", str(cfg_file)])
    assert cfg.overrides == {"s": 1.9, "qs": [8, 16]}


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_parse_rejects_jobs_below_one(jobs, capsys):
    with pytest.raises(UsageError, match="jobs"):
        parse_config(["run", "transversality", "--jobs", jobs])
    assert run_cli(["run", "transversality", "--jobs", jobs]) == 2
    assert "jobs" in capsys.readouterr().err


def test_config_file_rejects_jobs_below_one(tmp_path):
    # jobs is a flag only, so the file line fails as an unknown key
    cfg_file = tmp_path / "lab.cfg"
    cfg_file.write_text("jobs = 0\n")
    with pytest.raises(UsageError, match="unknown key 'jobs' in config file"):
        parse_config(["run", "all", "--config", str(cfg_file)])


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "r"
    with pytest.raises(UsageError, match="seed"):
        parse_config(["run", "transversality", "--seed", "-1"])
    assert run_cli(["run", "transversality", "--seed", "-1", "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    # seed is a flag only, so the file line fails as an unknown key
    cfg_file = tmp_path / "lab.cfg"
    cfg_file.write_text("seed = -2\n")
    assert run_cli(["run", "all", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert "unknown key 'seed' in config file" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_unknown_key(tmp_path):
    # --seed, --out, --jobs and --force come from flags only
    cfg_file = tmp_path / "lab.cfg"
    for key, value in [("mystery", "1"), ("seed", "3"), ("out", "elsewhere"),
                       ("jobs", "2"), ("force", "yes")]:
        cfg_file.write_text(f"{key} = {value}\n")
        with pytest.raises(UsageError, match=f"unknown key '{key}' in config file"):
            parse_config(["run", "all", "--config", str(cfg_file)])


def test_config_file_missing(tmp_path):
    with pytest.raises(UsageError):
        parse_config(["run", "all", "--config", str(tmp_path / "absent.cfg")])


# ---------------------------------------------------------------------------
# execution and the exit-code contract
# ---------------------------------------------------------------------------

def test_list_prints_ids_and_exits_zero(capsys):
    assert run_cli(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 8
    assert "kakeya-compression" in out


def test_usage_error_exits_two(capsys):
    assert run_cli(["run", "all", "--set", "bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_passing_scenario_exits_zero(tmp_path, capsys):
    code = run_cli(["run", "kakeya-compression", "--out", str(tmp_path / "r")]
                   + FAST_KAKEYA)
    assert code == 0
    assert "kakeya-compression: PASS" in capsys.readouterr().out
    sub = tmp_path / "r" / "kakeya-compression"
    assert (sub / "report.json").exists()
    assert (sub / "union-area.csv").exists()
    assert (sub / "kakeya-compression_256_0.pgm").exists()


def test_threshold_sabotage_exits_one(tmp_path, capsys):
    # thresholds are not keys, so the red comes from the measurement: a
    # 0.1 difference step misses the cosine Jacobian by about 1.7e-3
    code = run_cli(["run", "transversality", "--out", str(tmp_path / "r"),
                    "--set", "fd_step=0.1"])
    assert code == 1
    assert "transversality: FAIL (1/2 verdicts)" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["fixed-level-positivity", "all"])
def test_thresholds_are_not_keys(tmp_path, capsys, target):
    out = tmp_path / "r"
    assert run_cli(["run", target, "--set", "control_ratio=1", "--out", str(out)]) == 2
    assert "'control_ratio'" in capsys.readouterr().err
    assert not out.exists()


def test_kakeya_box_that_misses_the_tree_exits_three(tmp_path, capsys):
    code = run_cli(["run", "kakeya-compression", "--out", str(tmp_path / "r"),
                    "--set", "box=10,10,11,11", "--set", "n=256"])
    assert code == 3
    assert "must contain the stage-0 triangles" in capsys.readouterr().out
    assert (tmp_path / "r" / "kakeya-compression" / "FAILED").exists()


def test_low_confidence_run_exits_one(tmp_path, capsys):
    # 20000 samples leave the Monte Carlo cells low-confidence, so both
    # verdicts are withheld: a run that decides nothing must not pass
    code = run_cli(["run", "intersection-hypothesis", "--out", str(tmp_path / "r"),
                    "--set", "samples=20000"])
    assert code == 1
    assert "intersection-hypothesis: FAIL (0/1 verdicts)" in capsys.readouterr().out
    report = json.loads((tmp_path / "r" / "intersection-hypothesis" / "report.json").read_text())
    assert [v["name"] for v in report["verdicts"]] == ["inconclusive"]


@pytest.mark.parametrize("sid, sets", [
    # one depth and one delta leave no step ratio and no ladder to fit
    ("flat-counterexample", ["depths=3", "deltas=0.02", "n=256"]),
    # every pair is the degenerate sep = 0 row, which no verdict judges
    ("intersection-hypothesis", ["separations=0.0", "samples=20000"]),
])
def test_run_that_decides_nothing_exits_one(tmp_path, capsys, sid, sets):
    args = ["run", sid, "--out", str(tmp_path / "r")]
    for item in sets:
        args += ["--set", item]
    assert run_cli(args) == 1
    assert f"{sid}: FAIL (0/1 verdicts)" in capsys.readouterr().out
    report = json.loads((tmp_path / "r" / sid / "report.json").read_text())
    assert report["verdicts"] == [{"name": "undecided", "threshold": 1.0,
                                   "measured": 0.0, "passed": False}]
    assert report["params"]["decided_verdicts"] == 0


def test_runtime_error_exits_three_with_marker(tmp_path, capsys):
    code = run_cli(["run", "kakeya-compression", "--out", str(tmp_path / "r"),
                    "--set", "stages=7"])
    assert code == 3
    sub = tmp_path / "r" / "kakeya-compression"
    assert (sub / "FAILED").exists()
    assert not (sub / "report.json").exists()
    assert "ERROR" in capsys.readouterr().out


def test_forced_rerun_that_passes_clears_failed_marker(tmp_path, capsys):
    args = ["run", "intersection-hypothesis", "--out", str(tmp_path / "r")]
    sub = tmp_path / "r" / "intersection-hypothesis"
    assert run_cli(args + ["--set", "samples=0"]) == 3
    assert (sub / "FAILED").exists()
    assert run_cli(args + ["--set", "samples=200000", "--force"]) == 0
    assert "intersection-hypothesis: PASS (2/2 verdicts)" in capsys.readouterr().out
    assert (sub / "report.json").exists()
    assert not (sub / "FAILED").exists()


def test_forced_rerun_that_fails_leaves_no_passing_report(tmp_path, capsys):
    # the first run's report.json held three passing verdicts; beside the
    # second run's FAILED marker it would read as a pass
    args = ["run", "kakeya-compression", "--out", str(tmp_path / "r")]
    sub = tmp_path / "r" / "kakeya-compression"
    assert run_cli(args + ["--set", "n=256"]) == 0
    assert json.loads((sub / "report.json").read_text())["verdicts"]
    assert run_cli(args + ["--force", "--set", "stages=7"]) == 3
    assert (sub / "FAILED").exists()
    assert not (sub / "report.json").exists()
    assert "ERROR" in capsys.readouterr().out


def test_forced_rerun_that_fails_leaves_only_its_marker(tmp_path, capsys):
    # the first run's CSVs and PGM beside the second run's FAILED would read
    # as that run's output
    args = ["run", "kakeya-compression", "--out", str(tmp_path / "r")]
    sub = tmp_path / "r" / "kakeya-compression"
    assert run_cli(args + ["--set", "n=256"]) == 0
    first = sorted(path.name for path in sub.iterdir())
    assert "kakeya-compression_256_0.pgm" in first
    assert sum(name.endswith(".csv") for name in first) == 5
    assert run_cli(args + ["--force", "--set", "stages=7"]) == 3
    assert [path.name for path in sub.iterdir()] == ["FAILED"]
    assert "ERROR" in capsys.readouterr().out
    # a file no run writes is not the run's to remove
    (sub / "notes.txt").write_text("kept")
    assert run_cli(args + ["--force", "--set", "stages=7"]) == 3
    assert sorted(path.name for path in sub.iterdir()) == ["FAILED", "notes.txt"]


def test_unwritable_out_dir_exits_three(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = run_cli(["run", "kakeya-compression",
                    "--out", str(blocker / "sub")] + FAST_KAKEYA)
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_nonempty_out_dir_refused_without_force(tmp_path, capsys):
    out = tmp_path / "r"
    out.mkdir()
    (out / "stale.txt").write_text("x")
    args = ["run", "kakeya-compression", "--out", str(out)] + FAST_KAKEYA
    assert run_cli(args) == 2
    assert "--force" in capsys.readouterr().err
    assert run_cli(args + ["--force"]) == 0


def test_reruns_are_byte_identical(tmp_path):
    for sub in ("a", "b"):
        code = run_cli(["run", "discrete-incidence", "--seed", "4",
                        "--out", str(tmp_path / sub),
                        "--set", "n=256", "--set", "qs=8,16"])
        assert code == 0
    d_a = tmp_path / "a" / "discrete-incidence"
    d_b = tmp_path / "b" / "discrete-incidence"
    names = sorted(p.name for p in d_a.iterdir() if p.suffix in (".csv", ".pgm"))
    assert any(n.endswith(".pgm") for n in names) and len(names) > 5
    for name in names:
        assert (d_a / name).read_bytes() == (d_b / name).read_bytes()


def test_jobs_flag_runs_all_scenarios_in_order(tmp_path, capsys):
    from gmtlab.scenarios import scenario_ids
    # tiny settings across the board; Monte Carlo goes low-confidence and
    # the honest-red verdicts still fail, so the expected exit code is 1
    cfg = RunConfig(scenario="all", output_dir=tmp_path / "r", jobs=4, seed=1,
                    overrides={"samples": 16, "n": 256, "stages": [0, 1],
                               "depths": [2, 3], "probe_n": 2048})
    assert cli.execute(cfg) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == scenario_ids()
    for sid in scenario_ids():
        assert (tmp_path / "r" / sid / "report.json").exists()


def artifacts(out):
    """sha256 of every CSV and PGM under out, and each scenario's verdicts."""
    digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.suffix in (".csv", ".pgm")}
    verdicts = {p.parent.name: json.loads(p.read_text())["verdicts"]
                for p in out.rglob("report.json")}
    return digests, verdicts


def test_jobs_two_writes_the_bytes_of_jobs_one(tmp_path, capsys, monkeypatch):
    # the golden small grids; two usable CPUs, so the scenarios really fork
    monkeypatch.setattr(raster, "_usable_cpus", lambda: 2)
    runs = {}
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert run_cli(["run", "all", "--jobs", jobs, "--out", str(out),
                        "--set", "n=512", "--set", "probe_n=2048"]) == 1
        runs[jobs] = artifacts(out), capsys.readouterr().out
    (digests, verdicts), _ = runs["2"]
    assert runs["1"] == runs["2"]
    assert len(digests) == 42 and len(verdicts) == 8
    assert multiprocessing.active_children() == []


def test_scenario_that_raises_in_a_worker_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(raster, "_usable_cpus", lambda: 2)
    cfg = RunConfig(scenario="all", output_dir=tmp_path / "r", jobs=2,
                    overrides={"samples": 16, "n": 256, "stages": [7],
                               "depths": [2, 3], "probe_n": 2048})
    assert cli.execute(cfg) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[list(SCENARIOS).index("kakeya-compression")].startswith(
        "kakeya-compression: ERROR (stages beyond 6")
    for sid in SCENARIOS:
        failed = sid == "kakeya-compression"
        assert (tmp_path / "r" / sid / "FAILED").exists() == failed
        assert (tmp_path / "r" / sid / "report.json").exists() != failed
    assert multiprocessing.active_children() == []


def test_union_delta_below_a_quarter_cell_exits_three_before_any_fork(tmp_path, capsys,
                                                                     monkeypatch):
    # delta 0.001 is below a quarter cell: union_areas refuses it in the
    # scenario's process, before a worker starts or a PGM is created
    monkeypatch.setattr(raster, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(raster, "fan_out", lambda *a, **k: pytest.fail("forked"))
    code = run_cli(["run", "fixed-level-positivity", "--out", str(tmp_path / "r"),
                    "--set", "n=64", "--set", "deltas=0.04,0.001"])
    assert code == 3
    marker = tmp_path / "r" / "fixed-level-positivity" / "FAILED"
    assert "delta 0.001 below cell_size/4" in marker.read_text()
    assert "ERROR" in capsys.readouterr().out
    assert list(marker.parent.glob("*.pgm")) == []
    assert multiprocessing.active_children() == []


def test_zero_fd_step_exits_three_by_name(tmp_path, capsys):
    code = run_cli(["run", "transversality", "--out", str(tmp_path / "r"),
                    "--set", "fd_step=0"])
    assert code == 3
    assert "fd_step must be positive" in capsys.readouterr().out


def test_run_all_gives_each_scenario_only_its_own_keys(tmp_path, monkeypatch):
    seen = {}

    def record(sid, overrides, seed, out_dir):
        seen[sid] = overrides
        return ExperimentReport(sid, dict(overrides), {}, [])

    monkeypatch.setattr(cli, "run_scenario", record)
    cfg = parse_config(["run", "all", "--out", str(tmp_path / "r"), "--set", "n=64",
                        "--set", "probe_n=256", "--set", "curve=arc",
                        "--set", "samples=16"])
    assert cli.execute(cfg) == 0
    assert seen == {
        "fixed-level-positivity": {"n": 64},
        "flat-counterexample": {"n": 64},
        "discrete-incidence": {"n": 64},
        "intersection-hypothesis": {"samples": 16},
        "interior-failure": {"n": 64, "probe_n": 256},
        "kakeya-compression": {"n": 64},
        "bourgain-compression": {"samples": 16},
        "transversality": {"curve": "arc", "samples": 16},
    }


def test_module_entry_point():
    # the package's own parent directory, whatever the caller's environment
    src = str(Path(gmtlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "gmtlab.cli", "list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "bourgain-compression" in proc.stdout
