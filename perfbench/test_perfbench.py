"""Tests of the benchmark harness itself, at tiny sizes.

    python3 -m pytest perfbench -q

The smoke runs shrink every workload through --set, so the whole file
finishes in well under a minute; full-size runs stay out of the tests.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = {
    "run-all": ["n=256", "samples=200", "probe_n=512", "depths=3,4"],
    "mc-volumes": ["samples=20000"],
    "spectral-profile": ["n=256", "depth=3", "delta=0.02", "j_max=6",
                         "epsilons=0.08,0.04", "log2_freqs=2,5"],
}
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_run_prints_checked_metrics(tmp_path, workload, trace):
    sets = [a for kv in TINY[workload] for a in ("--set", kv)]
    proc = _bench(["--workload", workload, "--seed", "5", "--seconds", "0.1",
                   "--trace", str(trace), "--results", str(tmp_path), *sets])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((tmp_path / f"{workload}.jsonl").read_text())
    assert record["env"]["cpu_count"] and record["env"]["loadavg_end"]


def test_without_source_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "mc-volumes", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_per_layer_metrics_match_benchmark_json():
    units = run.layer_units()
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == units


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["cli.main", None, 0.0, 10.0, -1, None, 5.0],
        ["scenarios.run_scenario", "transversality", 1.0, 9.0, 0, None, 4.0],
        ["raster.union_scanline", None, 2.0, 5.0, 1, (7,), 3.0],
        ["phase.eval_phase_batch", None, 5.0, 6.0, 1, (100,), 0.0],
    ]
    values = tracer.reduce(spans, 10.5)
    assert values["cli.main.s"] == pytest.approx(2.0)
    assert values["scenarios.run_scenario.transversality.self_s"] == pytest.approx(4.0)
    assert values["raster.union_scanline.s"] == pytest.approx(3.0)
    assert values["raster.union_scanline.shapes"] == 7
    assert values["phase.eval_phase_batch.points"] == 100
    assert values["raster.maxrss_rise_mb"] == pytest.approx(3.0)
    assert values["scenarios.maxrss_rise_mb"] == pytest.approx(1.0)
    assert values["trace.unattributed_s"] == pytest.approx(0.5)


def test_tracer_patches_names_imported_by_other_modules():
    sys.path.insert(0, str(ROOT / "src"))
    from gmtlab import cli, phase, raster

    original = phase.eval_phase_batch
    t = tracer.Tracer()
    t.install()
    try:
        assert raster.eval_phase_batch is phase.eval_phase_batch
        assert raster.eval_phase_batch is not original
        assert cli.run_scenario is not original
        spec = phase.PhaseSpec(phase.KIND_UNIT_DISTANCE, 2)
        raster.monte_carlo_intersection(
            ((spec, (0.0, 0.0), 1.0), (spec, (0.5, 0.0), 1.0)), 0.1,
            ((-2.0, -2.0), (2.0, 2.0)), 1000)
    finally:
        t.uninstall()
    assert phase.eval_phase_batch is original and raster.eval_phase_batch is original
    names = [s[0] for s in t.spans]
    assert names[0] == "raster.monte_carlo_intersection"
    assert names.count("phase.eval_phase_batch") == 2
    assert all(s[4] == 0 for s in t.spans[1:])


def _reference():
    return json.loads((HERE / "reference.json").read_text())


def _outputs(ref_entry):
    return {"exit_code": 1, "artifact_bytes": 1, "scenarios": {
        sid: {"failed_marker": False, "files": dict(e["files"]),
              "verdicts": dict(e["verdicts"]), "wall_time": 1.0}
        for sid, e in ref_entry.items()}}


def test_check_accepts_reference_and_rejects_changes():
    ref = _reference()
    good = _outputs(ref["seeds"]["0"]["run-all"])
    assert check.check("run-all", 0, {}, [good, good], ref) == (16, 0, [])

    green = copy.deepcopy(good)
    green["scenarios"]["interior-failure"]["verdicts"]["run-bound"] = True
    att, failed, problems = check.check("run-all", 7, {}, [green], ref)
    assert failed == 1 and "by-design red" in problems[0]

    changed = copy.deepcopy(good)
    name = sorted(changed["scenarios"]["flat-counterexample"]["files"])[0]
    changed["scenarios"]["flat-counterexample"]["files"][name] = "0" * 64
    assert check.check("run-all", 0, {}, [changed], ref)[1] == 1
    # unknown seed: no reference digests, but passes must agree
    assert check.check("run-all", 7, {}, [changed], ref)[1] == 0
    assert check.check("run-all", 7, {}, [good, changed], ref)[1] == 1


def test_check_spectral_tolerance():
    ref = _reference()
    out = dict(ref["seeds"]["3"]["spectral-profile"], artifact_bytes=0)
    assert check.check("spectral-profile", 3, {}, [out], ref) == (4, 0, [])
    nudged = dict(out, norms=[v * (1 + 1e-12) for v in out["norms"]])
    assert check.check("spectral-profile", 3, {}, [nudged], ref)[1] == 0
    moved = dict(out, decay_slope=out["decay_slope"] * (1 + 1e-6))
    assert check.check("spectral-profile", 3, {}, [moved], ref)[1] == 1


@pytest.mark.parametrize("before, after, expected", [
    ([10.0] * 10, [8.0] * 10, "improved"),
    ([10.0] * 10, [12.0] * 10, "regressed"),
    ([10.0] * 10, [10.2] * 10, "unchanged"),
    ([5.0, 15.0] * 5, [6.0, 14.0] * 5, "unresolved"),
])
def test_compare_labels(before, after, expected):
    a = list(enumerate(before))
    b = list(enumerate(after))
    assert compare.label(a, b, 0.1, "lower")[0] == expected
