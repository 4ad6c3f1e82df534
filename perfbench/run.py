"""gmt-lab benchmark: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py --workload run-all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare BEFORE_RESULTS AFTER_RESULTS
    python3 perfbench/run.py --record-reference

Each timed pass runs in a fresh single-threaded process (child.py).  Passes
repeat while a typical pass still fits in --seconds, at least one; --trace 1
alternates traced and untraced passes, at least one of each.  The last
stdout line is the JSON result: end-to-end metrics (medians over the passes)
with --trace 0, per-layer metrics (medians over the traced passes) with
--trace 1.  Each run appends a full record to <--results>/<workload>.jsonl
and writes the last traced pass's spans to <--results>/spans-<workload>.json.
See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import compare  # noqa: E402
import tracer  # noqa: E402

SETUP_SAMPLES = 9
DEADLINE_S = 165.0        # a run must end within 180 s; leave a margin
WORKLOADS = ("run-all", "mc-volumes", "spectral-profile")
SCENARIO_WALLS = ("fixed-level-positivity", "flat-counterexample",
                  "interior-failure", "intersection-hypothesis")
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run: no result is printed, exit code 2."""


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_rev():
    """HEAD of the checkout, or None where it is not a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, text=True, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment():
    import importlib.metadata as md

    try:
        numpy_version = md.version("numpy")
    except md.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "cpu_count": os.cpu_count(), "machine": platform.machine(),
            "git_rev": _git_rev(), "src_sha256": _src_digest(),
            "loadavg_start": _loadavg()}


class Runner:
    """Starts child processes for one workload and collects their results."""

    def __init__(self, workload, seed, overrides, work_dir, deadline):
        self.base = {"root": str(ROOT), "workload": workload, "seed": seed,
                     "overrides": overrides, "work_dir": str(work_dir)}
        self.work_dir = work_dir
        self.deadline = deadline
        # children run with -I, which ignores PYTHON* variables
        self.env = dict(os.environ, **CHILD_ENV)
        self.count = 0

    def child(self, mode, trace=False):
        self.count += 1
        req_path = self.work_dir / f"req-{self.count}.json"
        res_path = self.work_dir / f"res-{self.count}.json"
        t_spawn = time.monotonic()
        req = dict(self.base, mode=mode, trace=trace, t_spawn=t_spawn,
                   result=str(res_path))
        req_path.write_text(json.dumps(req))
        budget = self.deadline - t_spawn
        if budget <= 0:
            raise BenchError("out of time before the next process")
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(HERE / "child.py"), str(req_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=budget)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process passed the {DEADLINE_S:.0f} s "
                             "deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        return json.loads(res_path.read_text())


def measure(runner, seconds, trace):
    """Passes that fit in `seconds`, at least one of each kind.

    A new pass starts only if a typical pass would still end within the
    window, so a run lasts about `seconds` whatever the pass length; with
    trace, passes alternate traced and untraced.
    """
    passes = []
    kinds = [True, False] if trace else [False]
    start = time.monotonic()
    while True:
        lengths = [p["wall_s"] + p["setup_s"] for p in passes]
        typical = statistics.median(lengths) if lengths else 0.0
        now = time.monotonic()
        if {p["traced"] for p in passes} >= set(kinds) and now - start + typical > seconds:
            break
        # stop early rather than let a pass run into the deadline
        if lengths and now + 1.5 * max(lengths) > runner.deadline:
            break
        traced = kinds[len(passes) % len(kinds)]
        res = runner.child("pass", traced)
        res["traced"] = traced
        passes.append(res)
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("setup")["setup_s"])
    return passes, setups


def end_to_end(passes, setups):
    plain = [p for p in passes if not p["traced"]]
    return {"wall_s": statistics.median([p["wall_s"] for p in plain]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in plain])}


def per_layer(passes, attempted, failed):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = []
    for p in traced:
        row = tracer.reduce(p["spans"], p["wall_s"])
        row["trace.wall_s"] = p["wall_s"]
        row["artifact_mb"] = p["outputs"]["artifact_bytes"] / 1e6
        scen = p["outputs"].get("scenarios", {})
        for sid in SCENARIO_WALLS:
            row[f"{sid}.wall_s"] = (scen.get(sid) or {}).get("wall_time") or 0.0
        rows.append(row)
    values = {name: statistics.median([r[name] for r in rows]) for name in rows[0]}
    # 0 when no untraced pass fitted before the deadline (see measure)
    values["trace.overhead_s"] = (values["trace.wall_s"] - statistics.median(
        [p["wall_s"] for p in plain]) if plain else 0.0)
    values["failed_ratio"] = failed / attempted
    return values


def layer_units():
    units = dict(tracer.metric_names())
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "artifact_mb": "MB", "failed_ratio": "ratio"})
    units.update({f"{sid}.wall_s": "s" for sid in SCENARIO_WALLS})
    return units


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def attribution(values, wall_s):
    """Stderr lines: the largest function self times, as shares of the pass."""
    rows = sorted(((v, k) for k, v in values.items()
                   if k.count(".") >= 2 and k.endswith((".s", ".self_s"))),
                  reverse=True)
    return [f"  {k:<55} {v:9.3f} s  {100 * v / wall_s:5.1f} %"
            for v, k in rows[:8] if v > 0]


def run(args):
    bench = load_benchmark()
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "gmtlab" / "__init__.py").is_file():
        raise BenchError(f"no gmtlab source under {ROOT / 'src'}")
    overrides = {}
    for item in args.set:
        key, eq, value = item.partition("=")
        if not eq:
            raise BenchError(f"--set needs KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    reference = json.loads((HERE / "reference.json").read_text())
    env = environment()
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=results))
    try:
        runner = Runner(args.workload, args.seed, overrides, work,
                        time.monotonic() + DEADLINE_S)
        passes, setups = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = _loadavg()
    attempted, failed, problems = check.check(
        args.workload, args.seed, overrides, [p["outputs"] for p in passes],
        reference)

    if args.trace:
        values = per_layer(passes, attempted, failed)
        units = layer_units()
        wanted = bench["per_layer"]
        last = [p for p in passes if p["traced"]][-1]
        (results / f"spans-{args.workload}.json").write_text(json.dumps(
            {"seed": args.seed, "wall_s": last["wall_s"], "fields": [
                "name", "key", "start", "end", "parent", "counts",
                "maxrss_rise_mb"], "spans": last["spans"]}))
    else:
        values = end_to_end(passes, setups)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        wanted = bench["end_to_end"]
    mismatch = sorted({m["name"] for m in wanted} ^ set(values))
    if mismatch:
        raise BenchError(f"metrics out of step with BENCHMARK.json: {mismatch}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": units[m["name"]]}
               for m in wanted}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "overrides": overrides, "env": env, "correct": not problems,
              "attempted": attempted, "failed": failed, "problems": problems,
              "metrics": metrics, "setups_s": setups,
              "passes": [{k: p[k] for k in ("traced", "setup_s", "wall_s",
                                             "peak_rss_mb")} for p in passes]}
    with open(results / f"{args.workload}.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{failed}/{attempted} operations failed, load {env['loadavg_start']}"
          f" -> {env['loadavg_end']}", file=sys.stderr)
    for problem in problems:
        print(f"  problem: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        if not args.trace or name.startswith("trace."):
            print(f"  {name:<55} {m['value']:12.4f} {m['unit']}", file=sys.stderr)
    if args.trace:
        print("  largest self times in the traced pass:", file=sys.stderr)
        for line in attribution(values, values["trace.wall_s"]):
            print(line, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def record_reference():
    """Rewrite reference.json from seeds 0 and 3, without --set overrides."""
    seeds = {}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    for seed in (0, 3):
        entry = {}
        for workload in WORKLOADS:
            with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as work:
                runner = Runner(workload, seed, {}, Path(work),
                                time.monotonic() + 600)
                out = runner.child("pass")["outputs"]
            if workload != "spectral-profile":
                out = {sid: {"files": e["files"], "verdicts": e["verdicts"]}
                       for sid, e in out["scenarios"].items()}
                for sid, names in check.BY_DESIGN_RED.items():
                    if sid in out and any(out[sid]["verdicts"][v] for v in names):
                        raise BenchError(f"seed {seed}: {sid} has a by-design "
                                         "red verdict that passed")
            else:
                out.pop("artifact_bytes")
            entry[workload] = out
        seeds[str(seed)] = entry
    env = environment()
    reference = {"about": "gmt-lab outputs of each workload; see check.py",
                 "python": env["python"], "numpy": env["numpy"],
                 "src_sha256": env["src_sha256"], "seeds": seeds}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="override a workload parameter")
    parser.add_argument("--results", default=str(ROOT / ".perfbench"),
                        help="directory for run records and spans")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            compare.print_table(args.compare[0], args.compare[1], load_benchmark())
        elif args.record_reference:
            record_reference()
        else:
            if not args.workload:
                parser.error("--workload is required")
            run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
