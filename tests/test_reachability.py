"""Reachability ledger: which src/ functions `gmt-lab run all` never enters.

A subprocess installs a profiler (sys.setprofile and threading.setprofile)
before gmtlab is imported, so import-time calls such as the @_scenario
registrations count, and then runs every scenario serially on small grids,
with raster.fan_out pinned to this process so no call runs unseen in a
forked worker.
Each src/ `def` is keyed by its first line, decorators included, which is the
co_firstlineno of its code object.  A def nested in an unreached def is
covered by its parent's entry; lambdas are ignored.

Every unreached function must be in ALLOWED with the readers that keep it,
joined by ", ": `perfbench:<workload>`, `criterion NN`
(tests/test_acceptance.py), `oracle of <function>`, `flag --<name>`, or
`roadmap:<item>` for code an open ROADMAP item will reach or delete.  The
test fails on an unreached function that
is not listed, on a listed one that is now reached, and on a listed one that
no longer exists, so the list can only shrink.  Run with -s to print the
unreached totals.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gmtlab"

# the run the ledger measures: these small grids enter the same functions as
# `run all` at defaults, apart from cli._coerce and cli._number, which only
# --set enters
RUN = ["run", "all", "--jobs", "1", "--set", "n=512", "--set", "probe_n=2048"]

_CHILD = """
import json, sys, threading
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
threading.setprofile(profile)
from gmtlab import cli, raster
# one usable CPU: every fan-out runs in this process, where the profiler sees
# it (a forked worker's calls are lost with it); the real count is still read
usable = raster._usable_cpus
raster._usable_cpus = lambda: min(usable(), 1)
code = cli.main(json.loads(sys.argv[1]))
sys.setprofile(None)
threading.setprofile(None)
print(json.dumps([code, sorted(entered)]))
"""

ALLOWED = {
    "cli._parse_file": "flag --config",
    "fractal.box_dimension": "roadmap:hypotheses",
    "fractal.frostman_ratio": "roadmap:hypotheses",
    "phase._check_pair": "criterion 01",
    "phase._directions": "roadmap:hypotheses",
    "phase._tangent_basis": "roadmap:hypotheses",
    "phase.bordered_matrix": "criterion 01",
    "phase.diffeo_inverse": "roadmap:hypotheses",
    "phase.diffeo_jacobian": "roadmap:hypotheses",
    "phase.eval_phase": "criterion 01",
    "phase.gradients": "criterion 01",
    "phase.gradients_fd": "criterion 01, oracle of gradients",
    "phase.level_points": "roadmap:hypotheses",
    "phase.rotational_curvature": "criterion 01",
    "phase.rotational_curvature_fd": "criterion 01, oracle of rotational_curvature",
    "raster._check_same_grid": "criterion 12",
    # run only in forked fan_out workers, which this pinned run never starts
    "raster._run_job": "perfbench:run-all, perfbench:spectral-profile",
    "raster._take_jobs": "perfbench:run-all, perfbench:spectral-profile",
    "raster.deposit": "perfbench:spectral-profile",
    "raster.intersection_raster": "criterion 12",
    "raster.rasterize_band": "oracle of union_scanline",
    "raster.rasterize_circles": "roadmap:src holds what runs",
    "raster.union_raster": "criterion 12",
    "raster.union_scanline": "oracle of union_areas",
    "reporting.read_report": "roadmap:one telemetry source",
    "spectral.GriddedDensity.__post_init__":
        "perfbench:spectral-profile, criterion 02, criterion 12",
    "spectral.GriddedDensity.power": "perfbench:spectral-profile, criterion 02",
    "spectral.GriddedDensity.l2_norm": "perfbench:spectral-profile",
    "spectral._bump_dft": "perfbench:spectral-profile, criterion 12",
    "spectral._cosine_step": "perfbench:spectral-profile, criterion 02, criterion 03",
    "spectral._half_power": "perfbench:spectral-profile, criterion 02",
    "spectral._smooth_step": "perfbench:spectral-profile, criterion 02",
    "spectral._surface_directions": "perfbench:spectral-profile, criterion 03",
    "spectral._surface_nodes": "perfbench:spectral-profile, criterion 03",
    "spectral.fit_decay": "perfbench:spectral-profile, criterion 02, criterion 03",
    "spectral.grid_density_from_points": "criterion 02, criterion 12",
    "spectral.incidence_density": "perfbench:spectral-profile",
    "spectral.lp_projection_norms": "perfbench:spectral-profile, criterion 02",
    "spectral.lp_window": "oracle of lp_projection_norms",
    "spectral.mollified_l2": "perfbench:spectral-profile",
    "spectral.mollify": "criterion 12, oracle of mollified_l2",
    "spectral.surface_fourier_decay": "perfbench:spectral-profile, criterion 03",
    "spectral.surface_spectrum": "perfbench:spectral-profile, criterion 03",
}


def src_functions():
    """{"module.qualname": (path, first line, last line)} for every src/ def."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[name] = (path, first, child.end_lineno)
                walk(child, path, name)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, path.stem)
    return found


def unreached(tmp_path):
    """The src/ functions the run never entered, outermost only."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(RUN + ["--out", str(tmp_path)])],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    code, entered = json.loads(out.stdout.splitlines()[-1])
    assert code == 1, out.stdout        # the four by-design reds
    entered = {(str(Path(f).resolve()), line) for f, line in entered}
    functions = src_functions()
    missed = {name for name, (path, first, _) in functions.items()
              if (str(path.resolve()), first) not in entered}
    return {name: functions[name] for name in missed
            if name.rpartition(".")[0] not in missed}, functions


def is_reader(reader: str, functions) -> bool:
    """Whether reader names a perfbench workload, an acceptance criterion, a
    src/ function (as `oracle of` it), a CLI flag, or a ROADMAP item."""
    kind, _, what = reader.partition(":")
    if kind == "perfbench":
        workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
        return what in [w["name"] for w in workloads]
    if kind == "roadmap":
        return bool(what)
    if reader.startswith("criterion "):
        text = (ROOT / "tests" / "test_acceptance.py").read_text()
        return f"def test_criterion_{reader[-2:]}_" in text
    if reader.startswith("oracle of "):
        return any(name.endswith("." + reader[10:]) for name in functions)
    if reader.startswith("flag --"):
        return f'"{reader[5:]}"' in (SRC / "cli.py").read_text()
    return False


def where(span) -> str:
    path, first, _ = span
    return f"{path.relative_to(ROOT)}:{first}"


def test_every_unreached_function_names_its_reader(tmp_path):
    missed, functions = unreached(tmp_path)
    lines = sum(last - first + 1 for _, first, last in missed.values())
    print(f"\nunreached: {len(missed)} functions, {lines} lines")

    problems = [f"{where(span)} {name} is never entered and not in ALLOWED"
                for name, span in sorted(missed.items()) if name not in ALLOWED]
    for name, reason in sorted(ALLOWED.items()):
        if name not in functions:
            problems.append(f"{name} is in ALLOWED but no longer exists")
        elif name not in missed:
            problems.append(f"{where(functions[name])} {name} is reached now: "
                            f"drop it from ALLOWED")
        else:
            problems += [f"{name}: {reader!r} is not a reader" for reader in
                         reason.split(", ") if not is_reader(reader, functions)]
    assert not problems, "\n".join(problems)
