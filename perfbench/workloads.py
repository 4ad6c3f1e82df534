"""The benchmark's workloads: set-up, the timed pass, and its outputs.

Every workload runs in a fresh Python process (see child.py).  setup() does
everything before the first timed call: importing gmtlab, building inputs and
creating the output directory.  run() is the timed pass.  collect() reads the
outputs after the clock has stopped and returns plain JSON data that
check.py compares against the reference.

Why these workloads:
- run-all: `gmt-lab run all` at defaults, serial; the run users start.  The
  raster span kernels (union_scanline, rasterize_circles, rasterize_band) do
  most of its work, and it is the only workload that writes PGMs.  One pass
  takes 30-45 s, so a run has one pass.
- mc-volumes: `gmt-lab run intersection-hypothesis`, 16 Monte Carlo volumes
  of 2M samples.  No span kernel runs, so a span-kernel change predicts no
  change here; a Monte Carlo or phase change shows here first.
- spectral-profile: a library pipeline no scenario calls.  It is the only
  workload that times the spectral layer, and its weighted incidence deposit
  repeats the circle-span arithmetic, so a shared span kernel that helps
  run-all but slows the weighted deposit shows here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _CliWorkload:
    """One `gmt-lab run <target>` call into a fresh output directory."""

    target = ""

    def setup(self, seed, overrides, work_dir):
        from gmtlab import cli

        out = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=work_dir))
        argv = ["run", self.target, "--seed", str(seed), "--out", str(out),
                "--jobs", "1"]
        # the CLI parses and validates --set values itself
        for key, value in overrides.items():
            argv += ["--set", f"{key}={value}"]
        return {"cli": cli, "argv": argv, "out": out}

    def run(self, state):
        # the CLI prints one summary line per scenario; keep it off our stdout
        with contextlib.redirect_stdout(io.StringIO()):
            return state["cli"].main(state["argv"])

    def collect(self, state, exit_code):
        out = state["out"]
        scenarios = {}
        total = 0
        for path in sorted(out.rglob("*")):
            if path.is_file():
                total += path.stat().st_size
        for sub in sorted(p for p in out.iterdir() if p.is_dir()):
            entry = {"failed_marker": (sub / "FAILED").exists(),
                     "files": {}, "verdicts": None, "wall_time": None}
            for path in sorted(sub.iterdir()):
                if path.suffix in (".csv", ".pgm"):
                    entry["files"][path.name] = _sha256(path)
            report = sub / "report.json"
            if report.exists():
                manifest = json.loads(report.read_text())
                entry["verdicts"] = {v["name"]: v["passed"]
                                     for v in manifest["verdicts"]}
                entry["wall_time"] = manifest["wall_time"]
            scenarios[sub.name] = entry
        shutil.rmtree(out)
        return {"exit_code": exit_code, "artifact_bytes": total,
                "scenarios": scenarios}


class RunAll(_CliWorkload):
    name = "run-all"
    target = "all"


class McVolumes(_CliWorkload):
    name = "mc-volumes"
    target = "intersection-hypothesis"


class SpectralProfile:
    """Incidence density of 4096 unit circles, then its spectral profile."""

    name = "spectral-profile"
    params = {"depth": 6, "n": 2048, "delta": 0.01, "j_max": 10,
              "epsilons": [0.08, 0.04, 0.02, 0.01], "log2_freqs": [2, 9],
              "directions": 64}

    def setup(self, seed, overrides, work_dir):
        from gmtlab import fractal, spectral
        from gmtlab.raster import Circle, GridSpec

        p = dict(self.params)
        for key, text in overrides.items():
            if key not in p:
                raise KeyError(f"unknown {self.name} parameter {key!r}")
            default = p[key]
            if isinstance(default, list):
                p[key] = [type(default[0])(v) for v in text.split(",")]
            else:
                p[key] = type(default)(text)
        lo, hi = p["log2_freqs"]
        return {"fractal": fractal, "spectral": spectral, "Circle": Circle,
                "grid": GridSpec(((-1.1, -1.1), (2.1, 2.1)), p["n"]),
                "freqs": [2 ** k for k in range(lo, hi + 1)],
                "seed": seed, "p": p}

    def run(self, state):
        fractal, spectral, p = state["fractal"], state["spectral"], state["p"]
        c = fractal.cantor_middle_thirds(p["depth"])
        cloud = fractal.product_point_cloud(c, c, seed=state["seed"])
        density = spectral.incidence_density(state["Circle"], cloud, 1.0,
                                             p["delta"], state["grid"])
        norms = spectral.lp_projection_norms(density, p["j_max"])
        mollified = spectral.mollified_l2(density, p["epsilons"])
        fit = spectral.surface_fourier_decay("curve-3d", state["freqs"],
                                             p["directions"], seed=state["seed"])
        return density, norms, mollified, fit

    def collect(self, state, result):
        import numpy as np

        density, norms, mollified, fit = result
        return {"support_cells": int(np.count_nonzero(density.values)),
                "l2": density.l2_norm(),
                "norms": [v for _, v in norms],
                "mollified_l2": [v for _, v in mollified],
                "decay_slope": fit.slope,
                "artifact_bytes": 0}


WORKLOADS = {w.name: w for w in (RunAll(), McVolumes(), SpectralProfile())}
