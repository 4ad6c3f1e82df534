"""Experiment reports: verdicts, series, and their on-disk form.

A report serializes to a `report.json` manifest plus one CSV per series.
Floats are written with repr, which round-trips exactly, so re-running with
the same seed reproduces every CSV byte for byte; wall_time lives only in
the manifest for that reason.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ArgumentError

CSV_HEADER = "abscissa,value"


@dataclass(frozen=True)
class Verdict:
    name: str
    threshold: float
    measured: float
    passed: bool


@dataclass
class ExperimentReport:
    scenario_id: str
    params: dict
    series: dict                      # name -> list of (abscissa, value)
    verdicts: list
    artifacts: list = field(default_factory=list)
    seed: int = 0
    wall_time: float = 0.0

    def __post_init__(self):
        known = set()
        for v in self.params.values():
            if isinstance(v, (list, tuple)):
                known.update(x for x in v if isinstance(x, (int, float)))
            elif isinstance(v, (int, float)):
                known.add(v)
        for rows in self.series.values():
            known.update(val for _, val in rows)
        for v in self.verdicts:
            if v.measured not in known:
                raise ArgumentError(
                    f"verdict {v.name!r} measures {v.measured!r}, "
                    "which appears in no series or param"
                )

    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def summary_line(self) -> str:
        n_pass = sum(1 for v in self.verdicts if v.passed)
        word = "PASS" if self.all_passed() else "FAIL"
        return f"{self.scenario_id}: {word} ({n_pass}/{len(self.verdicts)} verdicts)"


def series_csv(rows) -> str:
    lines = [CSV_HEADER]
    for a, v in rows:
        lines.append(f"{a!r},{v!r}")
    return "\n".join(lines) + "\n"


def write_report(report: ExperimentReport, out_dir) -> list:
    """Write report.json and one <series>.csv per series; returns the paths.

    The written file names are appended to report.artifacts (relative to
    out_dir) so the manifest lists everything the run emitted.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(report.series):
        path = out / f"{name}.csv"
        with open(path, "w", newline="\n") as fh:
            fh.write(series_csv(report.series[name]))
        written.append(path)
        if f"{name}.csv" not in report.artifacts:
            report.artifacts.append(f"{name}.csv")
    manifest = {
        "scenario_id": report.scenario_id,
        "seed": report.seed,
        "wall_time": report.wall_time,
        "params": report.params,
        "series": {k: [[a, v] for a, v in rows] for k, rows in report.series.items()},
        "verdicts": [asdict(v) for v in report.verdicts],
        "artifacts": report.artifacts,
    }
    path = out / "report.json"
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    written.append(path)
    return written


def read_report(path) -> ExperimentReport:
    with open(path) as fh:
        m = json.load(fh)
    return ExperimentReport(
        scenario_id=m["scenario_id"],
        params=m["params"],
        series={k: [(a, v) for a, v in rows] for k, rows in m["series"].items()},
        verdicts=[
            Verdict(v["name"], v["threshold"], v["measured"], v["passed"])
            for v in m["verdicts"]
        ],
        artifacts=list(m["artifacts"]),
        seed=m["seed"],
        wall_time=m["wall_time"],
    )
