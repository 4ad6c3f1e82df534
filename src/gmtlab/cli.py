"""The gmt-lab command line: config parsing, dispatch, exit-code contract.

Usage:
    gmt-lab run <scenario|all> [--seed N] [--out DIR] [--jobs N] [--force]
                               [--config FILE] [--set key=value]...
    gmt-lab list

Exit codes: 0 all verdicts pass, 1 some verdict fails, 2 usage error,
3 runtime error.  --seed, --out, --jobs and --force come from flags only.
The config file holds scenario keys only, the keys --set takes, as flat
`key = value` text with comma-separated lists; `#` starts a comment line.
--set overrides file keys, which override the scenario defaults.  A
single-scenario run takes only its own keys, from --set or the file; floats
must be finite and the seed non-negative.

Each scenario writes only inside <out>/<scenario-id>/: the report manifest,
one CSV per series, PGM snapshots, and a FAILED marker if the run raised.
Human-readable one-line summaries go to standard output.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from .raster import fan_out
from .reporting import write_report
from .scenarios import SCENARIOS, run_scenario, scenario_ids


class UsageError(Exception):
    """Bad flags, keys, or values: mapped to exit code 2."""


@dataclass
class RunConfig:
    scenario: str = "all"
    output_dir: Path = Path("results")
    seed: int = 0
    jobs: int = 1
    force: bool = False
    overrides: dict = field(default_factory=dict)
    list_only: bool = False


def _number(text, like):
    """int(text) if like is an int, else float(text), which must be finite."""
    if isinstance(like, int):
        return int(text)
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _coerce(key, default, text):
    """Parse a value string into the type of the default it replaces."""
    try:
        if isinstance(default, str):
            return text.strip()
        if not isinstance(default, (list, tuple)):
            return _number(text, default)
        parts = [p.strip() for p in text.split(",") if p.strip() != ""]
        if not parts:
            raise ValueError("empty list")
        vals = [_number(p, default[0]) for p in parts]
        if isinstance(default, tuple):
            if len(vals) != len(default):
                raise ValueError(f"expected {len(default)} values")
            return tuple(vals)
        return vals
    except ValueError as exc:
        raise UsageError(f"invalid value for {key}: {text!r} ({exc})") from exc


def _param_template():
    tmpl = {}
    for defaults, _ in SCENARIOS.values():
        tmpl.update(defaults)
    return tmpl


def _parse_file(path) -> dict:
    """Flat key = value lines; returns raw strings keyed by name."""
    raw = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def parse_config(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="gmt-lab",
        description="run reproducible measure-geometry experiments")
    commands = parser.add_subparsers(dest="command")
    runner = commands.add_parser("run", help="run one scenario or all")
    runner.add_argument("scenario", help="scenario id or 'all'")
    runner.add_argument("--seed", type=int, default=0)
    runner.add_argument("--out", default="results", help="output directory")
    runner.add_argument("--jobs", type=int, default=1,
                        help="scenario-level parallelism, at least 1 (default 1)")
    runner.add_argument("--force", action="store_true",
                        help="allow a non-empty output directory")
    runner.add_argument("--config", default=None, help="key = value file")
    runner.add_argument("--set", action="append", default=[], dest="sets",
                        metavar="KEY=VALUE", help="override one parameter")
    commands.add_parser("list", help="print scenario ids")

    args = parser.parse_args(argv)
    if args.command == "list":
        return RunConfig(list_only=True)
    if args.command != "run":
        raise UsageError("expected a command: run or list")

    if args.scenario != "all" and args.scenario not in SCENARIOS:
        raise UsageError(f"unknown scenario {args.scenario!r}; "
                         f"try one of: {', '.join(scenario_ids())}")
    given = []          # (key, text, source), file first so --set wins
    if args.config is not None:
        given += [(key, text, f"config file {args.config}")
                  for key, text in _parse_file(args.config).items()]
    for item in args.sets:
        key, eq, text = item.partition("=")
        if not eq:
            raise UsageError(f"--set needs KEY=VALUE, got {item!r}")
        given.append((key.strip(), text, "--set"))

    # a single scenario takes only its own keys, from either source
    template = _param_template()
    keys = template if args.scenario == "all" else SCENARIOS[args.scenario][0]
    overrides = {}
    for key, text, source in given:
        if key not in keys:
            raise UsageError(f"unknown key {key!r} in {source}" if keys is template else
                             f"{args.scenario} has no key {key!r} (from {source}); "
                             f"its keys: {', '.join(keys)}")
        overrides[key] = _coerce(key, keys[key], text)

    if args.jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {args.jobs}")
    if args.seed < 0:
        raise UsageError(f"seed must be non-negative, got {args.seed}")
    return RunConfig(scenario=args.scenario, output_dir=Path(args.out), seed=args.seed,
                     jobs=args.jobs, force=args.force, overrides=overrides)


def _run_one(sid: str, config: RunConfig):
    """Run one scenario into its own directory; never raises."""
    sub = config.output_dir / sid
    try:
        sub.mkdir(parents=True, exist_ok=True)
        # what an earlier run (under --force) wrote here must not outlive it,
        # so a failed run never sits beside a passing report or its series
        for pattern in ("*.csv", "*.pgm", "report.json", "FAILED"):
            for stale in sub.glob(pattern):
                stale.unlink()
        defaults, _ = SCENARIOS[sid]
        local = {k: v for k, v in config.overrides.items() if k in defaults}
        report = run_scenario(sid, local, seed=config.seed, out_dir=sub)
        write_report(report, sub)
        return report.summary_line(), report.all_passed(), False
    except Exception as exc:
        try:
            marker = sub / "FAILED"
            marker.write_text(traceback.format_exc())
        except OSError:
            pass
        return f"{sid}: ERROR ({exc})", False, True


def execute(config: RunConfig) -> int:
    if config.list_only:
        for sid in scenario_ids():
            print(sid)
        return 0

    targets = scenario_ids() if config.scenario == "all" else [config.scenario]
    out = config.output_dir
    try:
        if out.exists() and not config.force and any(out.iterdir()):
            print(f"error: {out} is not empty (use --force)", file=sys.stderr)
            return 2
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-test"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: cannot write to {out}: {exc}", file=sys.stderr)
        return 3

    if config.jobs == 1:
        results = []
        for sid in targets:
            results.append(_run_one(sid, config))
            print(results[-1][0])
    else:
        # scenarios run on worker processes, whose own fan-outs run serially;
        # the summaries print once all are done, in input order
        results = fan_out(_run_one, [(sid, config) for sid in targets], workers=config.jobs)
        for line, _, _ in results:
            print(line)

    if any(crashed for _, _, crashed in results):
        return 3
    if not all(passed for _, passed, _ in results):
        return 1
    return 0


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        # argparse already printed its message; fold into the contract
        return 0 if exc.code in (0, None) else 2
    return execute(config)


if __name__ == "__main__":
    sys.exit(main())
