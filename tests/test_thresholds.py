"""Verdict thresholds are constants: no scenario reads one from its params.

A threshold read from p would be a registry key, and so movable by --set or
a config file; a by-design red verdict could then be turned green from the
command line.  The guard parses src/gmtlab/scenarios.py and looks at the
threshold argument of every _at_most, _at_least and _verdict call.
"""

import ast
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "gmtlab" / "scenarios.py"
VERDICT_CALLS = {"_at_most", "_at_least", "_verdict"}


def thresholds_from_params(source: str) -> list:
    """(line, verdict call) of each verdict whose threshold argument reads p."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in VERDICT_CALLS):
            continue
        # the threshold is the second argument: limit, floor or threshold
        args = node.args[1:2] + [kw.value for kw in node.keywords
                                 if kw.arg in ("limit", "floor", "threshold")]
        if any(isinstance(sub, ast.Name) and sub.id == "p"
               for arg in args for sub in ast.walk(arg)):
            found.append((node.lineno, node.func.id))
    return found


def test_guard_sees_every_way_to_read_a_threshold():
    source = ('_at_most("a", p["c_pass"], x)\n'
              '_at_least("b", 2.0 * p.get("floor", 1.0), x)\n'
              '_verdict("c", threshold=p["t"], measured=x, passed=True)\n'
              '_at_most("d", 0.5, p["measured"])\n'       # a measured value may read p
              '_at_least("e", bounds[-1][1], x)\n')
    assert thresholds_from_params(source) == [(1, "_at_most"), (2, "_at_least"),
                                              (3, "_verdict")]


def test_no_verdict_reads_its_threshold_from_params():
    assert thresholds_from_params(SCENARIOS.read_text()) == []
