"""Output checks: which operations of a run failed, and why.

On run-all and mc-volumes one operation is one scenario.  It fails if its
report is missing, it left a FAILED marker, its CSV/PGM digests or its verdict
pass/fail pattern differ from reference.json (kept for seeds 0 and 3), or its
digests differ between passes of one run.  Without --set overrides, at any
seed, the artifact and verdict names must match the reference and the
by-design red verdicts (acceptance criteria 04, 05 and 08) must stay red: a
"speed-up" that turns one green is a behaviour change.

On spectral-profile each pass has four operations: the incidence deposit,
the band norms, the mollified L2 norms and the decay fit.  Floats are
compared to the reference within SPECTRAL_RTOL, which allows the sums to be
reassociated (a different deposit or FFT order) but not a changed result;
the support cell count is compared exactly.
"""

from __future__ import annotations

import math

BY_DESIGN_RED = {
    "fixed-level-positivity": ("control-shrink",),
    "flat-counterexample": ("flat-shrink", "zero-area-intercept"),
    "interior-failure": ("run-bound",),
}
SPECTRAL_RTOL = 1e-9

def check(workload, seed, overrides, passes, reference):
    """(attempted, failed, problems) over the outputs of every pass of a run."""
    if workload == "spectral-profile":
        return _check_spectral(seed, overrides, passes, reference)
    return _check_cli(workload, seed, overrides, passes, reference)


def _check_cli(workload, seed, overrides, passes, reference):
    shape = reference["seeds"]["0"][workload]
    ref = None if overrides else reference["seeds"].get(str(seed), {}).get(workload)
    attempted = failed = 0
    problems = []
    first = passes[0]["scenarios"]
    for i, out in enumerate(passes):
        clean = True
        verdicts_all = []
        for sid in shape:
            attempted += 1
            why = _scenario_problems(sid, out["scenarios"].get(sid), first.get(sid),
                                     shape[sid], ref and ref[sid], not overrides)
            if why:
                clean = False
                failed += 1
                problems.append(f"pass {i} {sid}: {why}")
            else:
                verdicts_all.extend(out["scenarios"][sid]["verdicts"].values())
        if clean and out["exit_code"] != (0 if all(verdicts_all) else 1):
            problems.append(f"pass {i}: exit code {out['exit_code']} does not "
                            "match the verdicts")
    return attempted, failed, problems


def _scenario_problems(sid, entry, first, shape, ref, defaults):
    if entry is None or entry["verdicts"] is None:
        return "no report.json"
    if entry["failed_marker"]:
        return "FAILED marker"
    if defaults:
        if sorted(entry["files"]) != sorted(shape["files"]):
            return f"artifacts {sorted(entry['files'])} != {sorted(shape['files'])}"
        if sorted(entry["verdicts"]) != sorted(shape["verdicts"]):
            return f"verdicts {sorted(entry['verdicts'])} != {sorted(shape['verdicts'])}"
        green = [v for v in BY_DESIGN_RED.get(sid, ()) if entry["verdicts"][v]]
        if green:
            return f"by-design red verdicts turned green: {green}"
    if ref is not None:
        bad = sorted(k for k, v in entry["files"].items() if ref["files"].get(k) != v)
        if bad:
            return f"digests differ from the reference: {bad}"
        if entry["verdicts"] != ref["verdicts"]:
            return f"verdicts {entry['verdicts']} != reference {ref['verdicts']}"
    if first is not None and entry["files"] != first["files"]:
        return "digests differ from the run's first pass"
    return ""


def _close(a, b):
    return math.isclose(a, b, rel_tol=SPECTRAL_RTOL)


def _check_spectral(seed, overrides, passes, reference):
    ref = None if overrides else reference["seeds"].get(str(seed), {}).get(
        "spectral-profile")
    first = passes[0]
    attempted = failed = 0
    problems = []
    for i, out in enumerate(passes):
        norms, moll = out["norms"], out["mollified_l2"]
        sum_sq = sum(v * v for v in norms)
        ops = {
            "incidence": [
                (out["support_cells"] > 0, "empty support"),
                (ref is None or out["support_cells"] == ref["support_cells"],
                 "support cells differ from the reference")],
            "lp-norms": [
                (all(math.isfinite(v) and v >= 0 for v in norms), "bad norm"),
                # the windows are in [0, 1] and sum to 1, so the pieces'
                # squared norms cannot add up to more than the whole's
                (sum_sq <= out["l2"] ** 2 * (1 + SPECTRAL_RTOL),
                 f"band norms square-sum {sum_sq} > L2^2 {out['l2'] ** 2}"),
                (ref is None or (len(norms) == len(ref["norms"]) and all(
                    map(_close, norms, ref["norms"]))), "norms differ from the reference")],
            "mollified-l2": [
                (all(math.isfinite(v) and v > 0 for v in moll), "bad mollified norm"),
                (ref is None or (len(moll) == len(ref["mollified_l2"]) and all(
                    map(_close, moll, ref["mollified_l2"]))),
                 "mollified L2 differs from the reference")],
            "decay-fit": [
                (math.isfinite(out["decay_slope"]) and out["decay_slope"] < 0,
                 "decay slope not negative"),
                (ref is None or _close(out["decay_slope"], ref["decay_slope"]),
                 "decay slope differs from the reference")],
        }
        keys = {"incidence": ("support_cells", "l2"), "lp-norms": ("norms",),
                "mollified-l2": ("mollified_l2",), "decay-fit": ("decay_slope",)}
        for op, conds in ops.items():
            attempted += 1
            conds.append((all(out[k] == first[k] for k in keys[op]),
                          "differs from the run's first pass"))
            why = [msg for ok, msg in conds if not ok]
            if why:
                failed += 1
                problems.append(f"pass {i} {op}: {'; '.join(why)}")
    return attempted, failed, problems
