"""One fresh, single-threaded process: set up one workload, time one pass.

Usage: python3 -I perfbench/child.py REQUEST.json

The request names the checkout root, the workload, its seed and --set
overrides, the mode ("setup" stops before the timed call), whether to trace,
the parent's time.monotonic() just before it started this process, and the
file to write the result to.  CLOCK_MONOTONIC is shared by all processes, so
setup_s counts interpreter start-up, imports, inputs and the temp dir.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(request_path):
    req = json.loads(Path(request_path).read_text())
    root = Path(req["root"])
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import gmtlab

    # never measure an installed copy instead of this checkout's source
    if Path(gmtlab.__file__).resolve().parent != (root / "src" / "gmtlab").resolve():
        raise ImportError(f"gmtlab imported from {gmtlab.__file__}, not {root}/src")
    from workloads import WORKLOADS

    workload = WORKLOADS[req["workload"]]
    state = workload.setup(req["seed"], req["overrides"], req["work_dir"])
    setup_s = time.monotonic() - req["t_spawn"]
    result = {"setup_s": setup_s}
    if req["mode"] == "pass":
        tracer = None
        if req["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        out = workload.run(state)
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.spans
        result.update(
            wall_s=wall_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            outputs=workload.collect(state, out))
    Path(req["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
