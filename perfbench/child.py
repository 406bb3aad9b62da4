"""One benchmark pass: a fresh process that runs every operation of a workload.

Usage: python3 perfbench/child.py REQUEST.json

The request names the workload, the workload seed, the source directory, a
scratch directory, whether to trace, and where to write the result.  The
pass imports `stitsim.cli`, generates its inputs, then calls
`stitsim.cli.main(argv)` once per operation.  Timings cover only those
calls; hashing and output checks happen in the parent after this process
has ended.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    with open(sys.argv[1]) as f:
        req = json.load(f)
    sys.path.insert(0, req["src"])
    import workloads
    from stitsim import cli

    tracer = None
    if req["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    ops = workloads.operations(req["workload"], req["seed"], req["workdir"])
    workloads.write_inputs(ops)
    results = []
    cpu0 = time.process_time()
    t_first = time.monotonic()
    for op in ops:
        t0 = time.monotonic()
        error = None
        try:
            rc = cli.main(op["argv"])
        except Exception:  # a crash fails this operation, not the pass
            rc = None
            error = " | ".join(traceback.format_exc().strip().splitlines()[-3:])
        results.append({"name": op["name"], "kind": op["kind"],
                        "model": op.get("model"), "outputs": op["outputs"],
                        "rc": rc, "error": error,
                        "seconds": time.monotonic() - t0})
    t_end = time.monotonic()
    cpu_s = time.process_time() - cpu0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {
        "t_first": t_first,
        "wall_s": t_end - t_first,
        "cpu_s": cpu_s,
        "peak_rss_mib": peak_kib / 1024.0,
        "ops": results,
        "threads_default": cli.build_parser().parse_args(
            ["verify", "all"]).threads,
    }
    if tracer is not None:
        out["trace"] = tracer.report()
    tmp = req["result"] + ".part"
    with open(tmp, "w") as f:
        json.dump(out, f)
    os.replace(tmp, req["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
