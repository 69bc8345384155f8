"""One cold sample of a workload, run in a fresh interpreter by run.py.

Usage: python3 perfbench/worker.py '{"workload": ..., "seed": ..., "spawn_ns": ...,
                                     "setup_only": false, "trace": false}'

Prints one JSON line: set-up time (from the parent's spawn to the package
imported and the inputs built), verdict wall and CPU time, peak RSS, the
(suite, check id, status) list, a sha256 per canonical report, the
reference loop's times and, when traced, the layer summary.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

REF_LOOPS = 30000


def reference() -> list:
    """[wall, CPU] seconds of a fixed loop of Fraction and dict work.

    The loop gauges how fast the box runs this process right now; the
    collector is off so that the heap a workload leaves behind cannot slow it.
    """
    gc.disable()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        acc: dict = {}
        q = Fraction(1, 3)
        for i in range(REF_LOOPS):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, 0) + q * i
        return [time.perf_counter() - wall0, time.process_time() - cpu0]
    finally:
        gc.enable()


def main(args: dict) -> dict:
    import halflattice
    import workloads

    calls = workloads.plan(args["workload"], args["seed"])
    setup_s = (time.monotonic_ns() - args["spawn_ns"]) / 1e9
    result = {"setup_s": setup_s, "package": os.path.dirname(halflattice.__file__),
              "refs": [reference()]}
    if args["setup_only"]:
        return result
    tracer = None
    if args["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    load_before = os.getloadavg()[0]
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if tracer is None:
        reports = [call() for _, call in calls]
    else:
        reports = [tracer.span(f"suites.{label}", call) for label, call in calls]
    verdict_s = time.perf_counter() - wall0
    verdict_cpu_s = time.process_time() - cpu0
    checks, digests = [], []
    for report in reports:
        data = report.to_data()
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        digests.append([report.suite, hashlib.sha256(canonical.encode()).hexdigest()])
        checks.extend([report.suite, c["id"], c["status"]] for c in data["checks"])
    result.update(
        verdict_s=verdict_s,
        verdict_cpu_s=verdict_cpu_s,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        load_before=load_before,
        load_after=os.getloadavg()[0],
        checks=checks,
        digests=digests,
        trace=tracer.summary() if tracer else None,
    )
    result["refs"].append(reference())
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
