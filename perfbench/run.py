"""Time to verdict for halflattice's verification workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload jacobi --seed 7 --seconds 20 --trace 0

Every sample is a fresh interpreter (perfbench/worker.py) that imports the
package from ./src, builds the workload's inputs from a sample seed and runs
its suites once; samples run one at a time.  With ``--trace 0`` the run
repeats samples until ``--seconds`` is spent and reports the end-to-end
medians; the first sample runs at ``--seed`` and each later one at a seed
drawn from it, so one unusually cheap or costly draw cannot move the median.
With ``--trace 1`` it runs one untraced and two traced samples at ``--seed``,
requires the three reports to be identical and the two traced call counts to
agree exactly, and reports the layer table.

The box this was built on is shared: its speed swings by up to 1.8x within
seconds.  So every interpreter also times a fixed reference loop (worker.py)
after its set-up and again after its verdict, and the reported times are
scaled to the speed at which that loop takes REF_S seconds:
time * REF_S / reference time.  Raw medians are printed too.

Every sample must pass every expected check (perfbench/expected.json).  The
last line of stdout is the JSON result; a run that cannot start exits 2
without one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from collections import Counter

from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170
REF_S = 0.1  # nominal reference-loop time; took 0.08-0.15 s on a shared 2-vCPU box

# per-layer metric -> (unit, function, reading); see README.md for the table
PER_LAYER = [
    ("vertex.y_coefficient.calls", "count", "vertex.y_coefficient", "calls"),
    ("vertex.y_coefficient.self_s", "s", "vertex.y_coefficient", "self_s"),
    ("vertex.y_coefficient.terms_out", "count", "vertex.y_coefficient", "items"),
    ("vertex.apply_heisenberg_mode.calls", "count", "vertex.apply_heisenberg_mode", "calls"),
    ("vertex.apply_heisenberg_mode.self_s", "s", "vertex.apply_heisenberg_mode", "self_s"),
    ("fock.VElement.constructed", "count", "fock.VElement.__init__", "calls"),
    ("fock.VElement.init_s", "s", "fock.VElement.__init__", "self_s"),
    ("fock.fock_word.calls", "count", "fock.fock_word", "calls"),
    ("fock.fock_word.self_s", "s", "fock.fock_word", "self_s"),
    ("identities.ActionCache.act.lookups", "count", "identities.ActionCache.act", "calls"),
    ("identities.ActionCache.act.hit_ratio", "ratio", "identities.ActionCache.act", "hit_ratio"),
    ("identities.ActionCache.act.self_s", "s", "identities.ActionCache.act", "self_s"),
    ("identities.ActionCache.adjoint_product.lookups", "count",
     "identities.ActionCache.adjoint_product", "calls"),
    ("identities.ActionCache.adjoint_product.hit_ratio", "ratio",
     "identities.ActionCache.adjoint_product", "hit_ratio"),
    ("identities.ActionCache.entries", "count", None, "entries"),
    ("identities.borcherds_residual.calls", "count", "identities.borcherds_residual", "calls"),
    ("identities.borcherds_residual.self_s", "s", "identities.borcherds_residual", "self_s"),
    ("identities.d_derivative_residual.calls", "count", "identities.d_derivative_residual", "calls"),
    ("identities.d_derivative_residual.self_s", "s", "identities.d_derivative_residual", "self_s"),
    ("identities.heisenberg_residual.calls", "count", "identities.heisenberg_residual", "calls"),
    ("identities.heisenberg_residual.self_s", "s", "identities.heisenberg_residual", "self_s"),
    ("zhu.zhu_star.calls", "count", "zhu.zhu_star", "calls"),
    ("zhu.zhu_star.self_s", "s", "zhu.zhu_star", "self_s"),
    ("zhu.zhu_reduce.calls", "count", "zhu.zhu_reduce", "calls"),
    ("zhu.zhu_reduce.self_s", "s", "zhu.zhu_reduce", "self_s"),
    ("assoc.act_on_omega_module.calls", "count", "assoc.act_on_omega_module", "calls"),
    ("assoc.act_on_omega_module.self_s", "s", "assoc.act_on_omega_module", "self_s"),
    ("assoc.iso_decide.self_s", "s", "assoc.iso_decide", "self_s"),
    ("assoc.simplicity_witness.self_s", "s", "assoc.simplicity_witness", "self_s"),
    ("laurent.LaurentPoly.mul.calls", "count", "laurent.LaurentPoly.__mul__", "calls"),
    ("laurent.LaurentPoly.mul.self_s", "s", "laurent.LaurentPoly.__mul__", "self_s"),
    ("linalg.nullspace.calls", "count", "linalg.nullspace", "calls"),
    ("linalg.nullspace.self_s", "s", "linalg.nullspace", "self_s"),
    ("bridge.z_operator.calls", "count", "bridge.z_operator", "calls"),
    ("bridge.z_operator.self_s", "s", "bridge.z_operator", "self_s"),
    ("bridge.vacuum_basis.self_s", "s", "bridge.vacuum_basis", "self_s"),
    ("suites.self_s", "s", None, "suites_self_s"),
    ("trace.overhead_ratio", "ratio", None, "overhead_ratio"),
]
CACHE_LAYERS = ("identities.ActionCache.act", "identities.ActionCache.adjoint_product")


class BenchError(Exception):
    """The run cannot produce a result (no program, a worker crashed)."""


def spawn(root: str, workload: str, seed: int, *, setup_only=False, trace=False) -> dict:
    """Run one cold worker process to completion and return its record."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    request = {"workload": workload, "seed": seed, "setup_only": setup_only, "trace": trace}
    request["spawn_ns"] = time.monotonic_ns()
    argv = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(request)]
    try:
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    want = os.path.join(root, "src", "halflattice")
    if os.path.realpath(record["package"]) != os.path.realpath(want):
        raise BenchError(f"imported halflattice from {record['package']}, not {want}")
    return record


def checks_failed(sample: dict, expected: list) -> int:
    """Failed or missing expected checks, plus checks nobody expected."""
    want = Counter(map(tuple, expected))
    got = Counter(tuple(c[:2]) for c in sample["checks"])
    passing = Counter(tuple(c[:2]) for c in sample["checks"] if c[2] == "pass")
    return sum((want - passing).values()) + sum((got - want).values())


def describe(name: str, values: list, unit: str, raw=None) -> str:
    line = (f"{name}: median {statistics.median(values):.4f} {unit}, max {max(values):.4f} {unit}"
            f" (n={len(values)})")
    if raw:
        line += f"; unscaled median {statistics.median(raw):.4f} {unit}"
    return line


def scaled(record: dict, key: str) -> float:
    """record[key] at the reference speed (verdict and CPU times use the mean
    of the loops before and after the verdict, set-up the loop after set-up)."""
    refs = record["refs"] if key != "setup_s" else record["refs"][:1]
    column = 1 if key == "verdict_cpu_s" else 0
    return record[key] * REF_S / statistics.mean(r[column] for r in refs)


def gate(samples: list, expected: list, seed: int, lines: list) -> tuple[int, int]:
    """(attempted, failed) checks over the run's samples; the first sample ran at seed."""
    failed = [checks_failed(s, expected) for s in samples]
    lines.append(f"checks_failed: {sum(failed)}/{len(expected) * len(samples)}"
                 f" ({len(expected)} expected per sample, per sample {failed})")
    for suite, digest in samples[0]["digests"]:
        lines.append(f"report sha256 seed {seed} {suite}: {digest}")
    return len(expected) * len(samples), sum(failed)


def sample_seeds(seed: int):
    """The seed itself, then seeds drawn from it."""
    yield seed
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def untraced_run(root, workload, seed, seconds, expected, lines) -> dict:
    deadline = time.monotonic() + seconds
    setups = [spawn(root, workload, seed, setup_only=True) for _ in range(SETUP_PROBES)]
    samples, durations = [], []
    for sample_seed in sample_seeds(seed):
        start = time.monotonic()
        samples.append(spawn(root, workload, sample_seed))
        durations.append(time.monotonic() - start)
        if time.monotonic() + statistics.median(durations) > deadline:
            break
    attempted, failed = gate(samples, expected, seed, lines)
    values = {}
    for name, records in (("verdict_s", samples), ("verdict_cpu_s", samples),
                          ("setup_s", setups + samples)):
        values[name] = ([scaled(r, name) for r in records], "s")
        lines.append(describe(name, values[name][0], "s", [r[name] for r in records]))
    values["peak_rss_mib"] = ([s["peak_rss_mib"] for s in samples], "MiB")
    lines.append(describe("peak_rss_mib", *values["peak_rss_mib"]))
    lines.append("load1 before/after each sample: "
                 + ", ".join(f"{s['load_before']:.2f}/{s['load_after']:.2f}" for s in samples))
    metrics = {name: {"value": statistics.median(vals), "unit": unit}
               for name, (vals, unit) in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_values(trace: dict) -> dict:
    """The per-layer readings of one traced sample."""
    functions = trace["functions"]
    out = {}
    for name, row in functions.items():
        out[(name, "calls")] = row["calls"]
        out[(name, "items")] = row["items"]
        out[(name, "self_s")] = row["self_ns"] / 1e9
    misses = {layer: functions.get("vertex.y_coefficient", {}).get("by_parent", {}).get(layer, 0)
              for layer in CACHE_LAYERS}
    for layer in CACHE_LAYERS:
        lookups = functions.get(layer, {}).get("calls", 0)
        out[(layer, "hit_ratio")] = 1 - misses[layer] / lookups if lookups else 0.0
    out[(None, "entries")] = sum(misses.values())
    out[(None, "suites_self_s")] = sum(row["self_ns"] for name, row in functions.items()
                                      if name.startswith("suites.")) / 1e9
    return out


def counts_of(trace: dict) -> dict:
    return {name: (row["calls"], row["items"], sorted(row["by_parent"].items()))
            for name, row in trace["functions"].items()}


def traced_run(root, workload, seed, expected, lines) -> dict:
    plain = spawn(root, workload, seed)
    traced = [spawn(root, workload, seed, trace=True) for _ in range(2)]
    attempted, failed = gate([plain] + traced, expected, seed, lines)
    steady = all(t["digests"] == plain["digests"] for t in traced)
    if not steady:
        lines.append("REPORT DRIFT: three runs of one seed produced different reports")
    first, second = (counts_of(t["trace"]) for t in traced)
    repeat = first == second
    if not repeat:
        differ = sorted(n for n in set(first) | set(second) if first.get(n) != second.get(n))
        print(f"COUNTER MISMATCH between two traced runs of seed {seed}: {differ}", file=sys.stderr)
        lines.append(f"COUNTER MISMATCH: {differ}")
    missing = traced[0]["trace"]["missing"]
    if missing:
        lines.append(f"not traced (absent from the package): {missing}")
    readings = [layer_values(t["trace"]) for t in traced]
    overhead = (statistics.median(scaled(t, "verdict_s") for t in traced)
                / scaled(plain, "verdict_s"))
    metrics = {}
    for name, unit, function, reading in PER_LAYER:
        if reading == "overhead_ratio":
            value = overhead
        elif reading in ("self_s", "suites_self_s"):
            value = statistics.median(r.get((function, reading), 0.0) for r in readings)
        else:
            value = readings[0].get((function, reading), 0)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<50} {value:>14.6g} {unit}")
    lines.append("spans: " + ", ".join(f"{n} {(e - s) / 1e9:.3f}s"
                                       for n, s, e, _ in traced[0]["trace"]["spans"]))
    return {"correct": failed == 0 and steady and repeat, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "halflattice", "__init__.py")):
        print("error: run from the root of a halflattice checkout (no src/halflattice here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[args.workload]
    lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}:"
             f" python {platform.python_version()}, nproc {os.cpu_count()},"
             f" load1 {os.getloadavg()[0]:.2f}"]
    try:
        if args.trace:
            result = traced_run(root, args.workload, args.seed, expected, lines)
        else:
            result = untraced_run(root, args.workload, args.seed, args.seconds, expected, lines)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines.append(f"load1 at end {os.getloadavg()[0]:.2f}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
