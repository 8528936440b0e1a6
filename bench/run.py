"""The cptq benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload attain|optimize|price --seed N \
        --seconds S --trace 0|1

The run writes the seeded instances under ``.bench_work/``, times the
fresh-process set-up, then runs one op at a time (closed loop, one op in
flight, one process) for ``--seconds`` seconds and checks every op's
outputs.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Between untraced ops the run spends REF_SHARE of the op time on a fixed
reference slice of work like the workload's that does not touch cptq;
``op_ref.p50`` is the median op time in units of the median slice time.
Each set-up probe is followed by a fresh reference process that only imports numpy; ``setup_s`` is the median
probe time scaled to a machine on which that process takes
SETUP_REF_NOMINAL_S.  Both cancel most of the speed drift of a shared
virtual machine.  Raw seconds are in the ``detail:`` line.

A traced run runs each instance twice in a row, untraced and traced; the
difference of the two median op times is reported as the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# numpy and scipy are imported inside functions, only after
# clean_environment() has pinned the BLAS thread count.

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPS = 5
REF_SHARE = 0.05
REF_CELLS = 1 << 21
SETUP_REF_CODE = "import numpy"
# median seconds of the set-up reference process on the baseline machine
SETUP_REF_NOMINAL_S = 0.18
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "op_ref.p50": "ref",
    "ok_rate": "ratio",
    "rss_mb.peak": "MB",
}

PER_LAYER = {
    "quad.calls": "calls/op", "quad.busy_s": "s/op", "quad.points": "points/op",
    "quad.unconverged": "calls/op",
    "market.moment.calls": "calls/op", "market.moment.busy_s": "s/op",
    "market.tail.calls": "calls/op", "market.tail.points": "points/op",
    "market.tail.busy_s": "s/op",
    "market.budget.calls": "calls/op", "market.budget.busy_s": "s/op",
    "functions.eval.calls": "calls/op", "functions.eval.busy_s": "s/op",
    "choquet.value.calls": "calls/op", "choquet.value.busy_s": "s/op",
    "choquet.oracle_err.max": "rel",
    "attainability.calls": "calls/op", "attainability.busy_s": "s/op",
    "constructions.find_level.calls": "calls/op",
    "constructions.find_level.busy_s": "s/op",
    "constructions.build_element.busy_s": "s/op",
    "constructions.cost_residual.max": "abs",
    "optimizer.solve.busy_s": "s/op", "optimizer.solve.self_s": "s/op",
    "optimizer.grid_build.busy_s": "s/op", "optimizer.grid_value.busy_s": "s/op",
    "optimizer.proposals": "count/op", "optimizer.accept_ratio": "ratio",
    "cli.config_s": "s/op", "cli.self_s": "s/op",
    "moment_err.max": "rel", "value.mean": "value", "unconverged_rate": "ratio",
    "budget_err.max": "abs",
    "trace.overhead_s": "s",
}


def clean_environment(environ):
    """Drop CPTQ_* overrides, which the CLI applies silently; pin BLAS to one thread."""
    for name in [n for n in environ if n.startswith("CPTQ_")]:
        del environ[name]
    for name in BLAS_THREAD_VARS:
        environ[name] = "1"


def import_library():
    """The cptq modules from this checkout's sources, never an installed copy."""
    if not (SRC / "cptq" / "__init__.py").is_file():
        raise ImportError(f"no cptq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cptq
    from cptq import (_quad, attainability, choquet, cli, constructions, functions,
                      market, optimizer)

    if Path(cptq.__file__).resolve().parent != SRC / "cptq":
        raise ImportError(f"cptq imported from {cptq.__file__}, not from {SRC}")
    return SimpleNamespace(cli=cli, quad=_quad, market=market, functions=functions,
                           choquet=choquet, attainability=attainability,
                           constructions=constructions, optimizer=optimizer)


def fingerprint():
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": model}


def _time_process(cmd):
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def measure_setup(workload, work, first_config):
    """Wall times of SETUP_REPS fresh processes running the set-up path, and
    of the reference process run right after each of them.

    Process start and imports drift with the machine in a way the compute
    reference slice does not follow; a process that starts Python and
    imports numpy follows it closely.
    """
    probe = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(work), first_config]
    reference = [sys.executable, "-c", SETUP_REF_CODE]
    times, refs = [], []
    for _ in range(SETUP_REPS):
        times.append(_time_process(probe))
        refs.append(_time_process(reference))
    return times, refs


def tail(times):
    """(seconds, percentile): the highest percentile with TAIL_BEYOND ops beyond
    it, or the median when fewer than 2 * TAIL_BEYOND ops ran."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(times), 50.0
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def new_quality():
    return {"moment_err": [], "budget_err": [], "value": [], "unconverged": [],
            "oracle_err": []}


def _ref_arrays():
    """Special functions and powers, in place, on one array of 16 MB: larger
    than the processor's caches, so it depends on memory bandwidth as the
    quadrature of attain and the grid sweeps of optimize do."""
    import numpy as np
    from scipy.special import ndtri

    y = np.arange(REF_CELLS, dtype=float)
    y += 0.5
    y *= 1.0 / REF_CELLS
    ndtri(y, out=y)
    np.multiply(y, 0.3, out=y)
    np.exp(y, out=y)
    np.power(y, 4, out=y)


def _ref_calls():
    """Many interpreter-driven numpy calls on arrays of 256 values, the
    shape of the per-point loops that dominate price."""
    import numpy as np

    knots = np.linspace(0.0, 1.0, 256)
    for x in np.linspace(0.001, 0.999, 600):
        idx = np.searchsorted(knots, x, side="right")
        seg = np.concatenate(([x], knots[idx:]))
        float(np.sum(np.diff(seg) * np.interp(seg[1:], knots, knots)))


# The slice each workload is measured against: the kind of work its ops
# spend their time in.  Timed next to repeated ops, 16 MB arrays followed
# the speed drift of attain and optimize ops best (arrays of 2 MB or less,
# interpreter work and small-array calls less well), and small-array calls
# that of price ops.
REFERENCE = {"attain": _ref_arrays, "optimize": _ref_arrays, "price": _ref_calls}


def reference_slice(workload):
    """Seconds taken by the workload's fixed reference work, which does not
    touch cptq."""
    t0 = time.perf_counter()
    REFERENCE[workload]()
    return time.perf_counter() - t0


class Phase:
    """Op times, per-op problems and the count of wrong outputs of one loop."""

    def __init__(self):
        self.times = []
        self.ref_times = []
        self.problems = []
        self.wrong = 0

    @property
    def failed(self):
        return sum(1 for p in self.problems if p)


def run_op(workload, lib, work, inst, quality, phase, tracer=None):
    """Run, time and check one op of ``inst``; record it in ``phase``.

    Only the op itself is timed, and traced when a tracer is given: the span
    wrappers are installed just before it and removed just after, so the
    output check runs on the plain library.  An op that exits non-zero has
    failed but returned no wrong output.
    """
    import tracing
    import workloads

    out = os.path.join(work, "out")
    installed = tracing.Installation(tracer, lib) if tracer else None
    t0 = time.perf_counter()
    try:
        with tracer.span("op") if tracer else contextlib.nullcontext():
            result = workloads.RUNNERS[workload](lib, work, inst, out)
    except tracing.TraceError:
        raise
    except Exception as exc:
        result = {"code": f"exception {exc!r}"}
    finally:
        phase.times.append(time.perf_counter() - t0)
        if installed:
            installed.remove()
    if tracer and tracer.failure:
        raise tracer.failure
    try:
        errs = workloads.verify(workload, lib, work, inst, result, out, quality)
    except Exception as exc:
        errs = [f"check raised {exc!r}"]
    phase.problems.append([f"{inst['config']}: {e}" for e in errs])
    exited = result["code"] != 0 or result.get("demo_code", 0) != 0
    phase.wrong += bool(errs) and not exited


def quality_metrics(quality):
    def top(key):
        return max(quality[key]) if quality[key] else 0.0

    def mean(key):
        return statistics.fmean(quality[key]) if quality[key] else 0.0

    return {"moment_err.max": top("moment_err"), "value.mean": mean("value"),
            "unconverged_rate": mean("unconverged"), "budget_err.max": top("budget_err"),
            "choquet.oracle_err.max": top("oracle_err")}


def untraced_run(args, lib, work, instances, detail):
    """The set-up probes, then ops back to back for ``--seconds``, with
    reference slices between them until the slices take REF_SHARE of the op
    time."""
    setup_times, setup_refs = measure_setup(args.workload, work, instances[0]["config"])
    quality = new_quality()
    phase = Phase()
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        run_op(args.workload, lib, work, instances[len(phase.times) % len(instances)],
               quality, phase)
        while sum(phase.ref_times) < REF_SHARE * sum(phase.times):
            phase.ref_times.append(reference_slice(args.workload))
    n = len(phase.times)
    op_p50 = statistics.median(phase.times)
    ref_p50 = statistics.median(phase.ref_times)
    setup_p50 = statistics.median(setup_times)
    setup_ref_p50 = statistics.median(setup_refs)
    tail_s, tail_pct = tail(phase.times)
    detail.update(quality_metrics(quality))
    detail.update({"ops": n, "op_s.p50": op_p50, "op_s.tail": tail_s,
                   "op_s.tail_percentile": tail_pct, "ref_s.p50": ref_p50,
                   "refs": len(phase.ref_times), "fail_rate": phase.failed / n,
                   "setup_raw_s": setup_p50, "setup_ref_s": setup_ref_p50,
                   "op_s": phase.times})
    metrics = {
        "setup_s": setup_p50 * SETUP_REF_NOMINAL_S / setup_ref_p50,
        "op_ref.p50": op_p50 / ref_p50,
        "ok_rate": (n - phase.failed) / n,
        "rss_mb.peak": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, [phase]


def traced_run(args, lib, work, instances, detail):
    """Each instance once untraced and once traced, alternating, for
    ``--seconds``; the pairs see the same machine speed, so the difference
    of their median times is the tracing overhead."""
    import tracing

    quality = new_quality()
    plain, traced = Phase(), Phase()
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    # at least two instances, so that a short attain run traces a delta > 1 op
    while time.perf_counter() < deadline or len(plain.times) < 2:
        inst = instances[len(plain.times) % len(instances)]
        run_op(args.workload, lib, work, inst, quality, plain)
        run_op(args.workload, lib, work, inst, quality, traced, tracer=tracer)
    tracer.save(WORK / f"trace-{args.workload}.npz")
    metrics = tracing.layer_metrics(tracer, len(traced.times))
    tracing.check_predictions(args.workload, metrics)
    metrics.update(quality_metrics(quality))
    untraced_p50 = statistics.median(plain.times)
    traced_p50 = statistics.median(traced.times)
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    detail.update({"untraced_op_s.p50": untraced_p50, "traced_op_s.p50": traced_p50})
    return metrics, [plain, traced]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("attain", "optimize", "price"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    clean_environment(os.environ)
    try:
        lib = import_library()
    except ImportError as exc:
        print(f"bench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import workloads

    work = WORK / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    try:
        instances = workloads.generate(args.workload, args.seed, str(work))
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "fingerprint": fingerprint()}
        measure = traced_run if args.trace else untraced_run
        metrics, phases = measure(args, lib, str(work), instances, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    problems = [e for ph in phases for p in ph.problems for e in p]
    detail["failures"] = problems[:20]
    with open(WORK / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    detail.pop("op_s", None)
    print("detail: " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": (sum(ph.wrong for ph in phases) == 0
                    and all(math.isfinite(v) for v in metrics.values())),
        "attempted": sum(len(ph.times) for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
