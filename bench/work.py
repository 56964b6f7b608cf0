"""One workload in one fresh interpreter; prints its raw samples as JSON.

    python3 bench/work.py --workload campaign --seed 0 --seconds 10
    python3 bench/work.py --workload operator_grid --seed 0 --ops 4 --trace
    python3 bench/work.py --refs --seed 0

bench/run.py starts this once per measurement and turns the samples into
metrics; running it by hand is only useful for debugging.  With --seconds
the workload runs whole blocks until that much wall time has passed (and
at least MIN_OPS ops); with --ops it runs a fixed amount of work, so that
per-layer counts repeat exactly.  For operator_grid, --ops counts grid
cycles and the other workloads count campaign blocks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import platform
import resource
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hyperk  # noqa: E402
import hyperk.cli  # noqa: E402,F401
from hyperk import fracint, inequalities  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 200
CHEAP_DPS = (20, 22)
REF_WORKERS = 2
REL_TOL = 1e-3
# references for the default seed are stored; other seeds cache theirs
REFS = Path(__file__).parent / "refs"
JOBS = 2
# ops between two runs of the calibration loop; each divides its workload's block
CALIBRATE_EVERY = {"campaign": 8, "campaign_jobs2": 1, "operator_grid": 16}


def _row(rep) -> tuple:
    return (rep.theorem_id, rep.seed, repr(rep.lhs), repr(rep.rhs), repr(rep.margin),
            repr(rep.combined_error), rep.verdict, rep.note)


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _campaign_checks(seed, blocks, rec):
    """The serial campaign: one check per op, each through the row function
    run_suite applies to its tasks, as ``hyperk suite`` runs it."""
    suite_row = {tid: inequalities._suite_row for tid in workloads.THEOREM_IDS}
    if rec is not None:
        suite_row = {tid: rec.wrap(f"inequalities.check.{tid}", fn) for tid, fn in suite_row.items()}
    block = 0
    while blocks is None or block < blocks:
        for tid, s in workloads.campaign_block(seed, block)[1]:
            def op(row=suite_row[tid], task=(tid, s)):
                return _row(row(inequalities.DEFAULT_ORDER, task))
            yield 1, op
        block += 1


def _suite_calls(seed, blocks, rec):
    """The campaign through run_suite(jobs=2), one suite call per block.

    It has no traced run: the pool's workers are separate processes, and
    their per-layer figures are those of the serial campaign's blocks.
    """
    if rec is not None:
        raise ValueError("campaign_jobs2 has no traced run")
    block = 0
    while blocks is None or block < blocks:
        base, tasks = workloads.campaign_block(seed, block)

        def op(base=base):
            reps = inequalities.run_suite(workloads.THEOREM_IDS, workloads.BLOCK_TRIALS,
                                          base_seed=base, jobs=JOBS)
            return [_row(r) for r in reps]

        yield len(tasks), op
        block += 1


def _grid_calls(seed, cycles, rec):
    points = workloads.operator_grid(seed)
    apply = fracint.apply_operator
    if rec is not None:
        apply = rec.wrap("fracint.apply_operator", apply)
    cycle = 0
    while cycles is None or cycle < cycles:
        for i, (_, params, x, _, f) in enumerate(points):
            def op(i=i, params=params, x=x, f=f):
                res = apply(params, f, x)
                return (i, res.value, res.error_estimate)
            yield 1, op
        cycle += 1


WORKLOADS = {"campaign": _campaign_checks, "campaign_jobs2": _suite_calls,
             "operator_grid": _grid_calls}


def _block_ops(workload, seed):
    """Ops in one unit of repeated work: a campaign block, a grid cycle, or
    one run_suite call (a single op covering a whole block)."""
    if workload == "campaign":
        return len(workloads.campaign_block(seed, 0)[1])
    if workload == "operator_grid":
        return len(workloads.operator_grid(seed))
    return 1


def run(workload, seed, seconds, fixed, trace):
    rec = None
    if trace:
        rec = spans.Recorder()
        rec.install()
    stream = WORKLOADS[workload](seed, fixed, rec)
    block = _block_ops(workload, seed)
    every = CALIBRATE_EVERY[workload]
    lat, outs, counts, calib = [], [], [], []
    t0 = perf_counter()
    for n, op in stream:
        a = perf_counter()
        out = op()
        lat.append(perf_counter() - a)
        counts.append(n)
        outs.append(out)
        if len(lat) % every == 0:
            calib.append(calibrate.loop_seconds())
        if (fixed is None and perf_counter() - t0 >= seconds and sum(counts) >= MIN_OPS
                and len(lat) % block == 0):
            break
    wall = perf_counter() - t0
    if rec is not None:
        rec.uninstall()
    rows = [r for out in outs for r in out] if workload == "campaign_jobs2" else outs
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "ops": sum(counts), "wall_s": wall, "lat_s": lat, "op_sizes": counts,
        "block": block, "calib_s": calib, "calib_every": every,
        "digest": _digest(rows),
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "hyperk": hyperk.__version__},
    }
    if workload == "operator_grid":
        result.update(_grid_accuracy(seed, rows))
    else:
        result.update(_verdicts(rows))
    if rec is not None:
        checks = result["ops"] if workload != "operator_grid" else 0
        result["layers"] = rec.summary(checks)
        result["absent"] = rec.absent
    return result


def _verdicts(rows):
    return {"errors": sum(1 for r in rows if r[7]),
            "fails": sum(1 for r in rows if r[6] == "fail"),
            "inconclusive": sum(1 for r in rows if r[6] == "inconclusive")}


# ---------------------------------------------------------------------------
# references for operator_grid


def load_refs(seed):
    """Stored or cached references for this seed's grid, or None if none are valid."""
    fingerprint = workloads.grid_fingerprint(workloads.operator_grid(seed))
    for path in (REFS / f"seed-{seed}.json", REFS / "cache" / f"seed-{seed}.json"):
        if path.exists():
            data = json.loads(path.read_text())
            if data["grid"] == fingerprint:
                return data["values"]
    return None


def reference(point) -> float:
    """mpmath value of one grid point.

    The oracle's error follows its working precision on strong endpoint
    singularities (for split-c, alpha = 0.4 and mu + s = -0.7, about 1e-10
    at 20 digits and 2e-14 at 30, against a 34-digit run), so a value is
    taken at CHEAP_DPS only when both precisions agree to a few ulps, and
    at the oracle's default of 30 digits otherwise.  2e-14 stays below the
    1e-13 floor of the estimate-miss test.
    """
    from tests.oracles import oracle_u

    _, params, x, _, f = point
    lo, hi = (oracle_u(params, f, x, dps=d) for d in CHEAP_DPS)
    if abs(lo - hi) <= 4e-16 * abs(hi):
        return hi
    return oracle_u(params, f, x, dps=30)


def compute_refs(seed):
    """References for every grid point of this seed, stored in the cache."""
    points = workloads.operator_grid(seed)
    with ProcessPoolExecutor(REF_WORKERS, mp_context=multiprocessing.get_context("spawn")) as pool:
        values = list(pool.map(reference, points))
    path = REFS / "cache" / f"seed-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"seed": seed, "grid": workloads.grid_fingerprint(points),
                                "values": values}, indent=0) + "\n")
    return values


def _grid_accuracy(seed, rows):
    """Error of every call against the references.

    A call is wrong when its value is not finite or is off by more than
    REL_TOL.  The estimate is not part of that test: whether it bounds the
    true error is measured instead, as an estimate miss, |value - ref| >
    max(error_estimate, 1e-13 |ref|).
    """
    refs = load_refs(seed) or compute_refs(seed)
    wrong = misses = 0
    worst = 0.0
    for i, value, estimate in rows:
        ref = refs[i]
        err = abs(value - ref)
        rel = err / abs(ref) if math.isfinite(value) else math.inf
        worst = max(worst, rel)
        if not rel <= REL_TOL:
            wrong += 1
        if not err <= max(estimate, 1e-13 * abs(ref)):
            misses += 1
    return {"wrong": wrong, "estimate_misses": misses, "max_rel_err": worst}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--refs", action="store_true", help="make sure references for the seed exist")
    args = ap.parse_args(argv)
    if args.refs:
        if load_refs(args.seed) is None:
            compute_refs(args.seed)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(run(args.workload, args.seed, args.seconds, args.ops, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
