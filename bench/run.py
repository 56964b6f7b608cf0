"""The hyperk benchmark: end-to-end metrics per workload, per-layer on request.

    python3 bench/run.py --workload campaign --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 10 --record FILE

Run it from the root of a source checkout; it imports the package from
``src`` and the mpmath oracle from ``tests``.  Every measurement runs in a
fresh interpreter (bench/work.py) with BLAS/OpenMP pinned to one thread.

--trace 0 times the workload for --seconds and reports the end-to-end
metrics of BENCHMARK.json.  Their times are scaled to a reference host
speed by the calibration loop of bench/calibrate.py, which the workload
runs between its ops and the import timer after each import; the same
figures in plain wall-clock time are printed beside them as ``*.wall``.
--trace 1 runs a fixed amount of work, sized
from --seconds, TRACE_PAIRS times plain and as often with spans recorded
(bench/spans.py), alternating.  The traced runs must agree exactly on every
per-layer count, all runs on every output row; each traced run against the
plain run before it gives the tracing overhead.  ``--workload all`` runs
every workload both ways, prints one table and, with --record, writes it
as JSON (bench/trajectory/ keeps one such record per measured commit).

campaign_jobs2 runs the campaign through run_suite(jobs=2), untraced only.
It is not in BENCHMARK.json: on a shared two-core host its figures do not
repeat closely enough to gate on, and with jobs a check's latency is that
of the whole run_suite call.  After the timed run, the serial campaign
checks the same blocks, and the rows of the two must be identical: that is
the determinism contract of run_suite under jobs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it name every metric with
its unit and record the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "campaign_jobs2", "operator_grid")
SETUP_RUNS = 15
TRACE_PAIRS = 3
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT = 170
# fixed work of a traced run per second of --seconds: campaign blocks
# (48 checks each) and operator_grid cycles (112 calls each)
TRACE_WORK_PER_S = {"campaign": 0.4, "operator_grid": 0.5}

IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import hyperk, hyperk.cli; "
    "d = time.perf_counter() - t; import calibrate; print(d, calibrate.loop_seconds())"
)


def _units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(Exception):
    pass


def _env():
    return dict(os.environ, **THREAD_ENV, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(HERE))))


def _child(args):
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def _work(workload, seed, *extra):
    return json.loads(_child([str(HERE / "work.py"), "--workload", workload,
                              "--seed", str(seed), *extra]))


def setup_seconds() -> tuple[float, float]:
    """Median import time of hyperk and hyperk.cli in fresh interpreters,
    scaled by the calibration loop run right after each import, and as is."""
    runs = [tuple(map(float, _child(["-c", IMPORT_TIMER]).split())) for _ in range(SETUP_RUNS)]
    return (statistics.median(t * calibrate.REFERENCE_S / loop for t, loop in runs),
            statistics.median(t for t, _ in runs))


def _quantile(values, q):
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def _failed(res) -> int:
    if res["workload"] == "operator_grid":
        return res["wrong"]
    return res["errors"] + res["fails"]


def _correct(res) -> bool:
    return _failed(res) == 0 and res.get("rows_equal_campaign", True)


def _rate(res) -> float:
    """Ops per second of a whole run, scaled like the end-to-end figures."""
    scale = calibrate.REFERENCE_S / statistics.median(res["calib_s"])
    return res["ops"] / (sum(res["lat_s"]) * scale)


def _timings(res, scales):
    """Throughput and latency quantiles of one run, each op's time scaled
    by its block's entry of scales.

    Throughput is the median over blocks, which keeps a busy spell of a
    shared host from pulling the whole run's rate.  A check's latency is
    the time until its row reaches the caller, which with jobs is the
    whole run_suite call it belongs to.
    """
    size, rates, lat = res["block"], [], []
    for j, scale in enumerate(scales):
        times = res["lat_s"][j * size:(j + 1) * size]
        ops = res["op_sizes"][j * size:(j + 1) * size]
        rates.append(sum(ops) / (sum(times) * scale))
        lat += [t * scale for t, n in zip(times, ops) for _ in range(n)]
    return {"throughput_per_s": statistics.median(rates),
            "latency_ms_p50": statistics.median(lat) * 1e3,
            "latency_ms_p95": _quantile(lat, 0.95) * 1e3}


def end_to_end(workload, seed, seconds):
    setup, setup_wall = setup_seconds()
    res = _work(workload, seed, "--seconds", str(seconds))
    per_block = res["block"] // res["calib_every"]
    loops = [statistics.fmean(res["calib_s"][j:j + per_block])
             for j in range(0, len(res["lat_s"]) // res["calib_every"], per_block)]
    metrics = {"setup_s": setup,
               **_timings(res, [calibrate.REFERENCE_S / t for t in loops]),
               "peak_rss_mb": res["peak_rss_mb"]}
    units = _units("end_to_end")
    # the same figures in plain wall-clock time, and the outputs' quality
    extra = {"setup_s.wall": (setup_wall, "s"),
             **{f"{k}.wall": (v, units[k]) for k, v in _timings(res, [1.0] * len(loops)).items()},
             "calibration_loop_ms": (statistics.median(res["calib_s"]) * 1e3, "ms"),
             "fail_ratio": (_failed(res) / res["ops"], "ratio")}
    if workload == "operator_grid":
        extra["max_rel_err"] = (res["max_rel_err"], "ratio")
        extra["estimate_miss_ratio"] = (res["estimate_misses"] / res["ops"], "ratio")
    else:
        extra["inconclusive_ratio"] = (res["inconclusive"] / res["ops"], "ratio")
    return res, metrics, units, extra


def _counts(layers):
    return {k: v for k, (v, unit) in layers.items() if unit == "count"}


def per_layer(workload, seed, seconds):
    amount = str(max(1, round(TRACE_WORK_PER_S[workload] * seconds)))
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(_work(workload, seed, "--ops", amount))
        traced.append(_work(workload, seed, "--ops", amount, "--trace"))
    first = traced[0]
    repeat = (all(_counts(t["layers"]) == _counts(first["layers"]) for t in traced)
              and len({r["digest"] for r in plain + traced}) == 1)
    # counts are equal in every traced run; times are their median
    layers = {k: (statistics.median(t["layers"][k][0] for t in traced), unit)
              for k, (_, unit) in first["layers"].items()}
    # each traced run against the plain run just before it, so that a slow
    # spell of a shared host falls on both sides of a ratio
    layers["trace.overhead_ratio"] = (
        statistics.median(_rate(t) / _rate(p) for p, t in zip(plain, traced)), "ratio")
    grid = workload == "operator_grid"
    layers["accuracy.max_rel_err"] = (first["max_rel_err"] if grid else 0.0, "ratio")
    layers["accuracy.estimate_miss_ratio"] = (
        first["estimate_misses"] / first["ops"] if grid else 0.0, "ratio")
    metrics = {k: v for k, (v, _) in layers.items()}
    units = {k: unit for k, (_, unit) in layers.items()}
    return first, metrics, units, repeat and all(map(_correct, plain + traced)), first["absent"]


def environment(res) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"git_sha": sha, "nproc": len(os.sched_getaffinity(0)), **res["versions"],
            "threads": THREAD_ENV, "calibration_reference_s": calibrate.REFERENCE_S,
            "workload": res["workload"], "seed": res["seed"], "ops": res["ops"]}


def measure(workload, seed, seconds, trace):
    """(result line, report lines, child result) of one workload."""
    if workload == "operator_grid":
        _child([str(HERE / "work.py"), "--refs", "--seed", str(seed)])
    lines = []
    if trace:
        res, metrics, units, correct, absent = per_layer(workload, seed, seconds)
        if absent:
            lines.append(f"absent spans (reported as 0): {', '.join(absent)}")
    else:
        res, metrics, units, extra = end_to_end(workload, seed, seconds)
        if workload == "campaign_jobs2":
            serial = _work("campaign", seed, "--ops", str(len(res["lat_s"])))
            res["rows_equal_campaign"] = serial["digest"] == res["digest"]
            lines.append(f"campaign_jobs2 rows equal campaign rows: {res['rows_equal_campaign']}")
        correct = _correct(res)
        lines += [f"{workload} {k} = {v:.6g} {unit}" for k, (v, unit) in extra.items()]
    lines += [f"{workload} {k} = {v:.6g} {units[k]}" for k, v in metrics.items()]
    lines.append("environment " + json.dumps(environment(res), sort_keys=True))
    declared = _units("per_layer" if trace else "end_to_end")
    result = {"correct": bool(correct), "attempted": res["ops"], "failed": _failed(res),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in declared}}
    return result, lines, res


def measure_all(seed, seconds):
    """Every workload both ways (campaign_jobs2 untraced only), as one table."""
    table = {}
    for workload in WORKLOADS:
        for trace in (False, True) if workload in TRACE_WORK_PER_S else (False,):
            result, lines, _ = measure(workload, seed, seconds, trace)
            print("\n".join(lines), flush=True)
            table.setdefault(workload, {})["per_layer" if trace else "end_to_end"] = result
            table[workload]["report"] = table[workload].get("report", []) + lines
    correct = all(r["correct"] for w in table.values()
                  for k, r in w.items() if k != "report")
    return table, correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, help="with --workload all: write the table here")
    args = ap.parse_args(argv)
    if args.trace and args.workload not in (*TRACE_WORK_PER_S, "all"):
        ap.error(f"--workload {args.workload} has no traced run")
    for need in (ROOT / "src" / "hyperk" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            print(f"bench: {need.relative_to(ROOT)} not found; run from a hyperk checkout",
                  file=sys.stderr)
            return 2
    try:
        if args.workload != "all":
            result, lines, _ = measure(args.workload, args.seed, args.seconds, bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        table, correct = measure_all(args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.record:
        args.record.write_text(json.dumps(table, indent=1) + "\n")
    runs = [w["end_to_end"] for w in table.values()]
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in runs),
                      "failed": sum(r["failed"] for r in runs), "metrics": {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
