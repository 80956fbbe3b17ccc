"""Run the DelayAVF performance benchmark.

One workload, one run (the form automated runs use)::

    python3 benchmarks/perf/run.py --workload fig7_cold --seed 0 \
        --seconds 20 --trace 0

Every workload, each in its own fresh process::

    python3 benchmarks/perf/run.py --seed 0 --out DIR [--trace] [--smoke] \
        [--ledger benchmarks/perf/ledger.jsonl]

Untraced runs report the end-to-end metrics of ``BENCHMARK.json``; traced
runs (``--trace`` / ``--trace 1``) report its per-layer metrics.  Each run
repeats the workload's rep until ``--seconds`` are used (at least two
reps; traced runs alternate untraced and traced reps), re-derives a seeded
sample of records with the brute-force oracle, and prints every metric with
its unit and sample count.  Every rep of a run does the same work.

A run keeps its processes on the CPUs its workload uses (one for a serial
workload) and probes their pace meanwhile (:mod:`pace`).  Every time it
reports is the measured time divided by the pace over the same window:
seconds at the reference pace.  The timed section's wall and CPU time are
the mean over the run's reps, set-up time and memory their median.  The
service's request latencies, pooled over its reps, are printed and stored
but are not end-to-end metrics: the batch workloads make no requests.  The
last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``.  The exit code is 0 only when every
operation succeeded and every check agreed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
from common import (  # noqa: E402
    WORK,
    campaign_records,
    percentile,
    quartiles,
    records_sha256,
)
from pace import Pace, run_cpus  # noqa: E402

#: a run stops starting reps after this long, whatever --seconds says
HARD_CAP_S = 120.0
#: metrics a run reports as the mean over its reps rather than the median:
#: each rep's time, divided by its pace, still scatters by a few percent,
#: and with two to six reps a median is just one of them
MEAN_OVER_REPS = {"wall_s", "cpu_s"}


def _measured(reps) -> list:
    return [r for r in reps if not r.traced and r.wall_s > 0]


def _rep_samples(reps, setups: List[Tuple[float, float]],
                 host: Pace) -> Dict[str, List[float]]:
    """Each end-to-end metric's value in every untraced rep, times at the
    reference pace; set-up has a sample per ``(started, seconds)`` of
    *setups* and per rep that measured one."""
    measured = _measured(reps)
    setups = setups + [(r.setup_started, r.setup_s) for r in measured
                       if r.setup_s is not None]
    paces = [host.of(r.started, r.wall_s) for r in measured]
    return {
        "setup_s": [seconds / host.of(started, seconds)
                    for started, seconds in setups],
        "wall_s": [r.wall_s / p for r, p in zip(measured, paces)],
        "cpu_s": [r.cpu_s / p for r, p in zip(measured, paces)],
        "peak_rss_mb": [r.rss_mb for r in measured],
    }


def _e2e_metrics(reps, setups: List[Tuple[float, float]], host: Pace,
                 spec: Dict) -> Dict:
    """Each end-to-end metric over the run's reps, with their quartiles."""
    samples = _rep_samples(reps, setups, host)
    metrics = {}
    for entry in spec["end_to_end"]:
        values = samples[entry["name"]]
        if not values:
            continue  # a failed run; it reports the failure instead
        q1, mid, q3 = quartiles(values)
        value = mean(values) if entry["name"] in MEAN_OVER_REPS else mid
        metrics[entry["name"]] = {
            "value": value, "unit": entry["unit"], "n": len(values),
            "q1": q1, "median": mid, "q3": q3,
        }
    return metrics


def _requests(reps) -> Optional[Dict]:
    """Service round trips pooled over the run's untraced reps (None for a
    batch workload, which makes no requests).  These are times as measured,
    not divided by the pace."""
    measured = [r for r in _measured(reps) if r.rtts_ms]
    rtts = [rtt for r in measured for rtt in r.rtts_ms]
    if not rtts:
        return None
    return {
        "n": len(rtts),
        "rtt_p50_ms": percentile(rtts, 50),
        "rtt_p90_ms": percentile(rtts, 90),
        "jobs_per_s": sum(r.jobs for r in measured)
        / sum(r.wall_s for r in measured),
    }


def _layer_metrics(reps, host: Pace, spec: Dict) -> Dict[str, Dict]:
    from layers import layer_metrics

    traced = [r for r in reps if r.traced and r.wall_s > 0]
    if not traced:
        return {}  # a failed run; it reports the failure instead
    untraced = _measured(reps)
    paces = [host.of(r.started, r.wall_s) for r in traced]
    values = layer_metrics(
        [r.trace_dir for r in traced], paces,
        [r.wall_s / p for r, p in zip(traced, paces)],
        [r.wall_s / host.of(r.started, r.wall_s) for r in untraced],
    )
    return {entry["name"]: {"value": values[entry["name"]],
                            "unit": entry["unit"], "n": len(traced)}
            for entry in spec["per_layer"]}


def _run_reps(workload, seconds: float, trace: bool, smoke: bool):
    """The workload's reps until *seconds* are used: (reps, failures,
    errors)."""
    reps, failed, errors = [], 0, []
    min_reps = 1 if smoke and not trace else 2
    started = time.perf_counter()
    durations: List[float] = []
    while True:
        rep_started = time.perf_counter()
        try:
            rep = workload.rep(len(reps), trace and len(reps) % 2 == 1)
        except Exception as exc:  # noqa: BLE001 - a failed rep is reported
            errors.append(f"rep {len(reps)} raised {exc!r}")
            failed += 1
            break
        reps.append(rep)
        failed += rep.failed
        errors.extend(rep.errors)
        durations.append(time.perf_counter() - rep_started)
        elapsed = time.perf_counter() - started
        if len(reps) >= min_reps and elapsed + median(durations) > seconds:
            break
        if elapsed > HARD_CAP_S:
            break
    return reps, failed, errors


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool, work: Path, spec: Dict) -> Dict:
    """Run one workload for *seconds*; the full result record."""
    from oracle import check_records, sample_records
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, smoke, work)
    # Every process the run starts inherits the runner's CPUs.
    cpus = run_cpus()[-1:] if workload.serial else run_cpus()
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        with Pace(cpus) as host:
            setups = workload.prepare()
            errors = list(workload.prepare_errors)
            reps, failed, rep_errors = _run_reps(workload, seconds, trace,
                                                 smoke)
    finally:
        os.sched_setaffinity(0, allowed)
    failed += len(errors)
    errors += rep_errors

    payloads = reps[0].payloads if reps else []
    records_hash = records_sha256(payloads) if payloads else None
    # Every rep repeated one input: their records must be identical.
    hashes = {records_sha256(r.payloads) for r in reps if r.payloads}
    if workload.reference:
        hashes.add(records_sha256(workload.reference))
    if len(hashes) > 1:
        failed += 1
        errors.append(f"reps disagree: {len(hashes)} distinct record sets")
    records = [rec for p in payloads for rec in campaign_records(p)]
    sample = sample_records(records, seed)
    mismatches = check_records(sample, workload.margin_cycles)
    failed += len(mismatches)
    errors.extend(mismatches)

    attempted = sum(r.jobs for r in reps) + len(sample) + len(setups)
    if trace:
        metrics = _layer_metrics(reps, host, spec)
    else:
        metrics = _e2e_metrics(reps, setups, host, spec)
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "sizes": workload.sizes(),
        "cpus": cpus,
        "reps": len(reps),
        "traced_reps": sum(1 for r in reps if r.traced),
        # what each rep measured, before dividing by the pace
        "measured": [
            {"wall_s": r.wall_s, "cpu_s": r.cpu_s, "setup_s": r.setup_s,
             "pace": host.of(r.started, r.wall_s) if r.wall_s > 0 else None,
             "traced": r.traced}
            for r in reps
        ],
        "correct": failed == 0 and bool(records),
        "attempted": max(1, attempted),
        "failed": failed,
        "failed_ratio": failed / max(1, attempted),
        "errors": errors,
        "records": len(records),
        "records_sha256": records_hash,
        "oracle": {"checked": len(sample), "mismatches": len(mismatches)},
        "metrics": metrics,
        "requests": _requests(reps),
    }


def _summary(result: Dict) -> Dict[str, Dict]:
    """``{name: {"value", "unit"}}``: the metrics as the result line
    carries them."""
    return {name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()}


def _print_table(result: Dict) -> None:
    print(f"# {result['workload']}  seed={result['seed']} reps={result['reps']}"
          f" traced={result['traced_reps']} records={result['records']}"
          f" records_sha256={result['records_sha256']}")
    print(f"#   oracle: {result['oracle']['checked']} records re-derived, "
          f"{result['oracle']['mismatches']} mismatches; failed "
          f"{result['failed']}/{result['attempted']} = "
          f"{result['failed_ratio']:.3f}")
    for name, metric in result["metrics"].items():
        print(f"  {result['workload']:<17} {name:<34} "
              f"{metric['value']:>14.6g} {metric['unit']:<6} n={metric['n']}")
    requests = result["requests"]
    if requests:
        print(f"#   requests: rtt_p50 {requests['rtt_p50_ms']:.4g} ms, "
              f"rtt_p90 {requests['rtt_p90_ms']:.4g} ms, "
              f"{requests['jobs_per_s']:.4g} jobs/s, n={requests['n']}")
    for error in result["errors"]:
        print(f"#   error: {error}")


def run_one(args, spec: Dict) -> int:
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke, work, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{args.workload}.json").write_text(json.dumps(result, indent=2))
    _print_table(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": _summary(result),
    }))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Every workload: one fresh process each, one ledger line
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        return subprocess.run(
            ["git", *args], cwd=str(common.ROOT), capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def host_info() -> Dict:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # Dirty means the measured program differs from the commit named.
    status = _git("status", "--porcelain", "--untracked-files=no", "--",
                  "src")
    return {
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": sum(
            1 for path in common.SRC.rglob("*.py")
            for line in path.read_text().splitlines() if line.strip()
        ),
    }


def run_all(args, spec: Dict) -> int:
    out = Path(args.out) if args.out else WORK / f"run-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    record = {"kind": "perf-run", "host": host_info(), "seed": args.seed,
              "seconds": args.seconds, "trace": bool(args.trace),
              "smoke": args.smoke, "workloads": {}}
    ok = True
    try:
        for entry in spec["workloads"]:
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", entry["name"], "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(int(bool(args.trace))), "--out", str(out)]
            if args.smoke:
                argv.append("--smoke")
            child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
            try:
                stdout, _ = child.communicate(timeout=600)
            finally:
                if child.returncode is None:
                    # SIGTERM lets the workload run stop its own processes.
                    child.terminate()
                    child.communicate(timeout=120)
            print(stdout.rsplit("\n", 2)[0], flush=True)
            ok = ok and child.returncode == 0
            result_path = out / f"{entry['name']}.json"
            if result_path.exists():
                record["workloads"][entry["name"]] = json.loads(
                    result_path.read_text()
                )
            else:
                ok = False
    finally:
        if not args.out:
            shutil.rmtree(out, ignore_errors=True)
    if args.out:
        (out / "run.json").write_text(json.dumps(record, indent=2))
    if args.ledger:
        with open(args.ledger, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    results = record["workloads"].values()
    print(json.dumps({
        "correct": ok and all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results) or 1,
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            f"{r['workload']}.{name}": metric
            for r in results
            for name, metric in _summary(r).items()
        },
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="run only this workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run: per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one rep (a harness self-check)")
    parser.add_argument("--out", default=None,
                        help="directory for the full JSON results")
    parser.add_argument("--ledger", default=None,
                        help="append this invocation's record to this JSONL")
    args = parser.parse_args(argv)
    if not common.program_present() or not common.BENCHMARK_JSON.is_file():
        print(f"error: the program's sources ({common.SRC}/repro) or "
              f"BENCHMARK.json are missing", file=sys.stderr)
        return 2
    spec = common.load_benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    # A terminated run still stops every process it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload is not None:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
