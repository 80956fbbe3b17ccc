"""Shared helpers of the performance benchmark: paths, child processes, stats.

Everything here runs in the benchmark's own processes (the runner and the
load generator), never inside the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
LAUNCH = HERE / "launch.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: scratch space for caches, journals and traces; emptied per invocation
WORK = HERE / ".work"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def program_present() -> bool:
    """Whether the program's sources sit next to the benchmark."""
    return (SRC / "repro" / "cli.py").is_file()


def child_env(trace_dir: Optional[Path] = None) -> Dict[str, str]:
    """Environment for a program process: sources on the path, tracing on
    only when *trace_dir* is given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("PERF_TRACE_DIR", None)
    if trace_dir is not None:
        env["PERF_TRACE_DIR"] = str(trace_dir)
    return env


def launch_argv(*args: str) -> List[str]:
    """``python launch.py ARGS``: a program process started through the
    benchmark's launcher (which installs the tracing wrappers on demand)."""
    return [sys.executable, str(LAUNCH), *args]


@dataclass
class ChildResult:
    """Exit status and resource use of one finished child process tree."""

    returncode: int
    #: when the child was started, on the ``time.perf_counter`` clock
    started: float
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def live_group_members(pgid: int) -> List[int]:
    """Pids of the not-yet-dead processes in process group *pgid*."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            members.append(int(stat.parent.name))
    return members


def kill_group(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """SIGKILL a child's whole process group (it leads its own session) and
    wait until every member, orphaned pool workers included, has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + timeout
    while live_group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.01)


def run_child(argv: Sequence[str], env: Dict[str, str], out_dir: Path,
              timeout: float = 170.0) -> ChildResult:
    """Run *argv* to completion and account for its whole process tree.

    ``wait4`` reports user+sys CPU of the child plus every descendant it
    reaped (pool workers included) and the largest single process's max
    RSS.  The child leads its own process group, so a timeout kills every
    process it started.  The wait blocks rather than polls: a polling
    parent wakes on the child's CPU every few milliseconds.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / "stdout.txt"
    err_path = out_dir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=out, stderr=err, env=env, cwd=str(ROOT),
            start_new_session=True,
        )
        timer = threading.Timer(timeout, kill_group, (proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        finally:
            timer.cancel()
            kill_group(proc)  # strays the child left behind, if any
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        started=started,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def proc_cpu_s(pid: int) -> float:
    """User+sys CPU seconds of a live process (all its threads)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """High-water resident set size of a live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them
    (degenerate samples of one value repeat it)."""
    values = list(values)
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


# ----------------------------------------------------------------------
# Result identity
# ----------------------------------------------------------------------
def campaign_records(payload: Dict) -> List[Dict]:
    """Flat injection records of one enveloped campaign result payload,
    each tagged with its structure and benchmark."""
    result = payload["result"]
    records = []
    for entry in result["by_delay"]:
        for record in entry["records"]:
            tagged = dict(record)
            tagged["structure"] = result["structure"]
            tagged["benchmark"] = result["benchmark"]
            records.append(tagged)
    return records


def records_sha256(payloads: Iterable[Dict]) -> str:
    """Content hash of the simulated records of a set of campaign results.

    Identical across commits exactly when every record (wire, cycle, delay,
    reach sets, outcome, ORACE verdict) is identical.
    """
    ordered = sorted(
        payloads,
        key=lambda p: (p["result"]["structure"], p["result"]["benchmark"]),
    )
    digest = hashlib.sha256()
    for payload in ordered:
        digest.update(
            json.dumps(campaign_records(payload), sort_keys=True).encode()
        )
    return digest.hexdigest()


def health_failures(payloads: Iterable[Dict]) -> int:
    """Campaign results that came back degraded or suspect."""
    return sum(
        1 for p in payloads
        if p["result"].get("degraded") or p["result"].get("suspect")
    )


def load_benchmark_spec() -> Dict:
    return json.loads(BENCHMARK_JSON.read_text())
