"""The benchmark's four workloads and the drivers that run one rep of each.

Every rep runs the program in fresh processes: a ``launch.py sweep`` child
per Fig. 7 rep, a ``launch.py cli delayavf`` child per CLI campaign, and a
``launch.py cli serve`` daemon per service rep (this process is its one
closed-loop client).  Inputs derive from the seed alone.  Reps of one run
repeat the same input, so their records must hash identically.  Every
measured time comes with its start on the system-wide
``time.perf_counter`` clock, so that the run can divide it by the host's
pace over that window (:mod:`pace`).
"""

from __future__ import annotations

import json
import random
import select
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    ChildResult,
    child_env,
    health_failures,
    kill_group,
    launch_argv,
    proc_cpu_s,
    proc_peak_rss_mb,
    run_child,
)


@dataclass
class Rep:
    """What one rep measured."""

    #: when the timed section started, on the ``time.perf_counter`` clock
    started: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    jobs: int
    #: round trip of each service request the rep made (batch reps: none)
    rtts_ms: List[float]
    payloads: List[Dict]
    failed: int = 0
    setup_started: Optional[float] = None
    setup_s: Optional[float] = None
    #: where a traced rep's processes wrote their spans (None: untraced)
    trace_dir: Optional[Path] = None
    errors: List[str] = field(default_factory=list)

    @property
    def traced(self) -> bool:
        return self.trace_dir is not None


def _child_failure(child: ChildResult, what: str) -> List[str]:
    if child.returncode == 0:
        return []
    tail = child.stderr.strip().splitlines()[-3:]
    return [f"{what} exited {child.returncode}: {' | '.join(tail)}"]


class Workload:
    """One named input set; subclasses implement :meth:`rep`."""

    name = ""
    margin_cycles = 3000
    #: whether the workload keeps one CPU busy at a time; a serial run
    #: stays on one CPU, whose pace alone then scales its times
    serial = True

    def __init__(self, seed: int, smoke: bool, work: Path):
        self.seed = seed
        self.smoke = smoke
        self.work = work
        #: failures met during :meth:`prepare`
        self.prepare_errors: List[str] = []
        #: result payloads :meth:`prepare` computed (the reps must match them)
        self.reference: List[Dict] = []

    def sizes(self) -> Dict:
        raise NotImplementedError

    def prepare(self) -> List[Tuple[float, float]]:
        """Untimed work before the first rep; returns the set-up samples it
        measured as ``(started, seconds)`` (empty when set-up is measured
        per rep instead)."""
        return []

    def rep(self, index: int, traced: bool) -> Rep:
        raise NotImplementedError

    def _rep_dir(self, index: int) -> Path:
        path = self.work / f"rep{index}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    @staticmethod
    def _trace_dir(rep_dir: Path, traced: bool) -> Optional[Path]:
        """Where a traced rep's processes write their spans."""
        if not traced:
            return None
        path = rep_dir / "trace"
        path.mkdir(parents=True, exist_ok=True)
        return path


# ----------------------------------------------------------------------
# Fig. 7: api.sweep, serial, 64 lanes
# ----------------------------------------------------------------------
class _Fig7(Workload):
    """The Fig. 7 sweep at a fixed sample.

    The wire sample is the fixed Fig. 7 one (wire seed 0): packed GroupACE
    costs one 64-lane word per workload that has any error set, so a
    seeded 8-wire sample made a cold sweep take 2.2-4.3 s depending on
    whether its few error-producing wires were drawn.  The run's seed
    orders the structures and workloads handed to ``api.sweep`` and draws
    the oracle's records.
    """

    margin_cycles = 500
    wire_seed = 0

    def sizes(self) -> Dict:
        if self.smoke:
            return {
                "structures": ["alu", "decoder"], "workloads": ["libstrstr"],
                "delays": [0.5, 0.9], "wires": 2, "cycles": 1,
                "margin_cycles": self.margin_cycles,
                "wire_seed": self.wire_seed,
            }
        return {
            "structures": ["alu", "decoder", "regfile"],
            "workloads": ["libstrstr", "libfibcall", "bubblesort"],
            "delays": [0.1, 0.3, 0.5, 0.7, 0.9], "wires": 8, "cycles": 3,
            "margin_cycles": self.margin_cycles, "wire_seed": self.wire_seed,
        }

    def _sweep(self, rep_dir: Path, cache_dir: Path,
               trace_dir: Optional[Path]) -> Rep:
        spec = dict(self.sizes(), seed=self.wire_seed,
                    cache_dir=str(cache_dir))
        order = random.Random(f"fig7:{self.seed}")
        for key in ("structures", "workloads"):
            order.shuffle(spec[key])
        rep_dir.mkdir(parents=True, exist_ok=True)
        spec_path = rep_dir / "spec.json"
        out_path = rep_dir / "out.json"
        spec_path.write_text(json.dumps(spec))
        child = run_child(
            launch_argv("sweep", str(spec_path), str(out_path)),
            child_env(trace_dir), rep_dir,
        )
        errors = _child_failure(child, "sweep")
        if errors:
            return Rep(child.started, 0.0, 0.0, child.maxrss_mb, 1, [], [],
                       failed=1, errors=errors)
        out = json.loads(out_path.read_text())
        payloads = out["payloads"]
        return Rep(
            started=out["started"], wall_s=out["wall_s"], cpu_s=out["cpu_s"],
            rss_mb=child.maxrss_mb, jobs=len(payloads), rtts_ms=[],
            payloads=payloads, failed=health_failures(payloads),
            setup_started=out["setup_started"], setup_s=out["setup_s"],
            trace_dir=trace_dir,
        )


class Fig7Cold(_Fig7):
    name = "fig7_cold"

    def rep(self, index: int, traced: bool) -> Rep:
        rep_dir = self._rep_dir(index)
        return self._sweep(rep_dir, rep_dir / "cache",
                           self._trace_dir(rep_dir, traced))


class Fig7Warm(_Fig7):
    name = "fig7_warm"

    def prepare(self) -> List[Tuple[float, float]]:
        """Populate the verdict cache with one cold sweep (untimed)."""
        populate = self._sweep(self.work / "populate", self.work / "cache",
                               None)
        if populate.failed:
            self.prepare_errors = populate.errors or [
                "populating sweep returned degraded or suspect results"
            ]
        self.reference = populate.payloads
        return []

    def rep(self, index: int, traced: bool) -> Rep:
        rep_dir = self._rep_dir(index)
        return self._sweep(rep_dir, self.work / "cache",
                           self._trace_dir(rep_dir, traced))


# ----------------------------------------------------------------------
# One CLI campaign on a process pool
# ----------------------------------------------------------------------
class DecoderReachJ2(Workload):
    """One CLI campaign at a fixed sample.

    Like the Fig. 7 sweep it samples wires and cycles with seed 0: with the
    run's seed as the campaign seed, one seed's sample cost 12 % more than
    another's in alternating reps.  The run's seed orders the delays.
    """

    name = "decoder_reach_j2"
    wire_seed = 0
    serial = False

    def sizes(self) -> Dict:
        wires, cycles = (24, 2) if self.smoke else (400, 12)
        delays = [0.5, 0.7]
        random.Random(f"decoder:{self.seed}").shuffle(delays)
        return {"benchmark": "libstrstr", "structure": "decoder",
                "wires": wires, "cycles": cycles, "delays": delays,
                "jobs": 2, "wire_seed": self.wire_seed}

    def prepare(self) -> List[Tuple[float, float]]:
        """Set-up time: ``repro doctor`` on the same inputs, five times."""
        samples = []
        for index in range(1 if self.smoke else 5):
            child = run_child(
                launch_argv("cli", "doctor", "libstrstr", "decoder"),
                child_env(), self.work / f"doctor{index}",
            )
            self.prepare_errors += _child_failure(child, "doctor")
            samples.append((child.started, child.wall_s))
        return samples

    def rep(self, index: int, traced: bool) -> Rep:
        sizes = self.sizes()
        rep_dir = self._rep_dir(index)
        trace_dir = self._trace_dir(rep_dir, traced)
        argv = launch_argv(
            "cli", "delayavf", sizes["benchmark"], sizes["structure"],
            "--wires", str(sizes["wires"]), "--cycles", str(sizes["cycles"]),
            "--delays", *map(str, sizes["delays"]),
            "--seed", str(sizes["wire_seed"]), "--jobs", str(sizes["jobs"]),
            "--format", "json",
        )
        child = run_child(argv, child_env(trace_dir), rep_dir)
        errors = _child_failure(child, "delayavf")
        payloads = [] if errors else [json.loads(child.stdout)]
        return Rep(
            started=child.started, wall_s=child.wall_s, cpu_s=child.cpu_s,
            rss_mb=child.maxrss_mb, jobs=1, rtts_ms=[], payloads=payloads,
            failed=len(errors) + health_failures(payloads),
            trace_dir=trace_dir, errors=errors,
        )


# ----------------------------------------------------------------------
# The campaign service under one closed-loop client
# ----------------------------------------------------------------------
#: seconds between status polls (the client's 0.2 s default would quantize
#: every round trip to 200 ms steps)
POLL_SECONDS = 0.005


class ServiceMixed(Workload):
    """One closed-loop client against a fresh daemon per rep.

    A rep sends every (structure, benchmark) analyze spec ``copies`` times
    in a seeded shuffled order, so all but one copy of each spec are
    dedupe hits.  With 12 specs sent 9 times a rep makes 108 requests.
    The campaigns are sized (320 wires x 4 cycles) so that the measured
    pass, ~5 s, outweighs the daemon's ~4.5 s of spawn and warm-up.  Like
    the Fig. 7 sweep it uses one fixed wire sample; the run's seed orders
    the submissions.  In a closed loop either the client or the daemon
    works, never both, so the workload is serial: it runs on one CPU.
    """

    name = "service_mixed"
    wire_seed = 0

    def sizes(self) -> Dict:
        if self.smoke:
            structures, benchmarks = ["decoder", "prefetch"], ["libstrstr"]
            wires, cycles = 48, 2
        else:
            structures = ["alu", "decoder", "regfile", "prefetch"]
            benchmarks = ["libstrstr", "libfibcall", "bubblesort"]
            wires, cycles = 320, 4
        return {"structures": structures, "benchmarks": benchmarks,
                "copies": 9, "wires": wires, "cycles": cycles, "delay": 0.2,
                "workers": 2, "wire_seed": self.wire_seed,
                "warmup_structure": "lsu"}

    def _config(self) -> Dict:
        sizes = self.sizes()
        return {"delay_fractions": [sizes["delay"]],
                "max_wires": sizes["wires"], "cycle_count": sizes["cycles"],
                "seed": sizes["wire_seed"]}

    def requests(self) -> List[Dict]:
        """The run's seeded shuffled submission order."""
        sizes = self.sizes()
        specs = [
            {"kind": "analyze", "structure": structure,
             "benchmark": benchmark, "config": self._config()}
            for structure in sizes["structures"]
            for benchmark in sizes["benchmarks"]
        ]
        order = [spec for spec in specs for _ in range(sizes["copies"])]
        random.Random(f"service:{self.seed}").shuffle(order)
        return order

    def _start_daemon(self, rep_dir: Path, trace_dir: Optional[Path]):
        argv = launch_argv(
            "cli", "serve", "--port", "0",
            "--workers", str(self.sizes()["workers"]),
            "--cache-dir", str(rep_dir / "cache"),
            "--journal-dir", str(rep_dir / "journal"),
            "--journal-fsync", "always",
        )
        stderr = open(rep_dir / "stderr.txt", "w")
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=stderr,
            env=child_env(trace_dir), start_new_session=True, text=True,
        )
        stderr.close()
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        line = proc.stdout.readline() if ready else ""
        if "listening on " not in line:
            kill_group(proc)
            proc.wait()
            raise RuntimeError(f"daemon did not come up: {line!r}")
        return proc, line.split("listening on ", 1)[1].strip()

    @staticmethod
    def _stop_daemon(proc: subprocess.Popen) -> bool:
        """SIGTERM (graceful drain); True when it exited cleanly in time."""
        try:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=60.0)
            return proc.returncode == 0
        except subprocess.TimeoutExpired:
            return False
        finally:
            kill_group(proc)
            proc.wait()

    @staticmethod
    def _roundtrip(client, spec: Dict):
        """Submit, poll every 5 ms, fetch: (submission info, payload)."""
        info = client.submit_info(spec)
        while client.status(info["id"])["state"] not in ("done", "failed"):
            time.sleep(POLL_SECONDS)
        return info, client.result(info["id"], wait=False)

    def rep(self, index: int, traced: bool) -> Rep:
        from repro.client import ServiceClient
        from repro.errors import ReproError

        rep_dir = self._rep_dir(index)
        trace_dir = self._trace_dir(rep_dir, traced)
        started = time.perf_counter()
        proc, url = self._start_daemon(rep_dir, trace_dir)
        try:
            client = ServiceClient(url)
            # Set-up: one engine per benchmark, warmed by one sweep job over
            # a structure outside the mix.  The sweep packs the engines'
            # golden runs (3 s, against 4-5 s for one sAVF job per engine)
            # and builds the sampled cycles' fault-free waveforms, which
            # the first measured job per engine would otherwise pay.
            sizes = self.sizes()
            warmup = client.submit({
                "kind": "sweep", "structures": [sizes["warmup_structure"]],
                "benchmarks": sizes["benchmarks"], "config": self._config(),
            })
            client.result(warmup, wait=True, poll_seconds=POLL_SECONDS)
            setup_s = time.perf_counter() - started

            failed, errors, rtts = 0, [], []
            first: Dict[str, Dict] = {}
            requests = self.requests()
            cpu_before = proc_cpu_s(proc.pid) + time.thread_time()
            pass_started = time.perf_counter()
            for spec in requests:
                sent = time.perf_counter()
                try:
                    info, payload = self._roundtrip(client, spec)
                except ReproError as exc:
                    failed += 1
                    errors.append(f"request failed: {exc}")
                    continue
                rtt_ms = 1000.0 * (time.perf_counter() - sent)
                rtts.append(rtt_ms)
                job_id = info["id"]
                if job_id in first and first[job_id] != payload:
                    failed += 1
                    errors.append(f"{job_id}: dedupe served a different result")
                first.setdefault(job_id, payload)
            wall_s = time.perf_counter() - pass_started
            cpu_s = proc_cpu_s(proc.pid) + time.thread_time() - cpu_before
            rss_mb = proc_peak_rss_mb(proc.pid)
        finally:
            clean = self._stop_daemon(proc)
        if not clean:
            failed += 1
            errors.append("daemon did not drain and exit cleanly")
        payloads = list(first.values())
        return Rep(
            started=pass_started, wall_s=wall_s, cpu_s=cpu_s, rss_mb=rss_mb,
            jobs=len(requests), rtts_ms=rtts, payloads=payloads,
            failed=failed + health_failures(payloads),
            setup_started=started, setup_s=setup_s,
            trace_dir=trace_dir, errors=errors,
        )


WORKLOADS = {cls.name: cls for cls in (Fig7Cold, Fig7Warm, DecoderReachJ2,
                                       ServiceMixed)}
