"""Start a program process, traced when the runner asks for it.

Usage::

    python launch.py cli ARGS...            # repro.cli.main(ARGS)
    python launch.py sweep SPEC.json OUT.json

``cli`` runs the ``repro`` command line (``delayavf``, ``doctor``,
``serve``).  ``sweep`` is one Fig. 7 rep: set up the engines, time one
``repro.api.sweep`` call, and write the timings (with their start times on
the system-wide ``time.perf_counter`` clock) and result payloads to
OUT.json.  With ``PERF_TRACE_DIR`` set, :mod:`tracer` wraps the program's
layers first and every process of the tree writes its spans there.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer as perf_tracer  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _traced(name, fn, *args, **kwargs):
    active = perf_tracer.tracer()
    if active is None:
        return fn(*args, **kwargs)
    return active.call(name, fn, args, kwargs)


def run_cli(argv) -> int:
    import repro.cli

    if argv and argv[0] == "serve":
        # A daemon's life is mostly idle listening: its roots are the job
        # and request spans, not the process.
        return repro.cli.main(argv)
    return _traced("cli.main", repro.cli.main, argv)


def _setup(spec):
    from repro import api
    from repro.core.campaign import CampaignConfig

    config = CampaignConfig(
        delay_fractions=tuple(spec["delays"]),
        max_wires=spec["wires"],
        cycle_count=spec["cycles"],
        margin_cycles=spec["margin_cycles"],
        seed=spec["seed"],
        cache_dir=spec["cache_dir"],
    )
    for workload in spec["workloads"]:
        api.engine_for(workload, config=config)
    return config


def run_sweep(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    config = _traced("bench.setup", _setup, spec)
    setup_s = time.perf_counter() - _STARTED
    from repro import api

    cpu_before = _cpu_s()
    started = time.perf_counter()
    results = _traced(
        "bench.rep", api.sweep, spec["structures"], spec["workloads"],
        config=config,
    )
    wall_s = time.perf_counter() - started
    cpu_s = _cpu_s() - cpu_before
    payloads = [result.to_payload() for result in results.values()]
    api.shutdown()
    Path(out_path).write_text(json.dumps({
        "setup_started": _STARTED, "setup_s": setup_s,
        "started": started, "wall_s": wall_s, "cpu_s": cpu_s,
        "payloads": payloads,
    }))
    return 0


def main(argv) -> int:
    perf_tracer.install_from_env()
    if argv[:1] == ["cli"]:
        return run_cli(argv[1:])
    if argv[:1] == ["sweep"] and len(argv) == 3:
        return run_sweep(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
