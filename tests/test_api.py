"""Top-level package API surface and the repro.api facade."""

import dataclasses
import json
import warnings

import pytest

import repro
from repro import api
from repro.cli import main
from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.core.results import SAVFResult, StructureCampaignResult
from repro.soc.system import build_system
from repro.workloads.beebs import load_benchmark


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.does_not_exist


def test_version():
    assert repro.__version__


def test_benchmark_names_export():
    assert "md5" in repro.BENCHMARK_NAMES


def test_subpackage_imports():
    import repro.analysis
    import repro.core
    import repro.hdl
    import repro.isa
    import repro.netlist
    import repro.sim
    import repro.soc
    import repro.timing
    import repro.workloads

    assert repro.core.DelayAVFEngine is repro.DelayAVFEngine


def test_facade_exports():
    assert repro.analyze is api.analyze
    assert repro.sweep is api.sweep
    assert repro.savf is api.savf
    assert repro.shutdown is api.shutdown


# ----------------------------------------------------------------------
# The one-call facade (repro.api)
# ----------------------------------------------------------------------
SMALL = CampaignConfig(
    delay_fractions=(0.9,), cycle_count=2, max_wires=3, seed=0
)


@pytest.fixture(autouse=True)
def _fresh_facade():
    yield
    api.shutdown()


def test_analyze_matches_direct_engine():
    """The facade is a veneer: byte-identical to driving the engine."""
    via_api = api.analyze("lsu", "libstrstr", config=SMALL)

    engine = DelayAVFEngine(build_system(), load_benchmark("libstrstr"), SMALL)
    direct = engine.run_structure("lsu")
    engine.close()

    assert via_api == direct  # telemetry excluded from dataclass equality
    assert via_api.by_delay[0.9].records == direct.by_delay[0.9].records


def test_analyze_reuses_engine_across_structures():
    first = api.analyze("lsu", "libstrstr", config=SMALL)
    assert first.telemetry.count("golden_runs") <= 1
    second = api.analyze("decoder", "libstrstr", config=SMALL)
    # Same cached engine: the second structure needs no new golden run.
    assert second.telemetry.count("golden_runs") == 0
    assert first.structure == "lsu" and second.structure == "decoder"


def test_analyze_accepts_program_object():
    program = load_benchmark("libstrstr")
    result = api.analyze("lsu", program, config=SMALL)
    assert result.benchmark == "libstrstr"


def test_sweep_contract():
    results = api.sweep(
        ("lsu", "decoder"), ("libstrstr",), delays=(0.5,), config=SMALL
    )
    assert set(results) == {("lsu", "libstrstr"), ("decoder", "libstrstr")}
    for result in results.values():
        assert result.delay_fractions == (0.5,)
        assert result.sampled_wires == SMALL.max_wires


# ----------------------------------------------------------------------
# A cached answer costs I/O, not simulation
# ----------------------------------------------------------------------
def _swept(config, workloads=("libstrstr", "libfibcall")):
    """One alu + decoder sweep: its payloads, each workload's engine
    counters, and the engines."""
    results = api.sweep(("alu", "decoder"), workloads, config=config)
    engines = {name: api.engine_for(name, config=config) for name in workloads}
    counters = {
        name: engine.telemetry.snapshot()["counters"]
        for name, engine in engines.items()
    }
    payloads = {key: result.to_payload() for key, result in results.items()}
    return payloads, counters, engines


def test_warm_sweep_runs_no_simulation(tmp_path):
    config = dataclasses.replace(SMALL, cache_dir=str(tmp_path))
    cold, _, _ = _swept(config)
    api.shutdown()  # only the disk cache survives
    warm, counters, _ = _swept(config)
    assert warm == cold
    for name in ("golden_runs", "probe_runs", "waveforms_built"):
        assert sum(c.get(name, 0) for c in counters.values()) == 0, name


def test_sweep_engines_share_one_system_and_one_golden_word(
    tmp_path, monkeypatch
):
    from repro.core import campaign

    words = []
    packed = campaign.packed_golden_runs

    def recorded(sessions):
        packed(sessions)
        words.append([session.has_golden for session in sessions])

    monkeypatch.setattr(campaign, "packed_golden_runs", recorded)
    _, counters, engines = _swept(
        dataclasses.replace(SMALL, cache_dir=str(tmp_path))
    )
    assert len({id(engine.system) for engine in engines.values()}) == 1
    assert words == [[True, True]]
    assert sum(c.get("golden_runs", 0) for c in counters.values()) == 2


def test_partly_warm_sweep_simulates_only_the_cold_workload(tmp_path):
    reference, _, _ = _swept(
        dataclasses.replace(SMALL, cache_dir=str(tmp_path / "reference"))
    )
    api.shutdown()
    config = dataclasses.replace(SMALL, cache_dir=str(tmp_path / "partial"))
    _swept(config, ("libstrstr",))
    api.shutdown()
    payloads, counters, _ = _swept(config)
    assert payloads == reference
    assert counters["libstrstr"].get("golden_runs", 0) == 0
    assert counters["libfibcall"].get("golden_runs", 0) == 1


@pytest.mark.parametrize("stale_cycles", [700, 900])
def test_stale_length_store_entry_resamples_before_planning(
    tmp_path, monkeypatch, stale_cycles
):
    """A stale bundled length hint re-samples before it samples a plan.

    libstrstr halts after 746 cycles.  Through one engine the session's
    own one-lane golden run detects the stale hint; in a two-workload sweep
    the packed word's lane fails adoption first and the session falls back
    to its own run; an sAVF run verifies the length before it samples its
    cycles too.  Either way the results are those of a run with the true
    hint.
    """
    from repro.core.cache import program_signature
    from repro.workloads import lengths

    def run(cache_dir, mode):
        config = dataclasses.replace(SMALL, cache_dir=str(cache_dir))
        if mode == "sweep":
            result = api.sweep(
                ("alu",), ("libstrstr", "libfibcall"), config=config
            )[("alu", "libstrstr")]
        elif mode == "savf":
            result = api.savf("regfile", "libstrstr", bits=24, config=config)
        else:
            result = api.analyze("alu", "libstrstr", config=config)
        session = api.engine_for("libstrstr", config=config).session
        counters = session.telemetry.snapshot()["counters"]
        api.shutdown()
        return result, counters, session.total_cycles

    references = {
        mode: run(tmp_path / f"reference-{mode}", mode)
        for mode in ("analyze", "savf")
    }
    monkeypatch.setitem(
        lengths.KNOWN_LENGTHS,
        program_signature(load_benchmark("libstrstr")),
        stale_cycles,
    )
    for mode, golden_runs in (("analyze", 2), ("sweep", 3), ("savf", 2)):
        reference, _, true_length = references[
            "savf" if mode == "savf" else "analyze"
        ]
        result, counters, length = run(tmp_path / mode, mode)
        assert counters.get("stale_length_hints") == 1, mode
        assert counters.get("golden_runs") == golden_runs, mode
        assert length == true_length == 746
        assert result == reference, mode
        if mode != "savf":
            assert result.sampled_cycles == reference.sampled_cycles


def test_savf_facade():
    result = api.savf("lsu", "libstrstr", bits=4, config=SMALL)
    assert isinstance(result, SAVFResult)
    assert result.samples > 0
    assert result.structure == "lsu" and result.benchmark == "libstrstr"


def test_shutdown_clears_engine_cache():
    api.analyze("lsu", "libstrstr", config=SMALL)
    assert api._ENGINES
    api.shutdown()
    assert not api._ENGINES


#: Halts after a couple of instructions: campaigns on it cost milliseconds.
TINY = CampaignConfig(
    delay_fractions=(0.9,), cycle_count=1, max_wires=2, margin_cycles=200
)


def test_engine_cache_keyed_by_program_content():
    """Two programs sharing a name must never alias each other's engine.

    The facade keys engines by the program's *content signature*, not its
    name: an ad-hoc program named like another gets its own golden run and
    verdict scope instead of silently reusing the wrong ones.
    """
    from repro.isa.assembler import assemble
    from repro.soc.memmap import HALT_ADDR

    twin_a = assemble(f"li t0, {HALT_ADDR}\nli t1, 7\nsw t1, 0(t0)\n", "twin")
    twin_b = assemble(f"li t0, {HALT_ADDR}\nli t1, 9\nsw t1, 0(t0)\n", "twin")
    assert twin_a.name == twin_b.name and twin_a.image != twin_b.image

    api.analyze("lsu", twin_a, config=TINY)
    api.analyze("lsu", twin_b, config=TINY)
    assert len(api._ENGINES) == 2

    # Same content: the existing engine is reused, not duplicated.
    api.analyze("lsu", twin_a, config=TINY)
    assert len(api._ENGINES) == 2


def test_engine_cache_is_thread_safe():
    """Racing threads asking for the same engine build it exactly once."""
    import threading

    program = load_benchmark("libstrstr")
    before = api.engine_cache_stats()
    engines = []
    barrier = threading.Barrier(4)

    def grab():
        barrier.wait()
        engines.append(api.engine_for(program, config=TINY))

    threads = [threading.Thread(target=grab) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(engines) == 4
    assert all(engine is engines[0] for engine in engines)
    assert len(api._ENGINES) == 1
    stats = api.engine_cache_stats()
    assert stats["size"] == 1
    assert stats["misses"] - before["misses"] == 1
    assert stats["hits"] - before["hits"] == 3


def test_engine_cache_key_ignores_reporting_channels(tmp_path):
    """progress/metrics_out/stats must not fragment the engine cache:
    they are per-call arguments, never config fields."""
    from repro.errors import InputError

    program = load_benchmark("libstrstr")
    base = api.engine_for(program, config=TINY)
    for name in ("progress", "metrics_out", "stats"):
        with pytest.raises(InputError, match=name):
            CampaignConfig.from_payload({name: True})
    metrics = tmp_path / "metrics.prom"
    api.analyze(
        "lsu", program, config=TINY, progress=True, metrics_out=str(metrics)
    )
    assert metrics.exists()
    assert api.engine_for(program, config=TINY) is base
    assert len(api._ENGINES) == 1


def test_atexit_hook_drains_engines():
    """Interpreter exit drains the facade's cached engines (no leaked pools).

    A probe hook registered *before* ``repro.api`` is imported runs after
    the facade's own ``atexit`` hook (LIFO), so it observes the post-drain
    state.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = """
import atexit

def probe():
    import repro.api as api
    print("engines-after-drain", len(api._ENGINES), flush=True)

atexit.register(probe)

from repro import api
from repro.core.campaign import CampaignConfig
from repro.isa.assembler import assemble
from repro.soc.memmap import HALT_ADDR

program = assemble(f"li t0, {HALT_ADDR}\\nli t1, 7\\nsw t1, 0(t0)\\n", "tiny")
config = CampaignConfig(
    delay_fractions=(0.9,), cycle_count=1, max_wires=2, margin_cycles=200
)
api.analyze("lsu", program, config=config)
print("engines-before-exit", len(api._ENGINES), flush=True)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "engines-before-exit 1" in proc.stdout
    assert "engines-after-drain 0" in proc.stdout


# ----------------------------------------------------------------------
# Engine construction
# ----------------------------------------------------------------------
def test_engine_construction_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        engine = DelayAVFEngine(
            build_system(), load_benchmark("libstrstr"), SMALL
        )
        engine.close()


# ----------------------------------------------------------------------
# CampaignConfig consolidation
# ----------------------------------------------------------------------
def test_config_validation_rejects_bad_knobs():
    with pytest.raises(ValueError, match="delay fractions"):
        CampaignConfig(delay_fractions=(0.0, 1.5))
    with pytest.raises(ValueError, match="must not be empty"):
        CampaignConfig(delay_fractions=())
    with pytest.raises(ValueError, match="cycle_count"):
        CampaignConfig(cycle_count=0)
    with pytest.raises(ValueError, match="cycle_fraction"):
        CampaignConfig(cycle_count=None, cycle_fraction=1.5)
    with pytest.raises(ValueError, match="cycle_count / cycle_fraction"):
        CampaignConfig(cycle_count=None, cycle_fraction=None)
    # The paper's 4 % of cycles names the fraction alone: with the count's
    # default still set, the config would validate and every campaign fail.
    with pytest.raises(ValueError, match="cycle_count / cycle_fraction"):
        CampaignConfig(cycle_fraction=0.04)
    assert CampaignConfig(cycle_count=None, cycle_fraction=0.04).cycle_count is None
    with pytest.raises(ValueError, match="max_wires"):
        CampaignConfig(max_wires=0)
    # The lane width is the constant MAX_LANES, not a knob.
    with pytest.raises(TypeError, match="lanes"):
        CampaignConfig(lanes=64)
    with pytest.raises(ValueError, match="jobs"):
        CampaignConfig(jobs=0)


def test_config_rejects_repeated_delay_fractions():
    """A repeated delay would count every record once per listing: with
    (0.5, 0.5) at 2 cycles x 4 wires, 32 samples at d = 0.5 instead of 8."""
    with pytest.raises(ValueError, match="distinct, repeated: \\[0.5\\]"):
        CampaignConfig(delay_fractions=(0.5, 0.5), cycle_count=2, max_wires=4)
    with pytest.raises(ValueError, match="distinct"):
        CampaignConfig(delay_fractions=(0.9, 0.5, 0.9))
    with pytest.raises(ValueError, match="distinct"):
        dataclasses.replace(CampaignConfig(), delay_fractions=(0.7, 0.7))
    assert CampaignConfig(delay_fractions=(0.9, 0.5)).delay_fractions == (
        0.9, 0.5,
    )


def test_config_from_cli_args():
    import argparse

    args = argparse.Namespace(
        delays=[0.5, 0.9], cycles=3, wires=8, seed=7, jobs=2,
        cache_dir="/tmp/verdicts", stats=True,
    )
    config = CampaignConfig.from_cli_args(args)
    assert config.delay_fractions == (0.5, 0.9)
    assert config.cycle_count == 3
    assert config.max_wires == 8
    assert config.seed == 7
    assert config.jobs == 2
    assert config.cache_dir == "/tmp/verdicts"
    # --stats decides what the CLI prints, not what the campaign computes.
    assert not hasattr(config, "stats")


def test_config_from_cli_args_defaults_for_missing():
    import argparse

    config = CampaignConfig.from_cli_args(argparse.Namespace())
    assert config == CampaignConfig()


# ----------------------------------------------------------------------
# CLI on the facade: --format json round-trips
# ----------------------------------------------------------------------
CLI_ARGS = [
    "delayavf", "libstrstr", "lsu",
    "--delays", "0.9", "--wires", "3", "--cycles", "2",
]


def test_cli_json_round_trips(capsys):
    assert main(CLI_ARGS + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rebuilt = StructureCampaignResult.from_payload(payload)
    assert rebuilt.structure == "lsu"
    assert rebuilt.to_payload() == payload


def test_analyze_reproduces_cli_json(capsys):
    """`from repro import analyze` == CLI delayavf, record for record."""
    assert main(CLI_ARGS + ["--format", "json"]) == 0
    from_cli = StructureCampaignResult.from_payload(
        json.loads(capsys.readouterr().out)
    )
    config = CampaignConfig(
        delay_fractions=(0.9,), cycle_count=2, max_wires=3, seed=0
    )
    result = repro.analyze("lsu", "libstrstr", config=config)
    assert result == from_cli
    assert result.by_delay[0.9].records == from_cli.by_delay[0.9].records


def test_cli_savf_json_round_trips(capsys):
    code = main([
        "savf", "libstrstr", "lsu", "--bits", "4", "--cycles", "2",
        "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    rebuilt = SAVFResult.from_payload(payload)
    assert rebuilt.to_payload() == payload
    assert rebuilt.structure == "lsu"
