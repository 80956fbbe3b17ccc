"""Coverage vectors, greedy selection, and generated-workload campaigns."""

import dataclasses
import json

import pytest

from repro import api
from repro.core.coverage import (
    CoverageVector,
    select_workloads,
    union_coverage,
)
from repro.workloads.generator import GeneratorKnobs

#: A deliberately tiny generated program so probe campaigns stay fast.
_TINY = "blocks=2,ops_per_block=4,loop_iters=2"
_TINY_KNOBS = GeneratorKnobs(blocks=2, ops_per_block=4, loop_iters=2)


def _vector(wires, structure="decoder", wire_count=100, cycles=(1,)):
    return CoverageVector(
        structure=structure,
        wire_count=wire_count,
        covered_wires=frozenset(wires),
        covered_cycles=frozenset(cycles),
        sampled_wires=len(wires),
        sampled_cycles=len(cycles),
    )


# ----------------------------------------------------------------------
# CoverageVector
# ----------------------------------------------------------------------
def test_vector_payload_round_trip():
    vector = _vector({3, 7, 9}, cycles=(10, 20))
    payload = vector.to_payload()
    assert json.loads(json.dumps(payload)) == payload  # JSON-serializable
    assert payload == {
        "structure": "decoder", "wire_count": 100,
        "covered_wires": [3, 7, 9], "covered_cycles": [10, 20],
        "sampled_wires": 3, "sampled_cycles": 2,
    }


def test_vector_metrics_and_union():
    a = _vector({1, 2, 3})
    b = _vector({3, 4})
    assert a.wire_coverage == pytest.approx(0.03)
    assert a.marginal_wires(set()) == 3
    assert a.marginal_wires({1, 2}) == 1
    merged = a.union(b)
    assert merged.covered_wires == frozenset({1, 2, 3, 4})
    assert union_coverage([a, b]) == merged
    with pytest.raises(ValueError):
        a.union(_vector({1}, structure="alu"))
    with pytest.raises(ValueError):
        union_coverage([])


# ----------------------------------------------------------------------
# Greedy selection
# ----------------------------------------------------------------------
def test_greedy_selection_beats_sequential_order():
    vectors = {
        "gen:0": _vector({1, 2}),
        "gen:1": _vector({1, 2, 3}),
        "gen:2": _vector({4, 5, 6}),
        "gen:3": _vector({1, 4}),
    }
    selected, gains = select_workloads(vectors, 2)
    # Greedy picks the largest first, then the disjoint one.
    assert selected == ["gen:1", "gen:2"]
    assert gains == [3, 3]
    greedy_union = union_coverage([vectors[n] for n in selected])
    sequential_union = union_coverage([vectors["gen:0"], vectors["gen:1"]])
    assert greedy_union.num_covered_wires > sequential_union.num_covered_wires


def test_selection_edge_cases():
    vectors = {"a": _vector({1}), "b": _vector({1})}
    selected, gains = select_workloads(vectors, 5)
    assert selected == ["a", "b"]  # clamps to the candidate pool
    assert gains == [1, 0]  # saturation is visible in the gains
    with pytest.raises(ValueError):
        select_workloads(vectors, 0)


def test_generated_workload_reruns_without_probe(tmp_path):
    """A second campaign over a generated workload in the same cache dir
    and scope performs zero probe runs: the scope's metadata remembers the
    length the first campaign measured."""
    spec = f"gen:3:{_TINY}"
    config = dataclasses.replace(api._GENWORK_PROBE, cache_dir=str(tmp_path))
    try:
        engine = api.engine_for(spec, config=config)
        engine.run_structure("alu")
        assert engine.telemetry.count("probe_runs") == 1
        api.shutdown()  # drop the engine (and its in-process memo's system)

        engine = api.engine_for(spec, config=config)
        engine.run_structure("alu")
        assert engine.telemetry.count("probe_runs") == 0
    finally:
        api.shutdown()


# ----------------------------------------------------------------------
# End-to-end coverage-directed generation
# ----------------------------------------------------------------------
def test_generate_workloads_end_to_end(tmp_path):
    config = dataclasses.replace(api._GENWORK_PROBE, cache_dir=str(tmp_path))
    try:
        selection = api.generate_workloads(
            2,
            target_structure="alu",
            pool=3,
            knobs=_TINY_KNOBS,
            config=config,
        )
        assert len(selection.selected) == 2
        assert len(selection.candidates) == 3
        assert all(s.startswith("gen:") for s in selection.selected)
        # Probe campaigns produce real coverage on the ALU.
        assert selection.union.num_covered_wires > 0
        assert selection.union.wire_count > 0
        assert selection.baseline is not None
        assert (
            selection.union.num_covered_wires
            >= selection.baseline.num_covered_wires
        )
        # Gains are non-increasing (greedy invariant) and sum to the union.
        gains = list(selection.gains)
        assert gains == sorted(gains, reverse=True)
        assert sum(gains) == selection.union.num_covered_wires
        payload = selection.to_payload()
        assert json.loads(json.dumps(payload)) == payload
        api.shutdown()

        # Warm re-proposal from the same cache is bit-identical, and the
        # record table serves every probe campaign: nothing is simulated.
        again = api.generate_workloads(
            2,
            target_structure="alu",
            pool=3,
            knobs=_TINY_KNOBS,
            config=config,
        )
        assert again.to_payload() == payload
        for spec in again.candidates:
            engine = api.engine_for(spec, config=config)
            assert engine.telemetry.count("injections") == 0, spec
    finally:
        api.shutdown()


def test_generate_workloads_validates_inputs():
    with pytest.raises(ValueError):
        api.generate_workloads(0)
    with pytest.raises(ValueError):
        api.generate_workloads(5, pool=3)
