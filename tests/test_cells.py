"""Cell-kind semantics: the reference and the word evaluator must agree."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netlist.cells import (
    CellKind,
    cell_input_count,
    eval_cell,
    eval_cell_word,
)


@pytest.mark.parametrize("kind", list(CellKind))
def test_scalar_matches_vectorized_exhaustively(kind):
    arity = cell_input_count(kind)
    for bits in itertools.product((0, 1), repeat=arity):
        scalar = eval_cell(kind, list(bits))
        arrays = [np.array([b], dtype=np.uint8) for b in bits]
        vector = eval_cell_word(kind, arrays)
        assert scalar in (0, 1)
        assert int(vector[0]) == scalar, f"{kind.name}{bits}"


@pytest.mark.parametrize("kind", list(CellKind))
@pytest.mark.parametrize("planes", (1, 3, 64))
def test_int_words_match_reference_on_every_plane(kind, planes):
    """Python-int words of 1, 3 and 64 planes, filled cyclically with every
    input combination: each plane equals :func:`eval_cell` on its bits, and
    no bit outside the mask is set."""
    combos = list(itertools.product((0, 1), repeat=cell_input_count(kind)))
    mask = (1 << planes) - 1
    for start in range(0, len(combos), planes):
        lanes = [combos[(start + k) % len(combos)] for k in range(planes)]
        words = [
            sum(bits[pin] << k for k, bits in enumerate(lanes))
            for pin in range(len(combos[0]))
        ]
        out = eval_cell_word(int(kind), words, mask)
        assert isinstance(out, int)
        assert out & ~mask == 0, (kind.name, planes)
        for k, bits in enumerate(lanes):
            assert (out >> k) & 1 == eval_cell(kind, list(bits)), (
                kind.name, planes, bits,
            )


@pytest.mark.parametrize(
    "kind,table",
    [
        (CellKind.BUF, {(0,): 0, (1,): 1}),
        (CellKind.NOT, {(0,): 1, (1,): 0}),
        (CellKind.AND2, {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1}),
        (CellKind.OR2, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}),
        (CellKind.NAND2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0}),
        (CellKind.NOR2, {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 0}),
        (CellKind.XOR2, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}),
        (CellKind.XNOR2, {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}),
    ],
)
def test_truth_tables(kind, table):
    for bits, expected in table.items():
        assert eval_cell(kind, list(bits)) == expected


def test_mux2_semantics():
    # Input order is (a, b, s): out = b if s else a.
    for a in (0, 1):
        for b in (0, 1):
            assert eval_cell(CellKind.MUX2, [a, b, 0]) == a
            assert eval_cell(CellKind.MUX2, [a, b, 1]) == b


@given(
    kind=st.sampled_from(list(CellKind)),
    data=st.data(),
    size=st.integers(min_value=1, max_value=64),
)
def test_vectorized_batches_match_scalar(kind, data, size):
    arity = cell_input_count(kind)
    columns = [
        np.array(
            data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)),
            dtype=np.uint8,
        )
        for _ in range(arity)
    ]
    out = eval_cell_word(kind, columns)
    for row in range(size):
        expected = eval_cell(kind, [int(col[row]) for col in columns])
        assert int(out[row]) == expected


def test_input_counts():
    assert cell_input_count(CellKind.BUF) == 1
    assert cell_input_count(CellKind.NOT) == 1
    assert cell_input_count(CellKind.MUX2) == 3
    for kind in (CellKind.AND2, CellKind.OR2, CellKind.NAND2, CellKind.NOR2,
                 CellKind.XOR2, CellKind.XNOR2):
        assert cell_input_count(kind) == 2


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        eval_cell(99, [0])
    with pytest.raises(ValueError):
        eval_cell_word(99, [0])
