"""Parameterized workload generators.

Each ``make_*`` function renders an RV32E assembly program (as source text)
together with its expected program-visible output, computed with a pure
Python model of the same kernel.  The expected output lets tests verify both
the reference ISS and the gate-level core end to end.

All programs follow the platform protocol: results are stored to the output
MMIO region and a final store to the halt address terminates execution.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.soc import memmap

_PRELUDE = f"""
.equ OUT, {memmap.OUTPUT_BASE:#x}
.equ HALT, {memmap.HALT_ADDR:#x}
"""

_EPILOGUE = """
halt_ok:
    li   t0, HALT
    li   t1, 0
    sw   t1, 0(t0)
"""


@dataclass(frozen=True)
class Workload:
    """A generated benchmark: assembly source + expected observables."""

    name: str
    source: str
    expected_output: Tuple[Tuple, ...]  #: same format as the ISS output log
    #: upper bound on executed instructions (constrained-random workloads
    #: only; ``None`` for the hand-written kernels)
    instructions: Optional[int] = None


_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(state: int) -> Tuple[int, int]:
    """One splitmix64 step: ``(next_state, mixed_output)``."""
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def _rng_words(seed: int, count: int, bits: int = 16) -> List[int]:
    """Deterministic pseudo-random words (splitmix64; no runtime RNG).

    The output mixer decorrelates sequential seeds, so nearby seeds
    (s, s+1) yield unrelated streams.  *bits* must be in 1..32: the state
    words are 64-bit but outputs are truncated to at most one 32-bit word.
    """
    if not 1 <= bits <= 32:
        raise ValueError(f"bits must be in 1..32, got {bits}")
    state = seed & _M64
    mask = (1 << bits) - 1
    words = []
    for _ in range(count):
        state, mixed = _splitmix64(state)
        words.append(mixed & mask)
    return words


class _GenRng:
    """Self-contained splitmix64 stream: identical on every platform.

    The constrained-random generator never uses :mod:`random`, so a
    workload's content is a pure function of ``(seed, knobs)`` regardless
    of interpreter version or platform — the property the content-hash
    reproducibility tests pin down.
    """

    def __init__(self, seed: int):
        self._state = (seed ^ 0xD6E8FEB86659FD93) & _M64

    def next64(self) -> int:
        self._state, mixed = _splitmix64(self._state)
        return mixed

    def word(self) -> int:
        return self.next64() & _M32

    def below(self, bound: int) -> int:
        return self.next64() % bound

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def weighted(self, pairs):
        """Pick an item from ``[(item, weight), ...]`` by integer weight."""
        pick = self.below(sum(weight for _, weight in pairs))
        for item, weight in pairs:
            pick -= weight
            if pick < 0:
                return item
        raise AssertionError("unreachable: weights exhausted")

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _expected(stores: Sequence[Tuple[int, int]]) -> Tuple[Tuple, ...]:
    events: List[Tuple] = [
        ("store", offset, value & 0xFFFFFFFF) for offset, value in stores
    ]
    events.append(("halt", 0))
    return tuple(events)


# ----------------------------------------------------------------------
# bubblesort
# ----------------------------------------------------------------------
def make_bubblesort(n: int = 18, seed: int = 7) -> Workload:
    """Bubble-sort *n* pseudo-random words; emit a weighted checksum."""
    data = _rng_words(seed, n)
    expected_sorted = sorted(data)
    checksum = 0
    for index, value in enumerate(expected_sorted):
        checksum = (checksum + value * (index + 1)) & 0xFFFFFFFF
    source = _PRELUDE + f"""
start:
    li   sp, 0xff00
    la   a0, array
    li   a1, {n}
    addi t0, a1, -1          # i = n-1
outer:
    blez t0, checksum
    li   t1, 0               # j
    la   a2, array
inner:
    bge  t1, t0, outer_next
    lw   a3, 0(a2)
    lw   a4, 4(a2)
    ble  a3, a4, noswap
    sw   a4, 0(a2)
    sw   a3, 4(a2)
noswap:
    addi t1, t1, 1
    addi a2, a2, 4
    j    inner
outer_next:
    addi t0, t0, -1
    j    outer
checksum:
    la   a2, array
    li   t1, 0
    li   a5, 0               # weighted sum
    li   s0, 1               # weight
csum_loop:
    bge  t1, a1, emit
    lw   a3, 0(a2)
    mv   a4, a3
    mv   t2, s0
wmul:                         # a3 * weight by repeated addition of a4
    addi t2, t2, -1
    blez t2, wdone
    add  a3, a3, a4
    j    wmul
wdone:
    add  a5, a5, a3
    addi s0, s0, 1
    addi t1, t1, 1
    addi a2, a2, 4
    j    csum_loop
emit:
    li   t0, OUT
    sw   a5, 0(t0)
    la   a2, array
    lw   a3, 0(a2)
    sw   a3, 4(t0)
    lw   a3, {4 * (n - 1)}(a2)
    sw   a3, 8(t0)
""" + _EPILOGUE + """
.align 2
array:
    .word """ + ", ".join(str(v) for v in data) + "\n"
    expected = _expected(
        [(0, checksum), (4, expected_sorted[0]), (8, expected_sorted[-1])]
    )
    return Workload("bubblesort", source, expected)


# ----------------------------------------------------------------------
# matmult
# ----------------------------------------------------------------------
def make_matmult(n: int = 4, seed: int = 3) -> Workload:
    """N×N integer matrix multiply with a software shift-add multiplier."""
    a_vals = _rng_words(seed, n * n, bits=8)
    b_vals = _rng_words(seed + 1, n * n, bits=8)
    c_vals = [
        sum(a_vals[i * n + k] * b_vals[k * n + j] for k in range(n)) & 0xFFFFFFFF
        for i in range(n)
        for j in range(n)
    ]
    checksum = 0
    for value in c_vals:
        checksum = (checksum ^ value) & 0xFFFFFFFF
        checksum = (checksum + value) & 0xFFFFFFFF
    trace = c_vals[0]
    source = _PRELUDE + f"""
start:
    li   sp, 0xff00
    li   s0, 0               # i
outer_i:
    li   s1, 0               # j
outer_j:
    li   t0, 0               # k
    li   t1, 0               # acc
dot:
    # a0 = A[i*n + k]
    li   a0, {n}
    mv   a1, s0
    call mul                 # a0 = i*n
    add  a0, a0, t0
    slli a0, a0, 2
    la   a2, mat_a
    add  a2, a2, a0
    lw   a3, 0(a2)           # A[i][k]
    # a0 = B[k*n + j]
    li   a0, {n}
    mv   a1, t0
    call mul
    add  a0, a0, s1
    slli a0, a0, 2
    la   a2, mat_b
    add  a2, a2, a0
    lw   a4, 0(a2)           # B[k][j]
    mv   a0, a3
    mv   a1, a4
    call mul                 # a0 = A*B
    add  t1, t1, a0
    addi t0, t0, 1
    li   a5, {n}
    blt  t0, a5, dot
    # C[i*n + j] = acc
    li   a0, {n}
    mv   a1, s0
    call mul
    add  a0, a0, s1
    slli a0, a0, 2
    la   a2, mat_c
    add  a2, a2, a0
    sw   t1, 0(a2)
    addi s1, s1, 1
    li   a5, {n}
    blt  s1, a5, outer_j
    addi s0, s0, 1
    blt  s0, a5, outer_i
    # checksum over C
    la   a2, mat_c
    li   t0, 0
    li   a5, 0
csum:
    lw   a3, 0(a2)
    xor  a5, a5, a3
    add  a5, a5, a3
    addi a2, a2, 4
    addi t0, t0, 1
    li   a4, {n * n}
    blt  t0, a4, csum
    li   t0, OUT
    sw   a5, 0(t0)
    la   a2, mat_c
    lw   a3, 0(a2)
    sw   a3, 4(t0)
    j    halt_ok

mul:                          # a0 = a0 * a1 (shift-add; clobbers a1, t2, tp)
    mv   t2, a0
    li   a0, 0
mul_loop:
    beqz a1, mul_done
    andi tp, a1, 1
    beqz tp, mul_skip
    add  a0, a0, t2
mul_skip:
    slli t2, t2, 1
    srli a1, a1, 1
    j    mul_loop
mul_done:
    ret
""" + _EPILOGUE + """
.align 2
mat_a:
    .word """ + ", ".join(str(v) for v in a_vals) + """
mat_b:
    .word """ + ", ".join(str(v) for v in b_vals) + """
mat_c:
    .space """ + str(4 * n * n) + "\n"
    expected = _expected([(0, checksum), (4, trace)])
    return Workload("matmult", source, expected)


# ----------------------------------------------------------------------
# libstrstr
# ----------------------------------------------------------------------
def make_strstr(
    haystack: str = "small delay faults in cores",
    needles: Sequence[str] = ("delay", "absent"),
) -> Workload:
    """Naive substring search; emits each match index (or -1)."""
    results = [haystack.find(needle) for needle in needles]
    needle_labels = [f"needle{i}" for i in range(len(needles))]
    search_calls = "\n".join(
        f"""
    la   a0, haystack
    la   a1, {label}
    call strstr
    sw   a0, {4 * i}(s1)"""
        for i, label in enumerate(needle_labels)
    )
    needle_data = "\n".join(
        f'{label}:\n    .asciz "{needle}"' for label, needle in zip(needle_labels, needles)
    )
    source = _PRELUDE + f"""
start:
    li   sp, 0xff00
    li   s1, OUT
{search_calls}
    j    halt_ok

strstr:                       # a0 haystack, a1 needle -> a0 index or -1
    mv   t0, a0               # base
    mv   a2, a0               # outer cursor
outer:
    lbu  a3, 0(a2)
    beqz a3, not_found
    mv   a4, a2               # inner haystack cursor
    mv   a5, a1               # inner needle cursor
inner:
    lbu  t1, 0(a5)
    beqz t1, found
    lbu  t2, 0(a4)
    bne  t1, t2, mismatch
    addi a4, a4, 1
    addi a5, a5, 1
    j    inner
mismatch:
    addi a2, a2, 1
    j    outer
found:
    sub  a0, a2, t0
    ret
not_found:
    li   a0, -1
    ret
""" + _EPILOGUE + f"""
haystack:
    .asciz "{haystack}"
{needle_data}
"""
    expected = _expected(
        [(4 * i, result & 0xFFFFFFFF) for i, result in enumerate(results)]
    )
    return Workload("libstrstr", source, expected)


# ----------------------------------------------------------------------
# libfibcall
# ----------------------------------------------------------------------
def make_fibcall(n: int = 9) -> Workload:
    """Recursive Fibonacci (call-stack heavy, like Beebs' libfibcall)."""

    def fib(k: int) -> int:
        return k if k < 2 else fib(k - 1) + fib(k - 2)

    source = _PRELUDE + f"""
start:
    li   sp, 0xff00
    li   a0, {n}
    call fib
    li   t0, OUT
    sw   a0, 0(t0)
    j    halt_ok

fib:
    li   t0, 2
    blt  a0, t0, fib_base
    addi sp, sp, -12
    sw   ra, 0(sp)
    sw   s0, 4(sp)
    mv   s0, a0
    addi a0, a0, -1
    call fib
    sw   a0, 8(sp)
    addi a0, s0, -2
    call fib
    lw   t1, 8(sp)
    add  a0, a0, t1
    lw   ra, 0(sp)
    lw   s0, 4(sp)
    addi sp, sp, 12
fib_base:
    ret
""" + _EPILOGUE
    return Workload("libfibcall", source, _expected([(0, fib(n))]))


# ----------------------------------------------------------------------
# md5
# ----------------------------------------------------------------------
_MD5_S = (
    [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4 + [4, 11, 16, 23] * 4
    + [6, 10, 15, 21] * 4
)
_MD5_K = [int(abs(math.sin(i + 1)) * (1 << 32)) & 0xFFFFFFFF for i in range(64)]


def _md5_g_index(i: int) -> int:
    if i < 16:
        return i
    if i < 32:
        return (5 * i + 1) % 16
    if i < 48:
        return (3 * i + 5) % 16
    return (7 * i) % 16


def _md5_partial(block: bytes, rounds: int) -> Tuple[int, int, int, int]:
    """MD5 compression of one pre-padded 64-byte *block*, run for *rounds*
    of its 64 rounds (fewer for scaled-down campaign runs)."""
    m = [int.from_bytes(block[4 * i : 4 * i + 4], "little") for i in range(16)]
    a0, b0, c0, d0 = 0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476
    a, b, c, d = a0, b0, c0, d0
    for i in range(rounds):
        if i < 16:
            f = (b & c) | (~b & d)
        elif i < 32:
            f = (d & b) | (~d & c)
        elif i < 48:
            f = b ^ c ^ d
        else:
            f = c ^ (b | ~d)
        f &= 0xFFFFFFFF
        total = (a + f + _MD5_K[i] + m[_md5_g_index(i)]) & 0xFFFFFFFF
        s = _MD5_S[i]
        rotated = ((total << s) | (total >> (32 - s))) & 0xFFFFFFFF
        a, b, c, d = d, (b + rotated) & 0xFFFFFFFF, b, c
    return (
        (a0 + a) & 0xFFFFFFFF,
        (b0 + b) & 0xFFFFFFFF,
        (c0 + c) & 0xFFFFFFFF,
        (d0 + d) & 0xFFFFFFFF,
    )


def make_md5(message: bytes = b"delay faults considered harmful", rounds: int = 64) -> Workload:
    """MD5 compression (single padded block, *rounds* of the 64 executed).

    ``rounds=64`` is the genuine MD5 transform, and its reference digest is
    cross-checked against :mod:`hashlib` here.
    """
    assert len(message) <= 55, "single-block MD5 only"
    block = bytearray(message)
    block.append(0x80)
    block.extend(b"\0" * (56 - len(block)))
    block.extend((len(message) * 8).to_bytes(8, "little"))
    block = bytes(block)
    digest = _md5_partial(block, rounds)
    if rounds == 64:
        reference = hashlib.md5(message).digest()
        assert b"".join(w.to_bytes(4, "little") for w in digest) == reference
    m_words = [int.from_bytes(block[4 * i : 4 * i + 4], "little") for i in range(16)]
    g_table = [_md5_g_index(i) for i in range(64)]

    source = _PRELUDE + f"""
start:
    li   sp, 0xff00
    li   s0, 0x67452301      # a
    li   s1, 0xefcdab89      # b
    li   gp, 0x98badcfe      # c
    li   tp, 0x10325476      # d
    li   t0, 0               # i
round:
    li   a0, 16
    blt  t0, a0, q0
    li   a0, 32
    blt  t0, a0, q1
    li   a0, 48
    blt  t0, a0, q2
q3:                           # f = c ^ (b | ~d)
    not  a1, tp
    or   a1, s1, a1
    xor  a1, gp, a1
    j    f_done
q0:                           # f = (b & c) | (~b & d)
    and  a1, s1, gp
    not  a2, s1
    and  a2, a2, tp
    or   a1, a1, a2
    j    f_done
q1:                           # f = (d & b) | (~d & c)
    and  a1, tp, s1
    not  a2, tp
    and  a2, a2, gp
    or   a1, a1, a2
    j    f_done
q2:                           # f = b ^ c ^ d
    xor  a1, s1, gp
    xor  a1, a1, tp
f_done:
    # total = a + f + K[i] + M[g[i]]
    add  a1, a1, s0
    slli a2, t0, 2
    la   a3, k_table
    add  a3, a3, a2
    lw   a4, 0(a3)
    add  a1, a1, a4
    la   a3, g_table
    add  a3, a3, t0
    lbu  a4, 0(a3)
    slli a4, a4, 2
    la   a3, msg
    add  a3, a3, a4
    lw   a4, 0(a3)
    add  a1, a1, a4
    # rotate left by s[i]
    la   a3, s_table
    add  a3, a3, t0
    lbu  a4, 0(a3)
    sll  a2, a1, a4
    li   a5, 32
    sub  a5, a5, a4
    srl  a1, a1, a5
    or   a1, a1, a2
    # (a, b, c, d) = (d, b + rot, b, c)
    mv   a2, tp              # new a
    add  a1, a1, s1          # new b
    mv   a3, s1              # new c... (old b)
    mv   tp, gp              # new d = old c
    mv   gp, a3
    mv   s1, a1
    mv   s0, a2
    addi t0, t0, 1
    li   a0, {rounds}
    blt  t0, a0, round
    # add initial state and emit
    li   t0, OUT
    li   a0, 0x67452301
    add  a0, a0, s0
    sw   a0, 0(t0)
    li   a0, 0xefcdab89
    add  a0, a0, s1
    sw   a0, 4(t0)
    li   a0, 0x98badcfe
    add  a0, a0, gp
    sw   a0, 8(t0)
    li   a0, 0x10325476
    add  a0, a0, tp
    sw   a0, 12(t0)
    j    halt_ok
""" + _EPILOGUE + """
.align 2
k_table:
    .word """ + ", ".join(f"{k:#x}" for k in _MD5_K[:64]) + """
msg:
    .word """ + ", ".join(f"{w:#x}" for w in m_words) + """
s_table:
    .byte """ + ", ".join(str(s) for s in _MD5_S) + """
g_table:
    .byte """ + ", ".join(str(g) for g in g_table) + "\n"
    expected = _expected([(4 * i, word) for i, word in enumerate(digest)])
    return Workload("md5", source, expected)


# ----------------------------------------------------------------------
# seeded constrained-random RV32E programs (campaign traffic diversity)
# ----------------------------------------------------------------------
#: memory-pattern knob values: sequential walk, fixed-stride walk, and a
#: pointer chase over a full-cycle permutation (the classic latency chain)
_PATTERNS = ("seq", "stride", "chase")
#: registers the generator may allocate, in pressure order.  The remainder
#: of the RV32E file is reserved: t0 (address/shift temp), t1 (data
#: cursor), ra / t2 (loop counters), sp (unused stack convention).
_POOL = ("a0", "a1", "a2", "a3", "a4", "a5", "s0", "s1", "gp", "tp")
#: words in the store-target scratch region (read back into the output
#: region at the end, so every store is architecturally observable)
_SCRATCH_WORDS = 8

_ALU_R = ("add", "sub", "xor", "or", "and", "slt", "sltu")
_ALU_I = ("addi", "xori", "ori", "andi")
_SHIFTS = ("sll", "srl", "sra")
_BRANCHES = ("beqz", "bnez", "bltz", "bgez")


@dataclass(frozen=True)
class GeneratorKnobs:
    """Shape constraints for one constrained-random program.

    Instruction mix is weighted (``alu`` / ``loads`` / ``stores`` /
    ``branches`` / ``muls`` — the core has no hardware multiplier, so a
    ``mul`` is a bounded software shift-add loop).  ``registers`` sets the
    working-set pressure, ``pattern`` the data-region access shape, and
    ``blocks`` / ``ops_per_block`` / ``loop_depth`` / ``loop_iters`` the
    control-flow skeleton.  Everything is validated at construction so a
    bad knob fails at spec-parse time, not mid-generation.
    """

    alu: int = 8  #: weight of register/immediate ALU ops in the mix
    loads: int = 3  #: weight of data-region loads (pattern-driven)
    stores: int = 2  #: weight of scratch-region stores
    branches: int = 3  #: weight of data-dependent forward branches
    muls: int = 1  #: weight of software shift-add multiply kernels
    registers: int = 8  #: working-set registers allocated from the pool
    pattern: str = "seq"  #: memory access pattern (seq | stride | chase)
    stride: int = 3  #: step in words for the stride pattern
    blocks: int = 5  #: straight-line blocks in the program skeleton
    ops_per_block: int = 6  #: mean generated operations per block
    loop_depth: int = 1  #: loop nesting: 0 none, 1 per-block, 2 adds outer
    loop_iters: int = 3  #: concrete trip count of every generated loop
    data_words: int = 16  #: size of the read-only data region (power of 2)
    outputs: int = 6  #: registers stored to the MMIO output region at exit

    def __post_init__(self):
        for name in ("alu", "loads", "stores", "branches", "muls"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(
                    f"mix weight {name} must be a non-negative integer"
                )
        if self.alu + self.loads + self.stores + self.branches + self.muls < 1:
            raise ValueError("instruction-mix weights must not all be zero")
        if not 2 <= self.registers <= len(_POOL):
            raise ValueError(f"registers must be in 2..{len(_POOL)}")
        if self.pattern not in _PATTERNS:
            raise ValueError(
                f"unknown pattern {self.pattern!r}; "
                f"known: {', '.join(_PATTERNS)}"
            )
        if not (
            isinstance(self.data_words, int)
            and 4 <= self.data_words <= 256
            and self.data_words & (self.data_words - 1) == 0
        ):
            raise ValueError("data_words must be a power of two in 4..256")
        if not 1 <= self.stride < self.data_words:
            raise ValueError("stride must be in 1..data_words-1")
        if not 1 <= self.blocks <= 32:
            raise ValueError("blocks must be in 1..32")
        if not 1 <= self.ops_per_block <= 32:
            raise ValueError("ops_per_block must be in 1..32")
        if not 0 <= self.loop_depth <= 2:
            raise ValueError("loop_depth must be in 0..2")
        if not 1 <= self.loop_iters <= 8:
            raise ValueError("loop_iters must be in 1..8")
        if not 1 <= self.outputs <= 16:
            raise ValueError("outputs must be in 1..16")

    def to_spec(self) -> str:
        """The compact ``name=value,...`` form (defaults omitted)."""
        parts = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value != field.default:
                parts.append(f"{field.name}={value}")
        return ",".join(parts)

    @classmethod
    def from_spec(cls, text: str) -> "GeneratorKnobs":
        """Parse the :meth:`to_spec` form; raises ``ValueError`` on junk."""
        values: Dict[str, object] = {}
        for part in filter(None, (text or "").split(",")):
            name, eq, raw = part.partition("=")
            name, raw = name.strip(), raw.strip()
            if not eq or name not in _KNOB_FIELDS:
                raise ValueError(
                    f"unknown generator knob {part!r}; "
                    f"known: {', '.join(_KNOB_FIELDS)}"
                )
            if name in values:
                raise ValueError(f"duplicate generator knob {name!r}")
            if name == "pattern":
                values[name] = raw
            else:
                try:
                    values[name] = int(raw)
                except ValueError:
                    raise ValueError(
                        f"generator knob {name} needs an integer, got {raw!r}"
                    ) from None
        return cls(**values)


_KNOB_FIELDS = tuple(f.name for f in dataclasses.fields(GeneratorKnobs))

#: prefix of generated-workload specs: ``gen:<seed>[:knob=value,...]``
GEN_PREFIX = "gen:"


def format_gen_spec(seed: int, knobs: Optional[GeneratorKnobs] = None) -> str:
    """The canonical spec string naming one generated workload."""
    tail = (knobs or GeneratorKnobs()).to_spec()
    return f"{GEN_PREFIX}{seed}" + (f":{tail}" if tail else "")


def parse_gen_spec(spec: str) -> Tuple[int, GeneratorKnobs]:
    """Parse ``gen:<seed>[:knob=value,...]`` into ``(seed, knobs)``."""
    if not isinstance(spec, str) or not spec.startswith(GEN_PREFIX):
        raise ValueError(
            f"not a generated-workload spec: {spec!r} "
            "(expected gen:<seed>[:knob=value,...])"
        )
    body = spec[len(GEN_PREFIX):]
    seed_text, sep, knob_text = body.partition(":")
    try:
        seed = int(seed_text)
    except ValueError:
        raise ValueError(
            f"invalid generated-workload seed {seed_text!r} in {spec!r}"
        ) from None
    if seed < 0:
        raise ValueError("generated-workload seed must be >= 0")
    knobs = GeneratorKnobs.from_spec(knob_text) if sep else GeneratorKnobs()
    return seed, knobs


def _alu_model(op: str, a: int, b: int) -> int:
    sa = a - (1 << 32) if a & 0x80000000 else a
    sb = b - (1 << 32) if b & 0x80000000 else b
    sh = b & 31
    return {
        "add": a + b, "addi": a + b, "sub": a - b,
        "xor": a ^ b, "xori": a ^ b, "or": a | b, "ori": a | b,
        "and": a & b, "andi": a & b,
        "slt": int(sa < sb), "sltu": int(a < b),
        "sll": a << sh, "srl": a >> sh, "sra": sa >> sh,
    }[op] & _M32


def _random_alu_op(rng: "_GenRng", pool: List[str]) -> tuple:
    form = rng.below(4)
    rd = rng.choice(pool)
    if form == 0:
        op = rng.choice(_ALU_I)
        return ("alui", op, rd, rng.choice(pool), rng.below(4096) - 2048)
    if form == 1:
        op = rng.choice(_SHIFTS)
        return ("shift", op, rd, rng.choice(pool), rng.choice(pool))
    return ("alu", rng.choice(_ALU_R), rd, rng.choice(pool), rng.choice(pool))


def _build_ir(rng: "_GenRng", knobs: GeneratorKnobs, pool: List[str]) -> list:
    """The program skeleton as a structured, concretely-bounded op tree.

    Every loop carries a concrete trip count and every branch is a forward
    skip, so evaluation (and therefore execution) provably terminates; the
    same tree is walked twice — once by the assembly emitter and once by
    the pure-Python model.
    """
    mix = [
        (kind, weight)
        for kind, weight in (
            ("alu", knobs.alu), ("load", knobs.loads),
            ("store", knobs.stores), ("branch", knobs.branches),
            ("mul", knobs.muls),
        )
        if weight > 0
    ]

    def make_op() -> tuple:
        kind = rng.weighted(mix)
        if kind == "alu":
            return _random_alu_op(rng, pool)
        if kind == "load":
            return ("load", rng.choice(pool))
        if kind == "store":
            return ("store", rng.choice(pool), rng.below(_SCRATCH_WORDS))
        if kind == "mul":
            rd = rng.choice(pool)
            rs1 = rng.choice([reg for reg in pool if reg != rd])
            return ("mul", rd, rs1, rng.choice(pool))
        shadow = [_random_alu_op(rng, pool) for _ in range(1 + rng.below(2))]
        return ("branch", rng.choice(_BRANCHES), rng.choice(pool), shadow)

    program: list = []
    for _ in range(knobs.blocks):
        count = max(1, knobs.ops_per_block + rng.below(3) - 1)
        body = [make_op() for _ in range(count)]
        if knobs.loop_depth >= 1:
            body = [("loop", "ra", knobs.loop_iters, body)]
        program.extend(body)
    if knobs.loop_depth >= 2:
        program = [("loop", "t2", knobs.loop_iters, program)]
    return program


def _emit_ir(ops: list, knobs: GeneratorKnobs, lines: List[str], labels: List[int]) -> None:
    mask = 4 * knobs.data_words - 4
    for op in ops:
        kind = op[0]
        if kind == "alu" or kind == "alui":
            _, name, rd, rs1, operand = op
            lines.append(f"    {name} {rd}, {rs1}, {operand}")
        elif kind == "shift":
            _, name, rd, rs1, rs2 = op
            lines.append(f"    andi t0, {rs2}, 31")
            lines.append(f"    {name} {rd}, {rs1}, t0")
        elif kind == "load":
            _, rd = op
            lines.append("    la   t0, data")
            lines.append("    add  t0, t0, t1")
            lines.append(f"    lw   {rd}, 0(t0)")
            if knobs.pattern == "chase":
                lines.append(f"    slli t1, {rd}, 2")
            else:
                step = 4 if knobs.pattern == "seq" else 4 * knobs.stride
                lines.append(f"    addi t1, t1, {step}")
                lines.append(f"    andi t1, t1, {mask}")
        elif kind == "store":
            _, rs, slot = op
            lines.append("    la   t0, scratch")
            lines.append(f"    sw   {rs}, {4 * slot}(t0)")
        elif kind == "mul":
            _, rd, rs1, rs2 = op
            index = labels[0]
            labels[0] += 1
            lines.append(f"    andi t0, {rs2}, 7")
            lines.append(f"    li   {rd}, 0")
            lines.append(f"mul{index}:")
            lines.append(f"    beqz t0, mul_done{index}")
            lines.append(f"    add  {rd}, {rd}, {rs1}")
            lines.append("    addi t0, t0, -1")
            lines.append(f"    j    mul{index}")
            lines.append(f"mul_done{index}:")
        elif kind == "branch":
            _, cond, rs, shadow = op
            index = labels[0]
            labels[0] += 1
            lines.append(f"    {cond} {rs}, skip{index}")
            _emit_ir(shadow, knobs, lines, labels)
            lines.append(f"skip{index}:")
        elif kind == "loop":
            _, counter, iters, body = op
            index = labels[0]
            labels[0] += 1
            lines.append(f"    li   {counter}, {iters}")
            lines.append(f"loop{index}:")
            _emit_ir(body, knobs, lines, labels)
            lines.append(f"    addi {counter}, {counter}, -1")
            lines.append(f"    bnez {counter}, loop{index}")
        else:  # pragma: no cover - generator invariant
            raise AssertionError(f"unknown IR op {kind!r}")


def _eval_ir(
    ops: list,
    knobs: GeneratorKnobs,
    regs: Dict[str, int],
    data: List[int],
    scratch: List[int],
    state: Dict[str, int],
) -> None:
    """Pure-Python model: mirrors :func:`_emit_ir` op for op.

    ``state`` carries the data cursor (a byte offset, register ``t1``) and
    the executed-instruction upper bound (``li``/``la`` counted as two).
    """
    mask = 4 * knobs.data_words - 4
    for op in ops:
        kind = op[0]
        if kind == "alu" or kind == "shift":
            _, name, rd, rs1, rs2 = op
            operand = regs[rs2] & 31 if kind == "shift" else regs[rs2]
            regs[rd] = _alu_model(name, regs[rs1], operand)
            state["instr"] += 1 if kind == "alu" else 2
        elif kind == "alui":
            _, name, rd, rs1, imm = op
            regs[rd] = _alu_model(name, regs[rs1], imm & _M32)
            state["instr"] += 1
        elif kind == "load":
            _, rd = op
            value = data[state["cursor"] >> 2]
            regs[rd] = value
            if knobs.pattern == "chase":
                state["cursor"] = (value * 4) & mask
                state["instr"] += 4
            else:
                step = 4 if knobs.pattern == "seq" else 4 * knobs.stride
                state["cursor"] = (state["cursor"] + step) & mask
                state["instr"] += 5
        elif kind == "store":
            _, rs, slot = op
            scratch[slot] = regs[rs]
            state["instr"] += 3
        elif kind == "mul":
            _, rd, rs1, rs2 = op
            count = regs[rs2] & 7
            regs[rd] = (regs[rs1] * count) & _M32
            state["instr"] += 4 + 4 * count
        elif kind == "branch":
            _, cond, rs, shadow = op
            value = regs[rs]
            signed = value - (1 << 32) if value & 0x80000000 else value
            taken = {
                "beqz": value == 0, "bnez": value != 0,
                "bltz": signed < 0, "bgez": signed >= 0,
            }[cond]
            state["instr"] += 1
            if not taken:
                _eval_ir(shadow, knobs, regs, data, scratch, state)
        elif kind == "loop":
            _, _counter, iters, body = op
            state["instr"] += 2
            for _ in range(iters):
                _eval_ir(body, knobs, regs, data, scratch, state)
                state["instr"] += 2
        else:  # pragma: no cover - generator invariant
            raise AssertionError(f"unknown IR op {kind!r}")


def _build_random(seed: int, knobs: GeneratorKnobs) -> Workload:
    rng = _GenRng(seed)
    pool = list(_POOL[: knobs.registers])
    n = knobs.data_words
    if knobs.pattern == "chase":
        # A single full-cycle permutation: chased indices visit every slot
        # and can never escape the region.
        order = list(range(n))
        rng.shuffle(order)
        data = [0] * n
        for i in range(n):
            data[order[i]] = order[(i + 1) % n]
    else:
        data = [rng.word() for _ in range(n)]
    init = {reg: rng.word() for reg in pool}
    program_ir = _build_ir(rng, knobs, pool)

    # Model pass: compute the architectural end state (and an instruction
    # upper bound) without ever running an ISS.
    regs = dict(init)
    scratch = [0] * _SCRATCH_WORDS
    state = {"cursor": 0, "instr": 0}
    _eval_ir(program_ir, knobs, regs, data, scratch, state)

    # Emission pass over the same tree.
    lines = ["start:", "    li   sp, 0xff00", "    li   t1, 0"]
    state["instr"] += 3
    for reg, value in init.items():
        signed = value - (1 << 32) if value & 0x80000000 else value
        lines.append(f"    li   {reg}, {signed}")
        state["instr"] += 2
    _emit_ir(program_ir, knobs, lines, [0])

    # Exit block: selected registers, then every scratch slot read back —
    # all stores in the program are architecturally observable.
    stores: List[Tuple[int, int]] = []
    lines.append("    li   t0, OUT")
    state["instr"] += 2
    for index in range(knobs.outputs):
        reg = pool[index % len(pool)]
        lines.append(f"    sw   {reg}, {4 * index}(t0)")
        stores.append((4 * index, regs[reg]))
        state["instr"] += 1
    lines.append("    la   t2, scratch")
    state["instr"] += 2
    for slot in range(_SCRATCH_WORDS):
        offset = 4 * (knobs.outputs + slot)
        lines.append(f"    lw   t1, {4 * slot}(t2)")
        lines.append(f"    sw   t1, {offset}(t0)")
        stores.append((offset, scratch[slot]))
        state["instr"] += 2
    state["instr"] += 4  # j halt_ok + the epilogue's halt store

    source = (
        _PRELUDE + "\n".join(lines) + "\n    j    halt_ok\n" + _EPILOGUE
        + "\n.align 2\ndata:\n    .word "
        + ", ".join(str(value) for value in data)
        + f"\nscratch:\n    .space {4 * _SCRATCH_WORDS}\n"
    )
    return Workload(
        format_gen_spec(seed, knobs),
        source,
        _expected(stores),
        instructions=state["instr"],
    )


def make_random(
    seed: int = 0, knobs: Optional[GeneratorKnobs] = None
) -> Workload:
    """Generate the constrained-random workload for ``(seed, knobs)``."""
    return _build_random(seed, knobs or GeneratorKnobs())

