"""Sampling plans for statistical fault-injection campaigns.

The paper injects into every wire at 4 % of execution cycles, equally spaced
("the injection points were chosen to be equally spaced out throughout the
whole program execution").  This repo additionally samples *wires* uniformly
(seeded) to keep campaigns laptop-sized; both estimators are unbiased for
the (wire, cycle) mean that DelayAVF is.

Two guarantees matter for downstream statistics:

- :func:`sample_cycles` returns **exactly** ``min(count, usable)`` distinct
  cycles.  The naive "round each equally spaced position" construction can
  collapse neighbouring positions into one cycle (set dedup), silently
  shrinking the sample a confidence interval divides by; here colliding
  positions are de-collided into adjacent free cycles instead.
- Both samplers are deterministic functions of their arguments, so two
  processes planning the same campaign produce the same plan (warm
  re-runs from the record cache and CI parity depend on it).

The ``extend_*`` helpers grow an existing sample *monotonically* — new draws
never overlap old ones — which is what lets adaptive-precision refinement
(:meth:`repro.core.campaign.DelayAVFEngine.run_structure_adaptive`) add
samples without ever re-simulating an already-covered (wire, cycle) pair.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, TypeVar

T = TypeVar("T")


def sample_cycles(
    total_cycles: int,
    count: Optional[int] = None,
    fraction: Optional[float] = None,
    warmup: int = 2,
) -> List[int]:
    """Equally spaced injection cycles across the program's execution.

    Exactly one of *count* / *fraction* must be given.  *warmup* skips the
    first cycles (reset ramp-in, before the first instruction issues).

    Returns exactly ``min(count, total_cycles - warmup)`` distinct cycles in
    ``[warmup, total_cycles)``: ideal equally spaced positions that happen to
    round onto the same cycle are pushed to the nearest free neighbour rather
    than silently dropped, so the achieved sample size — the ``n`` every
    confidence interval divides by — always matches the plan.
    """
    if (count is None) == (fraction is None):
        raise ValueError("specify exactly one of count= or fraction=")
    usable = total_cycles - warmup
    if usable <= 0:
        return []
    if count is None:
        count = max(1, round(usable * fraction))
    count = min(count, usable)
    step = usable / count
    targets = [warmup + int(i * step + step / 2) for i in range(count)]
    # De-collide forward: each cycle is at least one past its predecessor.
    cycles: List[int] = []
    last = warmup - 1
    for target in targets:
        last = max(target, last + 1)
        cycles.append(last)
    # The forward pass can run past the end; reflect the overflow back into
    # the free cycles below (count <= usable guarantees room).
    limit = total_cycles - 1
    for i in range(len(cycles) - 1, -1, -1):
        if cycles[i] > limit:
            cycles[i] = limit
        limit = cycles[i] - 1
    return cycles


def extend_cycle_sample(
    total_cycles: int,
    existing: Sequence[int],
    extra: int,
    warmup: int = 2,
) -> List[int]:
    """Up to *extra* new cycles spread across the execution, disjoint from
    *existing*.

    Used by adaptive refinement to densify the cycle sample: candidates come
    from the denser equally spaced grid, with any shortfall (grid positions
    already taken) filled by the first free cycles.  Deterministic, and the
    union with *existing* stays duplicate-free by construction.
    """
    usable = total_cycles - warmup
    taken: Set[int] = set(existing)
    extra = min(extra, max(0, usable - len(taken)))
    if extra <= 0:
        return []
    new: List[int] = []
    dense = sample_cycles(
        total_cycles, count=min(len(taken) + extra, usable), warmup=warmup
    )
    for cycle in dense:
        if cycle not in taken:
            taken.add(cycle)
            new.append(cycle)
            if len(new) == extra:
                return sorted(new)
    for cycle in range(warmup, total_cycles):
        if cycle not in taken:
            taken.add(cycle)
            new.append(cycle)
            if len(new) == extra:
                break
    return sorted(new)


def sample_wires(wires: Sequence[T], count: Optional[int], seed: int) -> List[T]:
    """Uniform seeded sample of *count* wires (all wires if count is None)."""
    if count is None or count >= len(wires):
        return list(wires)
    rng = random.Random(seed)
    return rng.sample(list(wires), count)


def extend_index_sample(
    population: int,
    existing: Sequence[int],
    extra: int,
    seed_material: str,
) -> List[int]:
    """Up to *extra* uniformly drawn indices from ``range(population)`` that
    avoid *existing*.

    *seed_material* is any stable string (structure, base seed, refinement
    round); two processes extending the same sample draw the same indices.
    """
    taken = set(existing)
    remaining = [index for index in range(population) if index not in taken]
    extra = min(extra, len(remaining))
    if extra <= 0:
        return []
    rng = random.Random(seed_material)
    return rng.sample(remaining, extra)
