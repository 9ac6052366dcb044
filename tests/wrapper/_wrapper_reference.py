"""Frozen reference copy of the wrapper-table build.

This is the wrapper layer as it stood before tables stopped at the
per-core time floor and cell balancing became closed-form: the
heap-based ``balance_units`` (one pop and one push per unit),
``design_wrapper`` running on it, and ``TimeTable.extend_to``'s
per-width loop, which designs every width up to the requested one.
They are the differential oracle of ``test_wrapper_oracle.py`` and of
the design-count tests: production must return the same placements,
the same designs and the same staircases, and must call
``design_wrapper`` for exactly the widths :func:`paid_widths` names.
Do not optimize this file.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.soc.core import Core
from repro.wrapper.bfd import pack_decreasing
from repro.wrapper.chain import WrapperChain, WrapperDesign
from repro.wrapper.timing import testing_time


def balance_units(
    initial_loads: Sequence[int],
    num_units: int,
    used: Optional[Sequence[bool]] = None,
) -> Tuple[List[int], int]:
    """Greedy unit balancing, one heap pop and push per unit."""
    if num_units < 0:
        raise ConfigurationError(f"num_units must be >= 0, got {num_units}")
    if not initial_loads:
        if num_units:
            raise ConfigurationError("cannot place units: no bins")
        return [], 0
    if used is None:
        used = [load > 0 for load in initial_loads]

    placements = [0] * len(initial_loads)
    # Heap entries: (load, unused_penalty, bin_index).  unused_penalty
    # orders used bins before unused ones at equal load.
    heap = [
        (load, 0 if used[index] else 1, index)
        for index, load in enumerate(initial_loads)
    ]
    heapq.heapify(heap)
    for _ in range(num_units):
        load, _, index = heapq.heappop(heap)
        placements[index] += 1
        heapq.heappush(heap, (load + 1, 0, index))

    max_load = max(
        load + placed
        for load, placed in zip(initial_loads, placements)
    )
    return placements, max_load


def design_wrapper(core: Core, width: int) -> WrapperDesign:
    """``Design_wrapper`` over the heap :func:`balance_units`."""
    scan_bins = pack_decreasing(core.scan_chain_lengths, max_bins=width)
    scan_groups: List[List[int]] = [
        [core.scan_chain_lengths[i] for i in bin_indices]
        for bin_indices in scan_bins
    ]
    while len(scan_groups) < width:
        scan_groups.append([])

    scan_loads = [sum(group) for group in scan_groups]
    has_scan = [bool(group) for group in scan_groups]

    input_placement, _ = balance_units(
        scan_loads, core.num_input_cells, used=has_scan
    )
    used_after_inputs = [
        has_scan[i] or input_placement[i] > 0
        for i in range(width)
    ]
    output_placement, _ = balance_units(
        scan_loads, core.num_output_cells, used=used_after_inputs
    )

    chains = tuple(
        WrapperChain(
            scan_chain_lengths=tuple(scan_groups[i]),
            num_input_cells=input_placement[i],
            num_output_cells=output_placement[i],
        )
        for i in range(width)
        if scan_groups[i] or input_placement[i] or output_placement[i]
    )
    return WrapperDesign(core=core, width_available=width, chains=chains)


def table_rows(
    core: Core, max_width: int
) -> Tuple[List[int], List[WrapperDesign]]:
    """The monotonized (times, designs) rows, one design per width."""
    times: List[int] = []
    designs: List[WrapperDesign] = []
    best_time = None
    best_design = None
    for width in range(1, max_width + 1):
        design = design_wrapper(core, width)
        time = design.testing_time
        if best_time is None or time < best_time:
            best_time = time
            best_design = design
        times.append(best_time)
        designs.append(best_design)  # type: ignore[arg-type]
    return times, designs


def time_floor(core: Core) -> int:
    """The width-independent floor, restated from DESIGN.md."""
    longest = max(core.scan_chain_lengths, default=0)
    inputs = core.num_inputs + core.num_bidirs
    outputs = core.num_outputs + core.num_bidirs
    return testing_time(
        core.num_patterns,
        max(longest, 1 if inputs else 0),
        max(longest, 1 if outputs else 0),
    )


def paid_widths(core: Core, start: int, stop: int) -> List[int]:
    """Widths a table holding ``1..start`` must design to reach ``stop``.

    Every width in ``start + 1 .. stop`` up to and including the first
    width whose reference staircase time equals :func:`time_floor`;
    none past it.  ``start = 0`` is a fresh build.
    """
    times, _ = table_rows(core, stop)
    floor = time_floor(core)
    reached = next(
        (
            width
            for width, time in enumerate(times, start=1)
            if time == floor
        ),
        stop,
    )
    return list(range(start + 1, min(reached, stop) + 1))
