"""Best-Fit-Decreasing primitives used by ``Design_wrapper``.

Two building blocks:

* :func:`pack_decreasing` — pack weighted items (internal scan chains)
  into at most ``max_bins`` bins using the BFD rule with a soft
  capacity: items are placed into the *fullest* bin they fit in
  without exceeding the capacity; a new bin is opened only when no
  existing bin fits (the algorithm's built-in "reluctance to create a
  new wrapper scan chain"); once ``max_bins`` bins exist, overflow
  items go to the currently least-loaded bin.

* :func:`balance_units` — distribute indivisible unit items (wrapper
  I/O cells) over bins with given initial loads, minimizing the
  maximum load; ties prefer bins that are already in use, again to
  avoid consuming extra TAM wires.

Both are deterministic: ties beyond the documented rules break toward
the lowest bin index.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError


def pack_decreasing(
    weights: Sequence[int],
    max_bins: int,
    capacity: Optional[int] = None,
) -> List[List[int]]:
    """Pack ``weights`` into at most ``max_bins`` bins (BFD).

    Parameters
    ----------
    weights:
        Item weights (scan-chain lengths).  Processed in decreasing
        order regardless of input order.
    max_bins:
        Hard upper limit on the number of bins (the TAM width).
    capacity:
        Soft capacity.  Defaults to the largest weight — the natural
        lower bound on the makespan of the packing, which is what
        ``Design_wrapper`` uses: no wrapper chain needs to be longer
        than the longest internal scan chain unless width runs out.

    Returns
    -------
    list of bins, each a list of the *indices* into ``weights`` it
    contains (so callers can recover which scan chain went where).
    Bins are never empty.
    """
    if max_bins < 1:
        raise ConfigurationError(f"max_bins must be >= 1, got {max_bins}")
    if not weights:
        return []
    for weight in weights:
        if weight < 0:
            raise ConfigurationError(f"negative weight {weight}")
    if capacity is None:
        capacity = max(weights)

    order = sorted(range(len(weights)), key=lambda i: weights[i],
                   reverse=True)
    bin_items: List[List[int]] = []
    bin_loads: List[int] = []

    for index in order:
        weight = weights[index]
        # Best fit: fullest bin whose load stays within capacity.
        best_bin = -1
        best_load = -1
        for bin_index, load in enumerate(bin_loads):
            if load + weight <= capacity and load > best_load:
                best_bin = bin_index
                best_load = load
        if best_bin < 0:
            if len(bin_items) < max_bins:
                bin_items.append([index])
                bin_loads.append(weight)
                continue
            # All bins exist and none fits: least-loaded bin absorbs it.
            best_bin = min(range(len(bin_loads)), key=bin_loads.__getitem__)
        bin_items[best_bin].append(index)
        bin_loads[best_bin] += weight

    return bin_items


def balance_units(
    initial_loads: Sequence[int],
    num_units: int,
    used: Optional[Sequence[bool]] = None,
) -> Tuple[List[int], int]:
    """Distribute ``num_units`` unit items over bins, minimizing max load.

    Parameters
    ----------
    initial_loads:
        Current load of each available bin (e.g. scan cells already on
        each candidate wrapper chain).  The number of entries is the
        number of bins available (the TAM width).
    num_units:
        How many unit items (wrapper cells) to place.
    used:
        Optional per-bin flag marking bins that already consume a TAM
        wire.  Ties on load prefer used bins, so unused wires are only
        claimed when that strictly helps balance.

    Returns
    -------
    (placements, max_load): ``placements[i]`` is the number of units
    given to bin ``i``; ``max_load`` the resulting maximum total load.

    Greedily placing unit items on the currently least-loaded bin is
    exactly optimal for unit weights, so this is not a heuristic.  It
    is computed in closed form by water-filling, which places exactly
    what that greedy places, ties included: every bin below a level
    ``L`` is raised to ``L`` (the highest level the units can reach),
    and the ``r`` units left over go one each to the bins at ``L``,
    in-use bins first, then by index.  A bin counts as in use once it
    has received a unit, as it does in the greedy.
    """
    if num_units < 0:
        raise ConfigurationError(f"num_units must be >= 0, got {num_units}")
    if not initial_loads:
        if num_units:
            raise ConfigurationError("cannot place units: no bins")
        return [], 0
    if used is None:
        used = [load > 0 for load in initial_loads]

    # The lowest ``count`` bins share the water; ``count`` grows while
    # raising them to the next bin's load costs no more than the units.
    ordered = sorted(initial_loads)
    count = 1
    water = ordered[0]
    for load in ordered[1:]:
        if count * load - water > num_units:
            break
        count += 1
        water += load
    level, left = divmod(num_units + water, count)
    placements = [
        level - load if load < level else 0 for load in initial_loads
    ]
    if left:
        at_level = sorted(
            (
                0 if placements[index] or used[index] else 1,
                index,
            )
            for index, load in enumerate(initial_loads)
            if load <= level
        )
        for _, index in at_level[:left]:
            placements[index] += 1
    max_load = max(level + (1 if left else 0), ordered[-1])
    return placements, max_load
