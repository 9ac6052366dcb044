"""Per-core testing time as a function of TAM width.

``Design_wrapper`` run at width ``w`` is free to ignore wires, so the
*effective* testing time of a core on a width-``w`` bus is the best
design over all widths up to ``w``:

    T*(w) = min_{w' <= w} T(Design_wrapper(core, w')).

:class:`TimeTable` precomputes this monotonized staircase once per
core (the paper's Line 6 of ``Core_assign`` does the equivalent), so
the assignment and partition layers evaluate T(i, w) by O(1) lookup.
It also exposes the Pareto breakpoints — the widths at which the
staircase actually drops — which downstream search can use to skip
redundant widths.  Once the staircase reaches the core's
:func:`time_floor`, which no width can beat, the rest of the table is
filled without running ``Design_wrapper`` again.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.soc.core import Core
from repro.soc.soc import Soc
from repro.wrapper.chain import WrapperDesign
from repro.wrapper.design import design_wrapper
from repro.wrapper.timing import testing_time


class TimeTable:
    """Monotonized width→(time, design) table for one core.

    Parameters
    ----------
    core:
        The core to tabulate.
    max_width:
        Largest TAM width the table must answer for (the SOC's total
        TAM width W is always sufficient).
    """

    def __init__(self, core: Core, max_width: int) -> None:
        if max_width < 1:
            raise ConfigurationError(
                f"max_width must be >= 1, got {max_width}"
            )
        self.core = core
        self.max_width = 0
        #: ``design_wrapper`` calls this table has made (0 for a table
        #: rebuilt by :meth:`from_staircase` until it is extended).
        self.design_calls = 0
        self._times: List[int] = []
        self._designs: List[WrapperDesign] = []
        self.extend_to(max_width)

    def extend_to(self, max_width: int) -> None:
        """Grow the table in place to cover widths up to ``max_width``.

        Runs ``Design_wrapper`` only for the widths not yet tabulated,
        and only until the staircase reaches :func:`time_floor`: no
        wider wrapper can beat the floor, and the running minimum
        keeps its incumbent unless strictly beaten, so every later
        width gets the incumbent's time and design object without a
        call.  A table extended from ``w1`` to ``w2`` therefore costs
        at most ``w2 - w1`` designs and is identical to a table built
        fresh at ``w2``.  A no-op when the table already covers
        ``max_width``.
        """
        if max_width <= self.max_width:
            return
        # The stored staircase is the running minimum, so the last
        # entry carries the monotonization state to resume from.
        best_time = self._times[-1] if self._times else None
        best_design = self._designs[-1] if self._designs else None
        floor = time_floor(self.core)
        width = self.max_width + 1
        while width <= max_width and (
            best_time is None or best_time > floor
        ):
            design = design_wrapper(self.core, width)
            self.design_calls += 1
            time = design.testing_time
            if best_time is None or time < best_time:
                best_time = time
                best_design = design
            self._times.append(best_time)
            self._designs.append(best_design)  # type: ignore[arg-type]
            width += 1
        rest = max_width + 1 - width
        self._times.extend([best_time] * rest)  # type: ignore[list-item]
        self._designs.extend([best_design] * rest)  # type: ignore[list-item]
        self.max_width = max_width

    def time(self, width: int) -> int:
        """Best testing time of the core on a bus of ``width`` wires."""
        self._check_width(width)
        return self._times[width - 1]

    def dense_row(self, max_width: int) -> List[int]:
        """The monotone time staircase as a flat width-indexed list.

        ``row[w - 1]`` is :meth:`time` at width ``w`` for ``1 <= w <=
        max_width`` — the per-core row of the dense N×W sweep matrix
        built by :func:`repro.engine.kernel.build_dense_matrix`.  One
        bulk slice instead of ``max_width`` bounds-checked lookups,
        which is what makes the sweep kernel's matrix assembly cheap.
        """
        self._check_width(max_width)
        return self._times[:max_width]

    def design(self, width: int) -> WrapperDesign:
        """The wrapper design achieving :meth:`time` at ``width``."""
        self._check_width(width)
        return self._designs[width - 1]

    def _check_width(self, width: int) -> None:
        if not 1 <= width <= self.max_width:
            raise ConfigurationError(
                f"width {width} outside table range 1..{self.max_width}"
            )

    @property
    def min_time(self) -> int:
        """Testing time at the full table width (the table's best)."""
        return self._times[-1]

    @property
    def saturation_width(self) -> int:
        """Smallest width achieving the core's minimum testing time.

        Beyond this width additional wires cannot speed the core up —
        the mechanism behind the paper's p31108 observation that SOC
        testing time stops improving once the bottleneck core's bus
        reaches a threshold width.
        """
        return self.staircase()[-1][0]

    def pareto_points(self) -> List[Tuple[int, int]]:
        """(width, time) pairs where the staircase strictly drops."""
        return [(width, time) for width, time, _ in self.staircase()]

    def staircase(self) -> List[Tuple[int, int, WrapperDesign]]:
        """(width, time, design) at each Pareto breakpoint.

        Between breakpoints the stored time *and* design are exactly
        the previous breakpoint's (the running-minimum construction in
        :meth:`extend_to` keeps the incumbent design until a strictly
        better one appears), so this list plus ``max_width`` is a
        lossless, Pareto-compressed encoding of the whole table —
        the on-disk format of :class:`repro.service.store.TableStore`.
        """
        steps: List[Tuple[int, int, WrapperDesign]] = []
        previous: int | None = None
        for width in range(1, self.max_width + 1):
            time = self._times[width - 1]
            if previous is None or time < previous:
                steps.append((width, time, self._designs[width - 1]))
                previous = time
        return steps

    @classmethod
    def from_staircase(
        cls,
        core: Core,
        max_width: int,
        steps: Sequence[Tuple[int, int, WrapperDesign]],
    ) -> "TimeTable":
        """Rebuild a table from its Pareto staircase, design-free.

        The inverse of :meth:`staircase`: expands the breakpoints back
        into the dense per-width arrays without a single
        ``design_wrapper`` call, producing a table bit-identical to
        one built fresh at ``max_width`` (and extendable past it —
        :meth:`extend_to` resumes from the last entry as usual).
        Raises :class:`~repro.exceptions.ConfigurationError` when the
        steps are not a valid staircase for ``max_width``.
        """
        if max_width < 1:
            raise ConfigurationError(
                f"max_width must be >= 1, got {max_width}"
            )
        steps = list(steps)
        if not steps or steps[0][0] != 1:
            raise ConfigurationError(
                "staircase must start at width 1"
            )
        widths = [width for width, _, _ in steps]
        times = [time for _, time, _ in steps]
        if widths != sorted(set(widths)) or widths[-1] > max_width:
            raise ConfigurationError(
                f"staircase widths {widths} not strictly increasing "
                f"within 1..{max_width}"
            )
        if times != sorted(set(times), reverse=True):
            raise ConfigurationError(
                f"staircase times {times} not strictly decreasing"
            )
        table = cls.__new__(cls)
        table.core = core
        table.max_width = max_width
        table.design_calls = 0
        table._times = []
        table._designs = []
        step = -1
        for width in range(1, max_width + 1):
            if step + 1 < len(steps) and steps[step + 1][0] == width:
                step += 1
            table._times.append(steps[step][1])
            table._designs.append(steps[step][2])
        return table


def time_floor(core: Core) -> int:
    """A testing time no wrapper for ``core`` can beat, at any width.

    Every design puts the longest internal scan chain ``L`` on one
    wrapper chain, so ``si >= L`` and ``so >= L``; a core with input
    (output) cells puts at least one on some chain, so ``si >= 1``
    (``so >= 1``).  :func:`~repro.wrapper.timing.testing_time` is
    non-decreasing in both lengths, hence bounded below by its value
    at these minima.  See DESIGN.md, "Wrapper tables".
    """
    longest = core.longest_scan_chain
    return testing_time(
        core.num_patterns,
        max(longest, 1 if core.num_input_cells else 0),
        max(longest, 1 if core.num_output_cells else 0),
    )


def build_time_tables(
    soc: Soc, max_width: int
) -> Dict[str, TimeTable]:
    """Build a :class:`TimeTable` for every core of ``soc``.

    Returns a dict keyed by core name; iteration order of
    ``soc.cores`` is preserved by the dict.
    """
    return {
        core.name: TimeTable(core, max_width)
        for core in soc.cores
    }


def times_matrix(
    tables: Sequence[TimeTable], widths: Sequence[int]
) -> List[List[int]]:
    """T[i][j]: time of core ``i`` on bus ``j`` of ``widths[j]`` wires."""
    return [
        [table.time(width) for width in widths]
        for table in tables
    ]
