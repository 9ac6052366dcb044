"""Property-based tests for the wrapper-design layer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.core import Core
from repro.wrapper.bfd import balance_units, pack_decreasing
from repro.wrapper.design import design_wrapper
from repro.wrapper.pareto import TimeTable, time_floor

@st.composite
def cores_strategy(draw):
    """Valid cores only: ensure at least one terminal or scan chain."""
    chains = tuple(draw(st.lists(
        st.integers(min_value=1, max_value=100), max_size=12
    )))
    min_inputs = 0 if chains else 1
    return Core(
        name="prop",
        num_patterns=draw(st.integers(min_value=1, max_value=300)),
        num_inputs=draw(st.integers(min_value=min_inputs, max_value=80)),
        num_outputs=draw(st.integers(min_value=0, max_value=80)),
        num_bidirs=draw(st.integers(min_value=0, max_value=10)),
        scan_chain_lengths=chains,
    )


cores = cores_strategy()


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class TestBfdProperties:
    @given(
        weights=st.lists(st.integers(min_value=1, max_value=50),
                         max_size=15),
        max_bins=st.integers(min_value=1, max_value=8),
    )
    def test_pack_places_every_item_once(self, weights, max_bins):
        bins = pack_decreasing(weights, max_bins)
        placed = sorted(index for bin_ in bins for index in bin_)
        assert placed == list(range(len(weights)))
        assert len(bins) <= max_bins

    @given(
        weights=st.lists(st.integers(min_value=1, max_value=50),
                         min_size=1, max_size=15),
        max_bins=st.integers(min_value=1, max_value=8),
    )
    def test_pack_within_capacity_when_bins_suffice(self, weights, max_bins):
        # With as many bins as items, no bin ever exceeds the soft
        # capacity (= max weight).
        bins = pack_decreasing(weights, max_bins=len(weights))
        capacity = max(weights)
        for bin_ in bins:
            assert sum(weights[i] for i in bin_) <= capacity

    @given(
        loads=st.lists(st.integers(min_value=0, max_value=40),
                       min_size=1, max_size=8),
        units=st.integers(min_value=0, max_value=60),
    )
    def test_balance_units_optimal(self, loads, units):
        placements, max_load = balance_units(loads, units)
        assert sum(placements) == units
        assert all(placed >= 0 for placed in placements)
        # Water-filling optimum: the smallest cap >= max(loads) whose
        # total headroom fits all units.  Greedy must achieve it.
        cap = max(loads)
        while sum(max(0, cap - load) for load in loads) < units:
            cap += 1
        assert max_load == cap


class TestDesignWrapperProperties:
    @settings(max_examples=60, deadline=None)
    @given(core=cores, width=st.integers(min_value=1, max_value=24))
    def test_design_is_conserving_and_within_width(self, core, width):
        design = design_wrapper(core, width)
        # Construction runs WrapperDesign validation (conservation);
        # additionally the used width never exceeds the offer.
        assert design.used_width <= width
        assert design.testing_time >= core.num_patterns

    @settings(max_examples=40, deadline=None)
    @given(core=cores)
    def test_time_table_monotone(self, core):
        table = TimeTable(core, max_width=16)
        times = [table.time(w) for w in range(1, 17)]
        assert all(a >= b for a, b in zip(times, times[1:]))

    @settings(max_examples=40, deadline=None)
    @given(core=cores, width=st.integers(min_value=1, max_value=16))
    def test_table_never_above_raw_design(self, core, width):
        table = TimeTable(core, max_width=16)
        assert table.time(width) <= design_wrapper(core, width).testing_time

    @settings(max_examples=60, deadline=None)
    @given(core=cores, width=st.integers(min_value=1, max_value=48))
    def test_no_design_beats_the_time_floor(self, core, width):
        # TimeTable stops designing once its staircase reaches the
        # floor; that is only sound if no width ever goes below it.
        assert time_floor(core) <= design_wrapper(core, width).testing_time

    @settings(max_examples=40, deadline=None)
    @given(core=cores, width=st.integers(min_value=1, max_value=12))
    def test_simulator_agrees_with_formula(self, core, width):
        # The cycle-accurate shift simulation must reproduce the
        # analytical model T = (1+max(si,so))p + min(si,so) exactly,
        # for any core at any width.
        from repro.wrapper.simulate import simulate_wrapper_test
        design = design_wrapper(core, width)
        result = simulate_wrapper_test(design)
        assert result.total_cycles == design.testing_time

    @settings(max_examples=40, deadline=None)
    @given(core=cores, width=st.integers(min_value=1, max_value=16))
    def test_payload_lower_bound(self, core, width):
        # The payload cannot be spread over more than `width` wrapper
        # chains, so si >= ceil(payload_in / width) (and likewise for
        # scan-out); T >= (1 + that) * p.
        table = TimeTable(core, max_width=16)
        min_shift = max(
            ceil_div(core.total_scan_cells + core.num_input_cells, width),
            ceil_div(core.total_scan_cells + core.num_output_cells, width),
        )
        assert table.time(width) >= (1 + min_shift) * core.num_patterns - \
            core.num_patterns * 0  # readable floor
