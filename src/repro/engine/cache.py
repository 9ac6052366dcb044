"""A per-SOC cache of wrapper :class:`~repro.wrapper.pareto.TimeTable` s.

``Design_wrapper`` is the pipeline's only expensive primitive; a
:class:`~repro.wrapper.pareto.TimeTable` built at width ``W`` answers
every width ``<= W`` by O(1) lookup.  :class:`WrapperTableCache`
therefore keeps exactly one table per core, built lazily at the
largest width any consumer has requested and *extended in place*
(:meth:`~repro.wrapper.pareto.TimeTable.extend_to`) when a larger
width arrives.  Every consumer receives the same table objects, so a
width sweep over ``1..W`` costs at most one ``design_wrapper`` call
per (core, width) pair — O(W) designs per core instead of the O(W²) a
rebuild-per-width strategy pays — and none for the widths past the
core's time floor, which no wider wrapper can beat.

With a persistent backing (``store=``, a :class:`repro.service.store.
TableStore`), the first build of each table is attempted from disk —
a stored staircase wide enough costs *zero* designs, a narrower one
pays only the extension — and every build or extension is written
back, so the savings compound across processes and runs, not just
within one.

The cache is deliberately not thread-safe: within a process it is
meant to be owned by one pipeline (or one pool worker — see
:mod:`repro.engine.batch`); cross-process sharing happens by giving
each worker its own cache (optionally over one shared store, whose
writes are atomic and never narrowing).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.exceptions import ConfigurationError
from repro.obs import REGISTRY, span
from repro.soc.soc import Soc
from repro.wrapper.pareto import TimeTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.store import TableStore


class WrapperTableCache:
    """Build-once, extend-in-place time tables for one SOC.

    Parameters
    ----------
    soc:
        The SOC whose cores to tabulate.  Tables are built lazily on
        the first :meth:`tables` / :meth:`table_list` call.
    store:
        Optional persistent :class:`repro.service.store.TableStore`.
        When given, table builds try the store first and every
        build/extension is persisted back.
    """

    def __init__(self, soc: Soc, store: "Optional[TableStore]" = None) -> None:
        self.soc = soc
        self.store = store
        self._tables: Dict[str, TimeTable] = {}
        #: Width last persisted per core name, to skip no-op saves.
        self._saved: Dict[str, int] = {}

    @property
    def max_width(self) -> int:
        """Width every cached table is guaranteed to cover (0 = empty).

        The *minimum* over the per-core tables: store-backed loads can
        leave individual tables wider than ever requested (a previous
        run persisted more), and the guarantee consumers rely on is
        the width all of them answer.
        """
        if not self._tables:
            return 0
        return min(table.max_width for table in self._tables.values())

    def ensure(self, max_width: int) -> None:
        """Make every core's table cover widths up to ``max_width``."""
        if max_width < 1:
            raise ConfigurationError(
                f"max_width must be >= 1, got {max_width}"
            )
        if not self._tables:
            with span(
                "build_wrapper_tables", soc=self.soc.name, W=max_width
            ):
                for core in self.soc.cores:
                    table = (
                        self.store.load(core) if self.store else None
                    )
                    if table is None:
                        REGISTRY.counter("cache.table_builds").inc()
                        table = TimeTable(core, max_width)
                    else:
                        REGISTRY.counter("cache.table_loads").inc()
                        self._saved[core.name] = table.max_width
                        table.extend_to(max_width)
                    self._tables[core.name] = table
                self._persist()
            return
        if max_width > self.max_width:
            # Per-table no-op when already covered, so mixed widths
            # (possible after store loads) each pay only their gap.
            REGISTRY.counter("cache.table_extensions").inc()
            for table in self._tables.values():
                table.extend_to(max_width)
            self._persist()

    def _persist(self) -> None:
        """Write back any table wider than its last-saved width."""
        if self.store is None:
            return
        for name, table in self._tables.items():
            if table.max_width > self._saved.get(name, 0):
                self.store.save(table)
                self._saved[name] = table.max_width

    def tables(self, max_width: int) -> Dict[str, TimeTable]:
        """Core-name → table dict covering widths up to ``max_width``.

        The returned dict is the cache's own mapping and the tables in
        it are shared: a later call with a larger width extends these
        same objects rather than replacing them.  Drop-in compatible
        with :func:`repro.wrapper.pareto.build_time_tables` output
        (tables may cover *more* than the requested width, never
        less).
        """
        self.ensure(max_width)
        return self._tables

    def table_list(self, max_width: int) -> List[TimeTable]:
        """Tables in SOC core order, covering up to ``max_width``."""
        tables = self.tables(max_width)
        return [tables[core.name] for core in self.soc.cores]

    def table(self, core_name: str, max_width: int) -> TimeTable:
        """The named core's table, covering up to ``max_width``."""
        return self.tables(max_width)[core_name]

    def design_calls(self) -> int:
        """Total ``design_wrapper`` invocations this cache has paid for.

        The sum of the tables' own counts: widths loaded from a
        persistent store and widths past a core's time floor came for
        free — a fully warm store yields coverage with zero calls.
        """
        return sum(table.design_calls for table in self._tables.values())
