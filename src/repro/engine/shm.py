"""Dense-matrix descriptors for pool workers, and the incumbent board.

Pool workers never build wrapper tables for a grid point: the parent
builds each SOC's dense N×W time matrix once (:func:`repro.engine.
kernel.build_dense_matrix`) and ships it *by value* in the task
payload as a :class:`DenseDescriptor` — the matrix's int64 bytes (5
to 16 KB at W=64 on the ITC'02 SOCs) plus, for whole-point tasks, the
wrapper-design staircases (:func:`design_steps_blob`) the final
utilization accounting decodes instead of re-running
``Design_wrapper``.  Each worker unpacks a matrix once per SOC
fingerprint (:func:`attach`), so every later job naming it shares
the memoized columns and pick orders.

Shared memory holds one thing: the **incumbent board**
(:class:`IncumbentBoard`) — a tiny int64 array with one slot of
``keep_top`` best-times per shard of an intra-job sharded sweep
(:mod:`repro.partition.shard`) or per island of a search point.
Each shard writes only its own slot and reads only earlier shards'
slots (forward-only, which is what keeps the merged result
bit-identical to the serial sweep), so no locking is needed; a torn
read is not a correctness hazard on any platform CPython supports
shared memory on, because slot writes are single aligned 8-byte
stores.  The parent creates and unlinks each board; a task that
cannot attach one runs without it, which loosens pruning but cannot
change the outcome.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.engine.kernel import DenseTimeMatrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wrapper.pareto import TimeTable

try:  # pragma: no cover - import guard for exotic builds
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - no _posixshmem / _winapi
    _shared_memory = None  # type: ignore[assignment]


@dataclass(frozen=True)
class DenseDescriptor:
    """One SOC's dense matrix, by value, as a pool task receives it.

    ``payload`` is the matrix's native int64 bytes
    (:meth:`~repro.engine.kernel.DenseTimeMatrix.to_bytes`);
    ``fingerprint`` is the :func:`repro.soc.fingerprint.soc_fingerprint`
    of the SOC it was built for, which workers check against each
    task's SOC.  ``design_payload`` optionally carries the
    wrapper-design staircase blob (:func:`design_steps_blob`); only
    whole-point tasks need it, for the final utilization accounting.
    """

    fingerprint: str
    num_cores: int
    total_width: int
    payload: bytes
    design_payload: Optional[bytes] = None

    @classmethod
    def of(
        cls,
        fingerprint: str,
        matrix: DenseTimeMatrix,
        designs: Optional[bytes] = None,
    ) -> "DenseDescriptor":
        """A descriptor carrying ``matrix`` (and ``designs``)."""
        return cls(
            fingerprint=fingerprint,
            num_cores=matrix.num_cores,
            total_width=matrix.total_width,
            payload=matrix.to_bytes(),
            design_payload=designs,
        )


#: Worker-side cache of unpacked matrices, one entry per SOC
#: fingerprint, keyed further by shape: every job naming the same
#: matrix shares its column/pick-order memos, and a descriptor of a
#: different width supersedes the entry instead of pinning every
#: generation of a growing matrix for the worker's lifetime.
_ATTACHED: Dict[str, Tuple[Tuple[int, int], DenseTimeMatrix]] = {}


def attach(descriptor: DenseDescriptor) -> DenseTimeMatrix:
    """The descriptor's matrix, unpacked once per worker process."""
    shape = (descriptor.num_cores, descriptor.total_width)
    held = _ATTACHED.get(descriptor.fingerprint)
    if held is not None and held[0] == shape:
        return held[1]
    matrix = DenseTimeMatrix.from_buffer(
        descriptor.payload, descriptor.num_cores, descriptor.total_width
    )
    _ATTACHED[descriptor.fingerprint] = (shape, matrix)
    return matrix


def design_steps_blob(tables: "Sequence[TimeTable]") -> bytes:
    """Serialize wrapper-design staircases for pool-task payloads.

    One record per core: the Pareto breakpoints of its
    :class:`~repro.wrapper.pareto.TimeTable` with each breakpoint's
    serialized design — 47 to 176 KB per ITC'02 SOC at W=64, versus
    the per-worker ``Design_wrapper`` runs they replace.  The inverse is
    :func:`parse_design_steps`.
    """
    # Imported lazily: the serializer sits above this module.
    from repro.report.serialize import wrapper_design_to_dict

    cores = {
        table.core.name: [
            [width, wrapper_design_to_dict(design)]
            for width, _, design in table.staircase()
        ]
        for table in tables
    }
    return json.dumps(
        {"schema": 1, "kind": "design_staircases", "cores": cores},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")


def parse_design_steps(
    blob: bytes,
) -> Optional[Dict[str, List[Tuple[int, dict]]]]:
    """Decode a :func:`design_steps_blob`; ``None`` when unusable.

    Designs are an optimization, not a correctness dependency, so a
    blob from a different build (schema mismatch, truncation) degrades
    to on-demand recovery instead of failing the job.
    """
    try:
        record = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or record.get("schema") != 1 \
            or record.get("kind") != "design_staircases":
        return None
    cores = record.get("cores")
    if not isinstance(cores, dict):
        return None
    return {
        str(name): [(int(width), step) for width, step in steps]
        for name, steps in cores.items()
    }


#: Worker-side cache of parsed design staircases, one entry per SOC
#: fingerprint, keyed further by the blob it was parsed from.
_DESIGN_STEPS: Dict[str, Tuple[bytes, Optional[Dict]]] = {}


def attach_design_steps(
    descriptor: DenseDescriptor,
) -> Optional[Dict[str, List[Tuple[int, dict]]]]:
    """The descriptor's design staircases, or ``None`` when absent.

    Parsed once per worker per blob; ``None`` makes the caller
    recover designs on demand instead.
    """
    blob = descriptor.design_payload
    if blob is None:
        return None
    held = _DESIGN_STEPS.get(descriptor.fingerprint)
    if held is not None and held[0] == blob:
        return held[1]
    steps = parse_design_steps(blob)
    _DESIGN_STEPS[descriptor.fingerprint] = (blob, steps)
    return steps


@dataclass(frozen=True)
class BoardDescriptor:
    """How a pool worker finds a sharded sweep's incumbent board."""

    shm_name: str
    num_shards: int
    keep_top: int


class IncumbentBoard:
    """Cross-process incumbent slots for one sharded partition sweep.

    An int64 array of ``num_shards`` slots × ``keep_top`` entries,
    initialized to :data:`SENTINEL`.  Shard ``s`` *writes* only slot
    ``s`` (its current best times, ascending) and *reads* only slots
    ``< s`` — the forward-only broadcast the sharded sweep's
    determinism argument rests on (:mod:`repro.partition.shard`).
    Single-writer slots need no locking, and every write is one
    aligned 8-byte store.

    The parent owns the segment (:meth:`create` / :meth:`close`);
    workers :meth:`attach` by descriptor and close their mapping when
    the shard finishes.  Every failure path returns ``None`` — the
    sweep simply runs without cross-shard sharing, which cannot
    change its outcome.
    """

    SENTINEL = 1 << 62

    def __init__(self, segment: "_shared_memory.SharedMemory",
                 num_shards: int, keep_top: int,
                 owner: bool) -> None:
        self._segment = segment
        self._view = memoryview(segment.buf).cast("q")
        self.num_shards = num_shards
        self.keep_top = keep_top
        self._owner = owner

    @classmethod
    def create(
        cls, num_shards: int, keep_top: int = 1
    ) -> "Optional[IncumbentBoard]":
        """A zeroed board, or ``None`` when shared memory is absent."""
        if _shared_memory is None:
            return None
        size = num_shards * keep_top * 8
        try:
            segment = _shared_memory.SharedMemory(
                create=True, size=size
            )
        except OSError:
            return None
        board = cls(segment, num_shards, keep_top, owner=True)
        for index in range(num_shards * keep_top):
            board._view[index] = cls.SENTINEL
        return board

    def descriptor(self) -> BoardDescriptor:
        """The attach handle workers receive in their shard payload."""
        return BoardDescriptor(
            shm_name=self._segment.name,
            num_shards=self.num_shards,
            keep_top=self.keep_top,
        )

    @classmethod
    def attach(
        cls, descriptor: Optional[BoardDescriptor]
    ) -> "Optional[IncumbentBoard]":
        """The descriptor's board, or ``None`` when it cannot be had."""
        if descriptor is None or _shared_memory is None:
            return None
        try:
            segment = _attach_untracked(descriptor.shm_name)
        except (OSError, ValueError):
            return None
        expected = descriptor.num_shards * descriptor.keep_top * 8
        if segment.size < expected:  # pragma: no cover - size mismatch
            segment.close()
            return None
        return cls(
            segment, descriptor.num_shards, descriptor.keep_top,
            owner=False,
        )

    def publish(
        self, shard_index: int, times: Sequence[int]
    ) -> None:
        """Record ``shard_index``'s current kept times (ascending)."""
        base = shard_index * self.keep_top
        view = self._view
        for offset in range(self.keep_top):
            view[base + offset] = (
                times[offset] if offset < len(times) else self.SENTINEL
            )

    def earlier_times(self, shard_index: int) -> List[int]:
        """Every time published by shards before ``shard_index``."""
        sentinel = self.SENTINEL
        return [
            value
            for value in self._view[:shard_index * self.keep_top]
            if value < sentinel
        ]

    def close(self) -> None:
        """Release the mapping; the owner also unlinks the segment."""
        self._view.release()
        try:
            self._segment.close()
            if self._owner:
                self._segment.unlink()
        except OSError:  # pragma: no cover - already gone
            pass


def _attach_untracked(name: str) -> "_shared_memory.SharedMemory":
    """Attach to ``name`` without telling the resource tracker.

    Python ≤ 3.12 registers *attached* segments with the resource
    tracker too; with the pool's shared tracker that interleaves
    registrations and the creator's eventual unregister arbitrarily,
    producing spurious unlinks and tracker warnings.  Cleanup belongs
    to the creating process alone, so the registration is suppressed
    for the duration of the attach (the standard workaround for
    https://github.com/python/cpython/issues/82300; Python 3.13's
    ``track=False`` makes it official).
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - exotic build
        return _shared_memory.SharedMemory(name=name)
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original
