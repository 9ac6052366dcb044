"""The four benchmark workloads and the passes that drive them.

Every workload is a fixed unit of work sent through a real user path
of the repository:

* ``exact_grid`` — one P_NPAW grid on a 2-worker ``BatchRunner``;
* ``sweep_points`` — five single-point requests on one persistent
  2-worker ``BatchRunner`` (jobs scarcer than workers, so the shard
  policy and the shared-memory transport run);
* ``service_mix`` — a closed loop of cheap single-point P_PAW requests
  to a ``repro-tam serve`` process, half of them memo hits;
* ``search_anytime`` — one ``mode="search"`` job on a 2-worker
  ``BatchRunner``.

Points whose answers still depend on the wall clock are kept out (see
:data:`EXCLUDED`).  A pass returns what the run checks and measures:
its wall time, per-request latencies, and every answer.

``repro`` is imported inside the functions: ``run.py`` puts ``src/``
on the path only after checking that it exists.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from layers import SOLVE_LOG_ENV

HERE = Path(__file__).resolve().parent

#: Pool size of every pooled system (the benchmark host has 2 CPUs).
WORKERS = 2

#: Points deliberately left out of every workload, with the reason.
EXCLUDED = {
    "p93791 W=32 B=auto": "the exact polish needs ~29.5 s of its 30 s "
                          "time guard, so the answer depends on load",
    "p93791 W=40 B=auto": "the exact polish ends by its budget "
                          "(unproven), so the answer is not unique",
    "p21241 W=8 B=auto": "T changes with exact_time_limit (5/10/30 s "
                         "give three different answers)",
}

Counts = Union[int, Tuple[int, ...], None]


@dataclass(frozen=True)
class Point:
    """One (SOC, W, B) question with its options."""

    soc: str
    width: int
    tams: Counts = None
    options: Tuple[Tuple[str, Any], ...] = ()

    @property
    def label(self) -> str:
        if self.tams is None:
            counts = "auto"
        elif isinstance(self.tams, int):
            counts = str(self.tams)
        else:
            counts = ",".join(map(str, self.tams))
        mode = dict(self.options).get("mode", "exact")
        suffix = "" if mode == "exact" else f" {mode}"
        return f"{self.soc} W={self.width} B={counts}{suffix}"

    @property
    def is_search(self) -> bool:
        return dict(self.options).get("mode") == "search"

    def job(self, socs: Dict[str, Any]) -> Any:
        from repro.engine.batch import BatchJob

        return BatchJob(
            soc=socs[self.soc], total_width=self.width,
            num_tams=self.tams, options=self.options,
        )


#: The request every system answers before it counts as ready (its
#: first successful response); cheap, and outside every workload.
WARMUP = Point("d695", 8, 1)

EXACT_GRID = (
    Point("p93791", 16), Point("p93791", 24), Point("p93791", 48),
    Point("p21241", 24), Point("p21241", 40),
)

SWEEP_POINTS = (
    Point("d695", 64), Point("p31108", 64), Point("p21241", 64),
    Point("p93791", 64), Point("p93791", 56),
)

SEARCH_POINT = Point(
    "p93791", 32, (1, 2, 3),
    options=(
        ("eval_budget", 40000), ("mode", "search"),
        ("search_strategy", "sa"), ("seed", 7), ("time_budget", 60.0),
    ),
)

#: (soc, B, widths) groups of the service mix: 200 distinct points,
#: every exact solve behind them proves optimality in well under a
#: second (p21241 W=8 is left out, see :data:`EXCLUDED`).
SERVICE_GROUPS = (
    ("d695", 2, tuple(range(8, 58))),
    ("d695", 3, tuple(range(8, 58))),
    ("p31108", 2, tuple(range(8, 48))),
    ("p31108", 3, tuple(range(8, 48))),
    ("p21241", 2, (9, 11, 12, 13, 16, 21, 22, 26, 27, 28, 29, 30, 31,
                   32, 33, 34, 36, 37, 38, 41)),
)

SERVICE_POINTS = tuple(
    Point(soc, width, tams)
    for soc, tams, widths in SERVICE_GROUPS
    for width in widths
)


def service_sequence(seed: int) -> List[Point]:
    """The closed-loop request order.

    Each point is sent once fresh and once more later (a memo hit).
    The seed shuffles the fresh order and, at every step, picks
    between the next fresh point and a repeat of one already answered.
    """
    rng = random.Random(seed)
    fresh = list(SERVICE_POINTS)
    rng.shuffle(fresh)
    pending: List[Point] = []
    sequence: List[Point] = []
    while fresh or pending:
        if fresh and (not pending or rng.random() < 0.5):
            point = fresh.pop()
            pending.append(point)
        else:
            point = pending.pop(rng.randrange(len(pending)))
        sequence.append(point)
    return sequence


@dataclass
class Answer:
    """One answered point: what it returned."""

    label: str
    testing_time: Optional[int]
    gap: Optional[float] = None
    bound: Optional[int] = None
    error: Optional[str] = None
    search: bool = False


@dataclass
class PassResult:
    """What one pass over a workload measured.

    ``requests`` holds (sent, answered, memo hit) per answered point:
    for a runner grid, ``sent`` is the moment the whole grid was sent.
    """

    wall: float
    answers: List[Answer] = field(default_factory=list)
    requests: List[Tuple[float, float, bool]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    window: Tuple[float, float] = (0.0, 0.0)


def _answer(point: Point, result: Any) -> Answer:
    from repro.engine.batch import FailedPoint

    if isinstance(result, FailedPoint):
        return Answer(point.label, None, error=result.describe())
    return Answer(
        point.label, result.testing_time,
        gap=result.certificate.gap, bound=result.certificate.bound,
        search=point.is_search,
    )


def load_socs(names: Sequence[str]) -> Dict[str, Any]:
    from repro.soc.loader import load_source

    return {name: load_source(name) for name in names}


# ----------------------------------------------------------------------
# Runner workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunnerWorkload:
    """Requests (each a list of points) sent to one BatchRunner."""

    name: str
    why: str
    requests: Tuple[Tuple[Point, ...], ...]
    #: Seconds one pass takes on the 2-CPU benchmark host; a timed
    #: run repeats the pass ``round(seconds / unit_seconds)`` times.
    unit_seconds: float
    #: Whether the seed may reorder the requests (independent ones
    #: only; a single grid keeps the paper's point order).
    reorder: bool = False
    kind: str = "runner"

    @property
    def points(self) -> Tuple[Point, ...]:
        return tuple(point for request in self.requests for point in request)

    @property
    def sources(self) -> Tuple[str, ...]:
        return tuple(sorted({point.soc for point in self.points}))

    def ordered(self, seed: int) -> List[Tuple[Point, ...]]:
        requests = list(self.requests)
        if self.reorder:
            random.Random(seed).shuffle(requests)
        return requests

    def run(
        self, seed: int, workers: int, work_dir: Path,
        in_process: bool = True, env: Optional[Dict[str, str]] = None,
        on_ready: Callable[[], Any] = lambda: None,
    ) -> PassResult:
        """Set up a fresh runner, then time the requests on it.

        The runner always lives in this process (``in_process`` and
        ``env`` only matter to the service workload); ``workers=1``
        runs every job inline.  ``on_ready`` is called once the
        warm-up request is answered.
        """
        from repro.engine.batch import BatchRunner

        # on_error="record": a failing point comes back as a
        # FailedPoint, which counts as a failed operation instead of
        # ending the run.
        with BatchRunner(
            max_workers=workers, persistent=True, on_error="record"
        ) as runner:
            runner.run([WARMUP.job(load_socs([WARMUP.soc]))])
            on_ready()
            socs = load_socs(self.sources)
            outcome = PassResult(wall=0.0)
            start = time.monotonic()
            for request in self.ordered(seed):
                sent = time.monotonic()
                jobs = [point.job(socs) for point in request]
                for point, result in zip(request, runner.run_iter(jobs)):
                    outcome.requests.append((sent, time.monotonic(), False))
                    outcome.answers.append(_answer(point, result))
            end = time.monotonic()
            outcome.wall = end - start
            outcome.window = (start, end)
            outcome.counters = {
                "jobs_sharded": runner.jobs_sharded,
                "pools_started": runner.pools_started,
                "shm_fallbacks": runner.shm_fallbacks,
            }
        return outcome


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------


class Server:
    """A ``repro-tam serve`` subprocess or an in-process server."""

    def __init__(
        self, workers: int, cache_dir: Path, in_process: bool,
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        self.proc: Optional[subprocess.Popen[bytes]] = None
        self.ipc: Any = None
        if in_process:
            from repro.service import ExplorationServer, IPCServer

            exploration = ExplorationServer(
                max_workers=workers, cache_dir=cache_dir
            )
            self.ipc = IPCServer(exploration).start()
            self.address = self.ipc.address
            return
        port_file = cache_dir.with_suffix(".port")
        log = open(cache_dir.with_suffix(".log"), "wb")
        try:
            self.proc = subprocess.Popen(
                [
                    sys.executable, str(HERE / "serve.py"), "serve",
                    "--host", "127.0.0.1", "--port", "0",
                    "--jobs", str(workers), "--cache-dir", str(cache_dir),
                    "--port-file", str(port_file),
                ],
                stdout=log, stderr=subprocess.STDOUT,
                env=env,
            )
        finally:
            log.close()
        deadline = time.monotonic() + 60.0
        while not port_file.exists() or not port_file.read_text().strip():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    "repro-tam serve did not start; see "
                    f"{cache_dir.with_suffix('.log')}"
                )
            time.sleep(0.005)
        self.address = ("127.0.0.1", int(port_file.read_text()))

    def client(self) -> Any:
        from repro.service import ServiceClient

        return ServiceClient(*self.address, timeout=120.0)

    def stop(self) -> None:
        if self.ipc is not None:
            self.ipc.stop()
            self.ipc = None
        if self.proc is None:
            return
        if self.proc.poll() is None:
            from repro.exceptions import ServiceError

            try:
                with self.client() as client:
                    client.shutdown()
            except ServiceError:
                pass  # already going down; the wait below decides
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30.0)
        self.proc = None


def request_point(client: Any, point: Point) -> Tuple[Answer, bool]:
    """One closed-loop request: submit, wait, fetch the result."""
    job = client.submit([point.soc], [point.width], num_tams=point.tams)
    status = client.wait(job)
    payload = client.result(job)
    cached = bool(status.get("cached"))
    if status.get("status") != "done" or payload.get("failures"):
        error = payload.get("failures") or status.get("error") or status
        return Answer(point.label, None, error=str(error)), cached
    record = payload["points"][0]
    return Answer(
        point.label, int(record["testing_time"]),
        gap=float(record["gap"]), bound=int(record["bound"]),
    ), cached


@dataclass(frozen=True)
class ServiceWorkload:
    """A closed-loop client against a fresh ``repro-tam serve``."""

    name: str
    why: str
    unit_seconds: float
    kind: str = "service"

    @property
    def points(self) -> Tuple[Point, ...]:
        return SERVICE_POINTS

    @property
    def sources(self) -> Tuple[str, ...]:
        return tuple(sorted({point.soc for point in SERVICE_POINTS}))

    def run(
        self, seed: int, workers: int, work_dir: Path,
        in_process: bool = False, env: Optional[Dict[str, str]] = None,
        on_ready: Callable[[], Any] = lambda: None,
    ) -> PassResult:
        """Start a server on a fresh cache dir, then time the loop.

        The server is a ``repro-tam serve`` subprocess started with
        ``env``, or with ``in_process`` an ``ExplorationServer`` plus
        ``IPCServer`` on a thread of this process.
        """
        from repro.exceptions import ServiceRejectionError

        cache_dir = work_dir / f"cache-{time.monotonic_ns()}"
        server = Server(workers, cache_dir, in_process, env=env)
        try:
            with server.client() as client:
                request_point(client, WARMUP)
                on_ready()
                outcome = PassResult(wall=0.0)
                start = time.monotonic()
                for point in service_sequence(seed):
                    sent = time.monotonic()
                    try:
                        answer, cached = request_point(client, point)
                    except ServiceRejectionError as error:
                        answer = Answer(point.label, None, error=str(error))
                        cached = False
                    outcome.requests.append((sent, time.monotonic(), cached))
                    outcome.answers.append(answer)
                end = time.monotonic()
                outcome.wall = end - start
                outcome.window = (start, end)
                info = client.ping()
                outcome.counters = {
                    key: int(info[key]) for key in (
                        "jobs_sharded", "pools_started", "shm_fallbacks",
                    )
                }
        finally:
            server.stop()
        return outcome


WORKLOADS: Dict[str, Union[RunnerWorkload, ServiceWorkload]] = {
    workload.name: workload for workload in (
        RunnerWorkload(
            "exact_grid",
            "exact branch-and-bound dominates every point; 5 jobs on 2 "
            "workers show the runner's load balance",
            (EXACT_GRID,),
            unit_seconds=14.0,
        ),
        RunnerWorkload(
            "sweep_points",
            "partition sweep and wrapper tables dominate; single-point "
            "requests make the runner shard over shared memory",
            tuple((point,) for point in SWEEP_POINTS),
            unit_seconds=10.0,
            reorder=True,
        ),
        ServiceWorkload(
            "service_mix",
            "cheap requests to repro-tam serve, half memo hits, so IPC, "
            "journal, store and memo dominate",
            unit_seconds=9.0,
        ),
        RunnerWorkload(
            "search_anytime",
            "the only workload running repro.search: SA islands fanned "
            "over the pool, then pooled exact polishes",
            ((SEARCH_POINT,),),
            unit_seconds=10.0,
        ),
    )
}


def server_env(solve_dir: Optional[Path]) -> Dict[str, str]:
    """Environment for a ``serve.py`` subprocess."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    env.pop(SOLVE_LOG_ENV, None)
    if solve_dir is not None:
        env[SOLVE_LOG_ENV] = str(solve_dir)
    return env
