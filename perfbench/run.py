"""The repository benchmark: one command, every metric by name and unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact_grid --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` is the timed run: cold-start probes for ``setup_s``,
then the workload's fixed unit of work on its 2-worker system,
repeated ``round(seconds / unit_seconds)`` times (at least once), and
the end-to-end metrics.  ``--trace 1`` is the traced run: the same
workload inline (``max_workers=1``; the service in-process on a
thread) once untraced and once with every layer call wrapped, then
once more on the 2-worker system for the engine counters, and the
per-layer metrics.  Every answer of every pass is checked against
``references.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

See ``README.md`` next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import signal
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from layers import (
    Recorder,
    SolveLog,
    covered_seconds,
    layer_metrics,
)
from speed import SpeedProbe
from workloads import (
    WARMUP,
    WORKERS,
    WORKLOADS,
    Server,
    load_socs,
    request_point,
    server_env,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Cold starts per timed run; ``setup_s`` is their median.
SETUP_PROBES = 3

#: Seconds the benchmark's leftover descendants get to end by
#: themselves before they are killed.
REAP_TIMEOUT_S = 30.0

#: ``prctl`` option that makes orphaned descendants this process's
#: children (Linux).
PR_SET_CHILD_SUBREAPER = 36

#: Failed checks listed in full before the rest are only counted.
MAX_PROBLEMS_SHOWN = 20

#: Units of the end-to-end metrics (``--trace 0``).
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p95_s": "s",
    "hit_p50_s": "s",
    "proven_frac": "ratio",
    "cert_gap_mean": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "headroom")):
        return "ratio"
    return "count"


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``share`` of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


def adopt_orphans() -> None:
    """Become the parent of every descendant whose parent ends first.

    A subprocess's own helpers (the ``multiprocessing`` resource
    tracker of a cold-start probe or of ``repro-tam serve``) outlive
    it by a moment; as this process's children they are waited for by
    :func:`end_children` instead of lingering after the run.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init as usual


def _children() -> List[int]:
    """Process ids whose parent is this process."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def end_children() -> None:
    """Stop this process's helpers and wait until every child ended.

    The ``multiprocessing`` resource tracker lives until its pipe is
    closed, so it is stopped (and waited for) first; every other child
    gets :data:`REAP_TIMEOUT_S` to end by itself, then is killed.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # ended meanwhile
        time.sleep(0.01)


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def load_references() -> Dict[str, Dict[str, Dict[str, Any]]]:
    path = HERE / "references.json"
    return json.loads(path.read_text(encoding="utf-8"))["workloads"]


def answer_problems(
    workload: str, answers: Sequence[Any],
    references: Dict[str, Dict[str, Dict[str, Any]]],
) -> List[str]:
    """One line per answer that failed, was refused, or is wrong.

    Exact answers must equal the recorded (proven) T; a search answer
    must be no worse than its reference and carry a sound bound.
    """
    expected = references[workload]
    problems = []
    for answer in answers:
        reference = expected.get(answer.label)
        if answer.error is not None:
            problems.append(f"{answer.label}: failed: {answer.error}")
        elif reference is None:
            problems.append(f"{answer.label}: no reference answer")
        elif answer.search:
            if answer.testing_time > reference["T"]:
                problems.append(
                    f"{answer.label}: T={answer.testing_time} worse "
                    f"than reference {reference['T']}"
                )
            if answer.bound is None or answer.bound > answer.testing_time:
                problems.append(
                    f"{answer.label}: unsound certificate bound "
                    f"{answer.bound} > T={answer.testing_time}"
                )
        elif answer.testing_time != reference["T"]:
            problems.append(
                f"{answer.label}: T={answer.testing_time}, reference "
                f"{reference['T']}"
            )
    return problems


def solve_problems(solves: Sequence[Dict[str, Any]]) -> List[str]:
    """One line per exact or polish solve that stopped by a budget."""
    return [
        f"exact solve stopped by its budget after {solve['seconds']:.2f}"
        f" s / {solve['nodes']} nodes (time limit {solve['time_limit']}"
        f" s): T={solve['T']} is unproven"
        for solve in solves if not solve["optimal"]
    ]


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def probe_runner(workload_name: str) -> int:
    """Cold start of a runner workload, in a fresh interpreter.

    Imports, SOC load, pool start, and the first successful response;
    prints ``ready`` at that moment, then shuts down.
    """
    from repro.engine.batch import BatchRunner

    workload = WORKLOADS[workload_name]
    load_socs(workload.sources)
    with BatchRunner(max_workers=WORKERS, persistent=True) as runner:
        runner.run([WARMUP.job(load_socs([WARMUP.soc]))])
        print("ready", flush=True)
    return 0


def cold_start(workload: Any, work_dir: Path) -> Tuple[float, float]:
    """(start, ready) times of a cold start of the workload's system."""
    start = time.monotonic()
    if workload.kind == "service":
        server = Server(
            WORKERS, work_dir / f"probe-{time.monotonic_ns()}",
            in_process=False, env=server_env(None),
        )
        try:
            with server.client() as client:
                answer, _ = request_point(client, WARMUP)
                ready = time.monotonic()
        finally:
            server.stop()
        if answer.error is not None:
            raise RuntimeError(f"warm-up request failed: {answer.error}")
        return start, ready
    proc = subprocess.Popen(
        [
            sys.executable, str(Path(__file__)), "--workload",
            workload.name, "--setup-probe",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    ready = time.monotonic()
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
        raise RuntimeError(f"cold-start probe of {workload.name} failed")
    return start, ready


def timed_run(
    workload: Any, seed: int, seconds: float, work_dir: Path,
) -> Tuple[Dict[str, float], int, List[str], List[str]]:
    """The end-to-end metrics of ``workload`` (tracing off).

    Every time is divided by the host slowdown factor that the
    :class:`~speed.SpeedProbe` measured over the window it was taken
    in — a pass, a request, a cold start (see ``speed.py``); the raw
    times are printed beside them.
    """
    references = load_references()
    reps = max(1, round(seconds / workload.unit_seconds))
    passes = []
    solves: List[Dict[str, Any]] = []
    with SpeedProbe() as speed:
        setups = [
            cold_start(workload, work_dir) for _ in range(SETUP_PROBES)
        ]
        with SolveLog(work_dir / "solves") as log:
            for _ in range(reps):
                passes.append(workload.run(
                    seed, WORKERS, work_dir, in_process=False,
                    env=server_env(log.directory), on_ready=log.drain,
                ))
                solves += log.drain()
    answers = [answer for run in passes for answer in run.answers]
    problems = answer_problems(workload.name, answers, references)
    problems += solve_problems(solves)
    factors = [speed.factor(*run.window) for run in passes]
    latencies, hits = [], []
    for run in passes:
        for sent, answered, hit in run.requests:
            latency = (answered - sent) / speed.factor(sent, answered)
            (hits if hit else latencies).append(latency)
    setup_factors = [speed.factor(start, ready) for start, ready in setups]
    job_p50 = statistics.median(latencies)
    gaps = [answer.gap for answer in answers if answer.gap is not None]
    attempted = len(answers) + len(solves)
    metrics = {
        "wall_s": statistics.median(
            run.wall / factor for run, factor in zip(passes, factors)
        ),
        "setup_s": statistics.median(
            (ready - start) / factor
            for (start, ready), factor in zip(setups, setup_factors)
        ),
        "job_p50_s": job_p50,
        "job_p95_s": percentile(latencies, 0.95),
        "hit_p50_s": statistics.median(hits) if hits else job_p50,
        "proven_frac": (
            sum(1 for solve in solves if solve["optimal"]) / len(solves)
            if solves else 0.0
        ),
        "cert_gap_mean": statistics.fmean(gaps) if gaps else 0.0,
        "success_rate": 1.0 - len(problems) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"passes: {reps}; raw wall (s): "
        + ", ".join(f"{run.wall:.3f}" for run in passes)
        + "; host slowdown: "
        + ", ".join(f"{factor:.3f}" for factor in factors),
        "raw setup (s): " + ", ".join(
            f"{ready - start:.3f}" for start, ready in setups
        ) + "; host slowdown: " + ", ".join(
            f"{factor:.3f}" for factor in setup_factors
        ),
        f"requests: {len(latencies) + len(hits)} ({len(hits)} memo hits)",
        f"exact solves: {len(solves)}",
        f"job_p95_s sample count: {len(latencies)}",
        f"error_rate: {len(problems) / attempted:.6f}",
    ]
    return metrics, attempted, problems, notes


def _fresh_overheads(run: Any, spans: Sequence[Any]) -> List[float]:
    """Per fresh request: latency minus its point's engine time."""
    engine = [span for span in spans if span.layer == "engine"]
    return [
        (end - start) - covered_seconds(engine, start, end)
        for start, end, cached in run.requests if not cached
    ]


def traced_run(
    workload: Any, seed: int, work_dir: Path,
) -> Tuple[Dict[str, float], int, List[str], List[str]]:
    """The per-layer metrics of ``workload`` (inline, traced)."""
    references = load_references()
    log = SolveLog(work_dir / "solves")
    recorder = Recorder()
    with SpeedProbe() as speed:
        with log:
            inline = workload.run(
                seed, 1, work_dir, in_process=True, on_ready=log.drain
            )
            solves = log.drain()
        with recorder:
            traced = workload.run(
                seed, 1, work_dir, in_process=True, on_ready=recorder.clear
            )
        with log:
            pooled = workload.run(
                seed, WORKERS, work_dir, in_process=False,
                env=server_env(log.directory), on_ready=log.drain,
            )
            solves += log.drain()
    spans = recorder.spans
    traced_solves = [
        {"optimal": span.counts["optimal"], "seconds": span.seconds,
         "nodes": span.counts["nodes"],
         "time_limit": span.counts["time_limit"], "T": "-"}
        for span in spans if span.name == "exact_assign"
    ]
    answers = inline.answers + traced.answers + pooled.answers
    problems = answer_problems(workload.name, answers, references)
    problems += solve_problems(solves + traced_solves)
    attempted = len(answers) + len(solves) + len(traced_solves)

    metrics = layer_metrics(spans)
    start, end = traced.window
    # Ratios across passes compare times at the reference host speed.
    inline_factor, traced_factor, pooled_factor = (
        speed.factor(*run.window) for run in (inline, traced, pooled)
    )
    overheads = (
        _fresh_overheads(traced, spans) if workload.kind == "service" else []
    )
    metrics.update({
        "engine.busy_frac": (
            metrics["engine.run_s"] / traced_factor
            / (WORKERS * pooled.wall / pooled_factor)
        ),
        "engine.jobs_sharded": pooled.counters["jobs_sharded"],
        "engine.pools_started": pooled.counters["pools_started"],
        "engine.shm_fallbacks": pooled.counters["shm_fallbacks"],
        "service.overhead_s": (
            statistics.median(overheads) if overheads else 0.0
        ),
        "service.memo_hit_frac": (
            sum(hit for _, _, hit in traced.requests) / len(traced.requests)
            if workload.kind == "service" else 0.0
        ),
        "trace.overhead_frac": (
            traced.wall / traced_factor / (inline.wall / inline_factor) - 1.0
        ),
        "trace.unattributed_frac": (
            1.0 - covered_seconds(spans, start, end) / traced.wall
        ),
    })
    notes = [
        f"inline wall (s): untraced {inline.wall:.3f}, traced "
        f"{traced.wall:.3f}; {WORKERS}-worker wall {pooled.wall:.3f}",
        f"spans recorded: {len(spans)}",
        f"exact solves: {len(traced_solves)} traced, {len(solves)} "
        f"untraced",
    ]
    return metrics, attempted, problems, notes


def main(argv: Optional[Sequence[str]] = None) -> int:
    adopt_orphans()
    try:
        return _main(argv)
    finally:
        end_children()


def _main(argv: Optional[Sequence[str]]) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)}", file=sys.stderr,
        )
        return 2
    if args.setup_probe:
        return probe_runner(args.workload)

    workload = WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench_work" / f"{workload.name}-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, problems, notes = traced_run(
                workload, args.seed, work_dir
            )
            units = {name: _layer_unit(name) for name in metrics}
        else:
            metrics, attempted, problems, notes = timed_run(
                workload, args.seed, args.seconds, work_dir
            )
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload: {workload.name} (seed {args.seed}, trace "
          f"{args.trace}): {workload.why}")
    for note in notes:
        print(f"  {note}")
    for problem in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"  FAILED {problem}")
    if len(problems) > MAX_PROBLEMS_SHOWN:
        print(f"  ... and {len(problems) - MAX_PROBLEMS_SHOWN} more")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
