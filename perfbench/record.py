"""Record the reference answer of every workload point.

Usage (from the repository root)::

    python3 perfbench/record.py

Solves every point of every workload alone on an inline
``BatchRunner`` (the service points too: the service must answer
exactly like the in-process runner) and writes ``references.json``
next to this file: T per point, and whether every exact solve behind
it proved optimality.  Refuses to write when a solve ends by its
budget, because only a proven optimum is a unique reference.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from layers import SolveLog  # noqa: E402
from workloads import WORKLOADS, load_socs  # noqa: E402


def main() -> int:
    from repro.engine.batch import BatchRunner

    references = {}
    unproven = []
    log_dir = HERE.parent / ".perfbench_work" / "record"
    with SolveLog(log_dir) as log:
        for workload in WORKLOADS.values():
            socs = load_socs(workload.sources)
            entries = {}
            for point in workload.points:
                runner = BatchRunner(max_workers=1)
                result = runner.run([point.job(socs)])[0]
                solves = log.drain()
                proven = all(solve["optimal"] for solve in solves)
                entry = {
                    "T": result.testing_time,
                    "proven": proven,
                    "solves": len(solves),
                }
                if point.is_search:
                    entry["bound"] = result.certificate.bound
                entries[point.label] = entry
                print(workload.name, point.label, entry, flush=True)
                if not proven:
                    unproven.append(point.label)
            references[workload.name] = entries
    shutil.rmtree(log_dir, ignore_errors=True)
    try:
        log_dir.parent.rmdir()
    except OSError:
        pass  # a benchmark run still uses it
    if unproven:
        print("unproven points: " + ", ".join(unproven), file=sys.stderr)
        return 1
    (HERE / "references.json").write_text(json.dumps({
        "note": "Reference answers recorded by record.py: T of every "
                "point, each backed by exact solves that all proved "
                "optimality.",
        "workloads": references,
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
