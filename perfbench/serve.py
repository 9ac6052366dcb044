"""Run ``repro-tam serve`` with the benchmark's exact-solve log.

Usage: ``python3 perfbench/serve.py serve [repro-tam serve options]``
with ``src`` on ``PYTHONPATH``.  When ``PERFBENCH_SOLVE_LOG`` names a
directory, every ``exact_assign`` the server (or its forked pool
workers) runs is logged there, so the benchmark can fail a solve that
ended by its budget instead of proving optimality.
"""

import sys

from layers import install_from_env

if __name__ == "__main__":
    install_from_env()
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
