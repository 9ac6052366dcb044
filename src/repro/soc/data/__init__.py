"""Benchmark SOCs used in the paper's evaluation (Section 4).

* :mod:`~repro.soc.data.d695` — the academic Duke benchmark, built
  from published ISCAS'85/89 circuit statistics;
* :mod:`~repro.soc.data.p21241`, :mod:`~repro.soc.data.p31108`,
  :mod:`~repro.soc.data.p93791` — deterministic stand-ins for the
  Philips SOCs, synthesized from the per-class data ranges the paper
  publishes (Tables 4, 8 and 14) and calibrated to the complexity
  number in each SOC's name.  See DESIGN.md §4 for the substitution
  rationale.

Use :func:`get_benchmark` / :func:`benchmark_names` for programmatic
access; every module also exposes a ``build()`` function.
:func:`get_benchmark` builds each SOC once per process and hands out
that same frozen :class:`~repro.soc.soc.Soc` from then on (DESIGN.md
§14); call a module's ``build()`` for a fresh copy.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.soc.soc import Soc
from repro.soc.data import d695, p21241, p31108, p93791

_REGISTRY: Dict[str, Callable[[], Soc]] = {
    "d695": d695.build,
    "p21241": p21241.build,
    "p31108": p31108.build,
    "p93791": p93791.build,
}

# name -> the SOC built on first request.  A Soc is a frozen dataclass
# over tuples of frozen Cores, so every caller can share one instance.
_BUILT: Dict[str, Soc] = {}


def benchmark_names() -> List[str]:
    """Names of all embedded benchmark SOCs."""
    return sorted(_REGISTRY)


def get_benchmark(name: str) -> Soc:
    """The named benchmark SOC, built on the first call for that name.

    Later calls return the same object.  Raises ``KeyError`` with the
    list of valid names when unknown.
    """
    soc = _BUILT.get(name)
    if soc is not None:
        return soc
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {benchmark_names()}"
        ) from None
    # Two threads racing on a first build both build; the first stored
    # copy wins, and the copies are equal anyway.
    return _BUILT.setdefault(name, factory())


__all__ = ["benchmark_names", "get_benchmark",
           "d695", "p21241", "p31108", "p93791"]
