"""The output check: every operation against the seed interpreter.

The reference for a (program, query) pair is the seed loop
(``Machine(fast_path=False)``, no predecode, no superops) linked
outside the image cache, computed once per distinct pair and never
inside a timed region.  An operation passes when its solutions and its
simulated :class:`~repro.core.statistics.RunStats` equal the
reference's exactly; cycles are the paper's metric, so a single cycle
of drift is a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api import run_query
from repro.core.machine import Machine


@dataclass(frozen=True)
class Reference:
    solutions: List[dict]
    stats: object                   # RunStats


class Oracle:
    """Seed-loop references, memoized per (program, query, all_solutions)."""

    def __init__(self):
        self._refs: Dict[Tuple[str, str, bool], Reference] = {}

    def reference(self, source: str, query: str,
                  all_solutions: bool) -> Reference:
        key = (source, query, all_solutions)
        ref = self._refs.get(key)
        if ref is None:
            result = run_query(source, query, all_solutions=all_solutions,
                               machine=Machine(fast_path=False))
            ref = Reference(list(result.solutions), result.stats)
            self._refs[key] = ref
        return ref

    def __len__(self) -> int:
        return len(self._refs)


@dataclass
class Observation:
    """What one operation produced, kept for checking after timing."""

    program: str                    # corpus name, for reports
    source: str
    query: str
    all_solutions: bool
    solutions: List[dict]
    stats: object
    #: answers handed out one at a time before the final result; they
    #: must equal the reference's answers in order: all of them, or the
    #: first ``stream_limit`` when that is set.
    streamed: Optional[List[dict]] = None
    stream_limit: Optional[int] = None


def check(oracle: Oracle, obs: Observation) -> Optional[str]:
    """``None`` when ``obs`` matches the seed-loop reference, else a
    description of the difference."""
    ref = oracle.reference(obs.source, obs.query, obs.all_solutions)
    problem = mismatch(ref, obs.solutions, obs.stats)
    if problem is None and obs.streamed is not None:
        expected = ref.solutions[:obs.stream_limit]
        if obs.streamed != expected:
            problem = (f"streamed {len(obs.streamed)} answers, expected "
                       f"{len(expected)} equal to the reference's")
    if problem is None:
        return None
    return f"{obs.program} {obs.query!r}: {problem}"


def mismatch(ref: Reference, solutions, stats) -> Optional[str]:
    """``None`` when the observation equals the reference, else a short
    description of the first difference."""
    if stats is None:
        return "no statistics"
    if list(solutions) != ref.solutions:
        return (f"solutions differ: {len(solutions)} observed, "
                f"{len(ref.solutions)} expected")
    if stats != ref.stats:
        fields = [name for name in vars(ref.stats)
                  if getattr(stats, name, None) != getattr(ref.stats, name)]
        return "RunStats differ in " + ", ".join(fields or ["type"])
    return None
