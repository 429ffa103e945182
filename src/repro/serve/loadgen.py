"""Open-loop load generation for the query service.

Closed-loop benchmarks (issue another query when the last returns)
cannot see overload: the offered rate politely collapses to whatever
the service sustains.  An **open-loop** generator fixes the arrival
process in advance — queries arrive on a wall-clock schedule whether
or not the service has kept up — so queueing, shedding and deadline
pressure actually happen, and the soak measures how the service
*degrades*, not just how fast it is when comfortable.

The generator is deterministic: :class:`OpenLoopGenerator` expands a
:class:`LoadSpec` into a fixed list of :class:`Arrival`\\ s (Poisson
inter-arrival gaps, query mix and priority classes all drawn from one
seeded generator), so two soaks with the same spec offer the identical
workload.  Only the *service's* timing varies between runs.

:func:`run_soak` drives the arrivals through a
:class:`~repro.serve.service.QueryService` in waves: whenever the
service is free, every arrival whose time has come is submitted as one
``run_many`` batch (with its priority class, so admission control
sheds lowest-priority-youngest under pressure).  Per-arrival latency
is completion minus *scheduled arrival* — it includes the time spent
waiting for a wave slot, which is exactly the queueing delay an
open-loop client would observe.

The soak's acceptance gate is **exactly-once accounting**: every
generated arrival must end in exactly one disposition — ``ok``,
``shed``, or a typed error — with none lost and none duplicated, no
matter how much chaos (worker kills, quarantines, degraded mode) the
run absorbed.  With ``check_solutions`` the ``ok`` dispositions are
additionally compared against a fault-free in-process reference.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.serve.service import QueryService


@dataclass(frozen=True)
class LoadSpec:
    """The deterministic recipe for one open-loop workload.

    ``rate_qps`` fixes the mean arrival rate; ``total_queries`` fixes
    the workload size (so the nominal duration is ``total / rate``).
    ``priority_classes``/``priority_weights`` describe the importance
    mix (smaller class is more important; weights need not sum to 1).
    """

    rate_qps: float = 50.0
    total_queries: int = 200
    seed: int = 0
    priority_classes: Tuple[int, ...] = (0, 1, 2)
    priority_weights: Tuple[float, ...] = (0.2, 0.3, 0.5)

    def __post_init__(self):
        if self.rate_qps <= 0:
            raise ValueError("rate_qps must be > 0")
        if self.total_queries < 1:
            raise ValueError("total_queries must be >= 1")
        if len(self.priority_classes) != len(self.priority_weights):
            raise ValueError("priority classes and weights must pair up")
        if not self.priority_classes:
            raise ValueError("need at least one priority class")


@dataclass(frozen=True)
class Arrival:
    """One scheduled query: arrives ``offset_s`` after the soak starts."""

    id: int
    offset_s: float
    program: str
    query: str
    priority: int


class OpenLoopGenerator:
    """Expands a :class:`LoadSpec` over a query mix into a fixed
    arrival schedule.

    ``mix`` is the (program, query) pairs to draw from — typically a
    PLM-corpus slice.  Everything (inter-arrival gaps, query choice,
    priority class) comes from one ``random.Random(spec.seed)``, so
    the schedule is a pure function of ``(spec, mix)``.
    """

    def __init__(self, spec: LoadSpec,
                 mix: Sequence[Tuple[str, str]]):
        if not mix:
            raise ValueError("query mix must not be empty")
        self.spec = spec
        self.mix = list(mix)

    def arrivals(self) -> List[Arrival]:
        """The full deterministic arrival schedule, in time order."""
        spec = self.spec
        rng = random.Random(spec.seed)
        schedule: List[Arrival] = []
        clock = 0.0
        for arrival_id in range(spec.total_queries):
            # Poisson process: exponential gaps at the offered rate.
            clock += rng.expovariate(spec.rate_qps)
            program, query = self.mix[rng.randrange(len(self.mix))]
            priority = rng.choices(spec.priority_classes,
                                   weights=spec.priority_weights)[0]
            schedule.append(Arrival(id=arrival_id, offset_s=clock,
                                    program=program, query=query,
                                    priority=priority))
        return schedule


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))   # ceil, >= 1
    return ordered[min(rank, len(ordered)) - 1]


class DispositionLedger:
    """Exactly-once accounting for a soak: each id (an arrival, a
    session) ends in one disposition kind; a second disposal is kept as
    a duplicate instead of overwriting the first."""

    def __init__(self):
        self.kinds: Dict[int, str] = {}
        self.duplicates: List[Tuple[int, str]] = []

    def dispose(self, ident: int, kind: str) -> bool:
        """Record ``ident``'s disposition; ``False`` if it had one."""
        if ident in self.kinds:
            self.duplicates.append((ident, kind))
            return False
        self.kinds[ident] = kind
        return True

    def exactly_once(self, expected: Iterable[int]) -> bool:
        """Whether every expected id, and nothing else, was disposed of
        exactly once."""
        return not self.duplicates and set(self.kinds) == set(expected)


@dataclass
class SoakReport:
    """What one open-loop soak observed."""

    offered: int                    # arrivals generated
    offered_qps: float              # spec rate
    elapsed_s: float                # wall time, first submit to last return
    waves: int                      # run_many batches issued
    submitted: int = 0              # arrivals actually sent to the service
    unsubmitted: int = 0            # cut off by the wall-clock budget
    budget_s: Optional[float] = None
    ok: int = 0
    shed: int = 0
    errors: Dict[str, int] = field(default_factory=dict)  # kind -> count
    accounted: int = 0              # arrivals with exactly one disposition
    accounting_ok: bool = False     # exactly-once invariant held
    solutions_ok: bool = True       # ok results matched the reference
    mismatches: List[str] = field(default_factory=list)
    sustained_qps: float = 0.0      # ok completions per elapsed second
    shed_rate: float = 0.0
    p50_latency_s: float = 0.0      # completion - scheduled arrival
    p99_latency_s: float = 0.0
    max_latency_s: float = 0.0
    health: Optional[object] = None   # final ServiceHealth snapshot


def run_soak(service: QueryService,
             arrivals: Sequence[Arrival],
             offered_qps: float,
             timeout_s: Optional[float] = None,
             retry=None,
             chaos=None,
             max_wave: Optional[int] = None,
             check_solutions: bool = False,
             budget_s: Optional[float] = None) -> SoakReport:
    """Drive ``arrivals`` through ``service`` open-loop; account for
    every one of them.

    Waves: the driver sleeps until the next scheduled arrival, then
    submits every arrival already due as one ``run_many`` batch
    (bounded by ``max_wave`` — the overflow stays queued and ages,
    which is what makes priority-aware shedding observable).  The
    arrival clock never pauses for the service: a slow wave means the
    next wave is bigger, exactly as a real open-loop client population
    behaves.

    ``budget_s`` bounds the soak by wall clock instead of by schedule
    length: once the budget elapses no further wave is submitted, and
    the cut-off arrivals are reported as ``unsubmitted`` (so a 100k+
    schedule can be offered at pressure rates while the run stays
    time-boxed).  The exactly-once accounting invariant then covers
    every *submitted* arrival — each ends in exactly one disposition;
    submitted + unsubmitted always equals offered.
    """
    reference: Dict[Tuple[str, str], List[dict]] = {}
    if check_solutions:
        distinct = sorted({(a.program, a.query) for a in arrivals})
        with QueryService(service.programs, workers=0,
                          all_solutions=service.all_solutions) \
                as reference_service:
            for program, query in distinct:
                result = reference_service.run((program, query))
                if result.ok:
                    reference[(program, query)] = result.solutions

    report = SoakReport(offered=len(arrivals), offered_qps=offered_qps,
                        elapsed_s=0.0, waves=0, budget_s=budget_s)
    ledger = DispositionLedger()
    submitted_ids: List[int] = []
    latencies: List[float] = []
    queue: List[Arrival] = sorted(arrivals, key=lambda a: a.offset_s)
    cursor = 0                       # first not-yet-submitted arrival
    start = time.monotonic()

    backlog: Deque[Arrival] = deque()
    while cursor < len(queue) or backlog:
        now = time.monotonic() - start
        if budget_s is not None and now >= budget_s:
            break
        while cursor < len(queue) and queue[cursor].offset_s <= now:
            backlog.append(queue[cursor])
            cursor += 1
        if not backlog:
            time.sleep(min(0.05, max(0.0, queue[cursor].offset_s - now)))
            continue
        if max_wave is None:
            wave = list(backlog)
            backlog.clear()
        else:
            wave = [backlog.popleft()
                    for _ in range(min(max_wave, len(backlog)))]
        report.submitted += len(wave)
        submitted_ids.extend(a.id for a in wave)
        # Re-seed the chaos per wave: a policy's plans are a pure
        # function of (seed, slot, attempt), and successive small
        # waves reuse the same low slot indices — without this every
        # wave would replay one identical plan set instead of
        # sampling the configured kill/delay rates across the soak.
        wave_chaos = (dataclasses.replace(
            chaos, seed=chaos.seed + 7_919 * (report.waves + 1))
            if chaos is not None else None)
        results = service.run_many(
            [(a.program, a.query) for a in wave],
            timeout_s=timeout_s, retry=retry, chaos=wave_chaos,
            priorities=[a.priority for a in wave])
        done = time.monotonic() - start
        report.waves += 1
        for arrival, result in zip(wave, results):
            kind = ("ok" if result.ok else "shed"
                    if result.error.kind == "Shed" else result.error.kind)
            if not ledger.dispose(arrival.id, kind):
                report.mismatches.append(
                    f"arrival {arrival.id} disposed twice")
                continue
            if result.ok:
                report.ok += 1
                latencies.append(done - arrival.offset_s)
                if check_solutions:
                    expected = reference.get(
                        (arrival.program, arrival.query))
                    if (expected is not None
                            and result.solutions != expected):
                        report.solutions_ok = False
                        report.mismatches.append(
                            f"arrival {arrival.id} "
                            f"({arrival.program!r}): solutions "
                            f"differ from fault-free reference")
            elif kind == "shed":
                report.shed += 1
            else:
                report.errors[kind] = report.errors.get(kind, 0) + 1

    report.elapsed_s = time.monotonic() - start
    report.unsubmitted = report.offered - report.submitted
    report.accounted = len(ledger.kinds)
    # Without a budget everything offered must have been submitted and
    # disposed exactly once; time-boxed, exactly-once covers what was
    # submitted (the budget cut accounts for the rest).
    report.accounting_ok = ledger.exactly_once(
        [a.id for a in arrivals] if budget_s is None else submitted_ids)
    if report.elapsed_s > 0:
        report.sustained_qps = report.ok / report.elapsed_s
    if report.submitted:
        report.shed_rate = report.shed / report.submitted
    report.p50_latency_s = percentile(latencies, 50)
    report.p99_latency_s = percentile(latencies, 99)
    report.max_latency_s = max(latencies) if latencies else 0.0
    report.health = service.health()
    return report


# -- session soak ------------------------------------------------------------

@dataclass(frozen=True)
class SessionLoadSpec:
    """The deterministic recipe for one session-mix soak.

    ``sessions`` streams run concurrently, advanced round-robin (every
    still-open session steps each round, so steps micro-batch across
    the pool).  ``abandon_rate`` of them are *abandoned* mid-stream —
    their client walks away after ``abandon_after`` 1-3 solutions
    (seeded draw), the lease lapses, and the
    :class:`~repro.serve.session.SessionReaper` must reclaim them.
    Everything is drawn from one ``random.Random(seed)``, so the same
    spec over the same mix offers the identical session workload.
    """

    sessions: int = 12
    seed: int = 0
    abandon_rate: float = 0.25
    max_rounds: int = 200             # runaway guard, not a tuning knob

    def __post_init__(self):
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if not 0.0 <= self.abandon_rate <= 1.0:
            raise ValueError("abandon_rate must be in [0, 1]")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


@dataclass
class SessionSoakReport:
    """What one session soak observed."""

    sessions: int                   # sessions opened
    rounds: int = 0                 # advance rounds driven
    solutions_streamed: int = 0
    done: int = 0                   # streams that ran to exhaustion
    expired: int = 0                # abandoned sessions reaped
    failed: int = 0                 # streams ending in a QueryError
    planned_abandons: int = 0
    migrations: int = 0             # crashed step attempts survived
    hibernation_spills: int = 0     # resume tokens spilled to disk
    hibernation_wakes: int = 0
    accounted: int = 0              # sessions with exactly one disposition
    accounting_ok: bool = False     # exactly-once + no engine leaked
    solutions_ok: bool = True       # finished streams match the reference
    mismatches: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    p50_step_latency_s: float = 0.0   # wall time per advance step
    p99_step_latency_s: float = 0.0
    health: Optional[object] = None   # final ServiceHealth snapshot


def run_session_soak(service: "SessionService",
                     spec: SessionLoadSpec,
                     mix: Sequence[Tuple[str, str]],
                     check_solutions: bool = True) -> SessionSoakReport:
    """Soak a :class:`~repro.serve.session.SessionService` with a
    concurrent session mix; account for every session exactly once.

    Each session draws its query from ``mix``; abandoned sessions have
    their lease forced to lapse (standing in for a vanished client)
    and must be reclaimed by the reaper — the soak drives
    :meth:`~repro.serve.session.SessionReaper.tick` on a synthetic
    clock so sweeps are deterministic per spec.  The acceptance gate
    mirrors :func:`run_soak`: every opened session ends in exactly one
    disposition (done / failed / expired), finished streams match the
    fault-free reference when ``check_solutions``, and no engine leaks
    — the store and the active-session gauge drain to zero.
    """
    from repro.serve.session import (DONE, EXPIRED, FAILED, SOLUTION,
                                     SessionReaper)

    rng = random.Random(spec.seed)
    draws = [mix[rng.randrange(len(mix))] for _ in range(spec.sessions)]
    abandon_after = {index: rng.randrange(1, 4)
                     for index in range(spec.sessions)
                     if rng.random() < spec.abandon_rate}

    reference: Dict[Tuple[str, str], List[dict]] = {}
    if check_solutions:
        with QueryService(service.service.programs, workers=0,
                          all_solutions=True) as reference_service:
            for program, query in sorted(set(draws)):
                result = reference_service.run((program, query))
                if result.ok:
                    reference[(program, query)] = result.solutions

    report = SessionSoakReport(sessions=spec.sessions,
                               planned_abandons=len(abandon_after))
    sweep_interval = 2.0
    reaper = SessionReaper(service, interval_s=sweep_interval,
                           jitter=0.0, seed=spec.seed,
                           clock=lambda: 0.0)
    session_ids = [service.open(name, query) for name, query in draws]
    slot_of = {sid: index for index, sid in enumerate(session_ids)}
    streams: Dict[int, List[dict]] = {i: [] for i in range(spec.sessions)}
    ledger = DispositionLedger()
    abandoned: set = set()
    step_latencies: List[float] = []
    open_ids = list(session_ids)
    start = time.monotonic()

    while open_ids and report.rounds < spec.max_rounds:
        report.rounds += 1
        # Abandonments planned for this point in each stream: force
        # the lease to lapse and stop advancing — the reaper, not the
        # driver, must reclaim the session.
        advancing = []
        for session_id in open_ids:
            slot = slot_of[session_id]
            when = abandon_after.get(slot)
            if when is not None and len(streams[slot]) >= when:
                service.expire_lease(session_id)
                abandoned.add(session_id)
            else:
                advancing.append(session_id)
        wave_started = time.monotonic()
        outcomes = service.advance(advancing) if advancing else []
        wave_seconds = time.monotonic() - wave_started
        if advancing:
            step_latencies.extend([wave_seconds / len(advancing)]
                                  * len(advancing))
        still_open = list(abandoned & set(open_ids))
        for session_id, outcome in zip(advancing, outcomes):
            slot = slot_of[session_id]
            report.migrations += max(0, outcome.attempts - 1)
            if outcome.status == SOLUTION:
                streams[slot].append(outcome.solution)
                report.solutions_streamed += 1
                still_open.append(session_id)
            elif outcome.status == DONE:
                ledger.dispose(slot, "done")
                report.done += 1
                if check_solutions:
                    expected = reference.get(draws[slot])
                    if (expected is not None
                            and (streams[slot] != expected
                                 or outcome.solutions != expected)):
                        report.solutions_ok = False
                        report.mismatches.append(
                            f"session {slot} ({draws[slot][0]!r}): "
                            f"stream differs from reference")
            elif outcome.status == FAILED:
                ledger.dispose(slot, "failed")
                report.failed += 1
            else:
                assert outcome.status == EXPIRED   # only via races
                ledger.dispose(slot, "expired")
                report.expired += 1
        # Sweep on the synthetic clock: one sweep per interval of
        # rounds, plus the reaped sessions leave the open set.
        for session_id in reaper.tick(now=report.rounds * 1.0):
            ledger.dispose(slot_of[session_id], "expired")
            report.expired += 1
        open_ids = [sid for sid in still_open
                    if slot_of[sid] not in ledger.kinds]

    # Final sweep: anything still leased-out lapsed (abandoned late).
    for session_id in reaper.tick(now=(report.rounds + sweep_interval)
                                  * 2.0):
        ledger.dispose(slot_of[session_id], "expired")
        report.expired += 1

    report.elapsed_s = time.monotonic() - start
    report.accounted = len(ledger.kinds)
    counters = service.counters
    settled = (counters["sessions_done"] + counters["sessions_failed"]
               + counters["leases_expired"] + counters["sessions_closed"])
    store = service.store
    report.hibernation_spills = store.spills
    report.hibernation_wakes = store.wakes
    report.accounting_ok = (
        ledger.exactly_once(range(spec.sessions))
        and counters["sessions_opened"] == settled
        and service.active_sessions == 0
        and len(store) == 0)
    if not report.accounting_ok:
        report.mismatches.append(
            f"accounting: {report.accounted}/{spec.sessions} disposed "
            f"({len(ledger.duplicates)} twice), "
            f"opened {counters['sessions_opened']} vs settled {settled}, "
            f"active {service.active_sessions}, store {len(store)}")
    report.p50_step_latency_s = percentile(step_latencies, 50)
    report.p99_step_latency_s = percentile(step_latencies, 99)
    report.health = service.health()
    return report
