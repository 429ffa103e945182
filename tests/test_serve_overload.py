"""Overload-hardened serving (ISSUE 6): cooperative deadline
abandonment inside the engines, poison-query quarantine, crash-loop
supervision with degraded-mode fallback, priority-aware shedding, and
the lifecycle hardening of ``close()``.

The acceptance gates: a repeatedly worker-killing query is converted
to a typed ``poisoned`` error while its batchmates return bit-identical
to the fault-free reference; a collapsed worker pool degrades to the
in-process fallback with correct results and ``degraded=True`` in
:class:`~repro.serve.ServiceHealth`."""

import time

import pytest

from repro.serve import (
    POISONED, ChaosPolicy, QuarantineBreaker, QuarantinePolicy,
    QueryService, RetryPolicy, SupervisorPolicy, WorkerSupervisor,
)
from repro.serve.overload import DeadlineAbandoned

FACTS = "colour(red). colour(green). colour(blue)."
LOOP = "loop :- loop."
APPEND = ("append([], L, L). "
          "append([H|T], L, [H|R]) :- append(T, L, R).")
NREV = (APPEND +
        " nrev([], []). "
        "nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R). "
        "mklist(0, []). "
        "mklist(N, [N|T]) :- N > 0, M is N - 1, mklist(M, T). "
        "run(N, R) :- mklist(N, L), nrev(L, R).")

PROGRAMS = {"facts": FACTS, "loop": LOOP, "nrev": NREV}


# -- deadline propagation ----------------------------------------------------

def test_deadline_abandonment_spares_the_worker():
    """A per-query wall budget expiring mid-run is abandoned
    *cooperatively inside the engine*: the worker reports a typed
    WallTimeout and stays alive — no kill, no respawn, warm pool
    intact."""
    with QueryService(PROGRAMS, workers=1) as service:
        assert service.run(("facts", "colour(C)")).ok    # worker is up
        pid = service._processes[0].pid
        result = service.run(("loop", "loop"), timeout_s=0.6)
        health = service.health()
        assert not result.ok
        assert result.error.kind == "WallTimeout"
        assert result.error.transient
        assert result.error.cycles > 0       # the abandonment boundary
        assert health.deadline_abandons == 1
        assert health.timeouts == 1
        assert health.crashes == 0 and health.respawns == 0
        # Same process, still serving.
        assert service._processes[0].pid == pid
        assert service._processes[0].is_alive()
        assert service.run(("facts", "colour(C)")).ok


def test_in_process_deadline_abandonment():
    """The same cooperative stop check works on the workers=0 path —
    the seed service could not time out in-process at all."""
    with QueryService(PROGRAMS, workers=0) as service:
        started = time.monotonic()
        result = service.run(("loop", "loop"), timeout_s=0.4)
        elapsed = time.monotonic() - started
        health = service.health()
    assert result.error.kind == "WallTimeout"
    assert result.error.transient
    assert elapsed < 5.0
    assert health.deadline_abandons == 1 and health.timeouts == 1


def test_batch_deadline_propagates_to_the_worker():
    """A batch deadline tighter than the per-query budget travels into
    the worker and expires as DeadlineExceeded — self-reported, so no
    worker is killed for it."""
    with QueryService(PROGRAMS, workers=1) as service:
        results = service.run_many([("loop", "loop")], deadline_s=0.5)
        health = service.health()
        assert results[0].error.kind == "DeadlineExceeded"
        assert results[0].error.transient
        assert health.crashes == 0, "worker self-reported; no kill needed"
        assert health.deadline_abandons == 1
        assert service._processes[0].is_alive()


def test_deadline_abandoned_exception_shape():
    err = DeadlineAbandoned("WallTimeout", 50_000)
    assert err.kind == "WallTimeout"
    assert err.cycles == 50_000
    assert "50000" in str(err)
    # The kind is not baked into the message: QueryError.__str__
    # prepends it, and "WallTimeout: WallTimeout: ..." would be noise.
    assert "WallTimeout" not in str(err)


# -- poison-query quarantine -------------------------------------------------

def test_quarantine_policy_validation():
    with pytest.raises(ValueError):
        QuarantinePolicy(threshold=0)
    with pytest.raises(ValueError):
        QuarantinePolicy(cooldown_s=-1.0)


def test_breaker_opens_at_threshold_and_ignores_non_strikes():
    breaker = QuarantineBreaker(QuarantinePolicy(threshold=2))
    assert not breaker.record("k", "WorkerCrashed")
    assert not breaker.quarantined("k")
    assert breaker.strikes("k") == 1
    # Permanent machine failures are not strikes: the query is wrong,
    # not poisonous.
    assert not breaker.record("k", "CycleLimitExceeded")
    assert breaker.strikes("k") == 1
    assert breaker.record("k", "WallTimeout")    # strike 2: opens
    assert breaker.quarantined("k")
    assert breaker.open_keys == frozenset({"k"})
    assert not breaker.quarantined("other")
    breaker.reset("k")
    assert not breaker.quarantined("k")
    assert breaker.strikes("k") == 0


def test_breaker_cooldown_half_opens():
    breaker = QuarantineBreaker(
        QuarantinePolicy(threshold=2, cooldown_s=10.0))
    breaker.record("k", "WorkerCrashed", now=0.0)
    breaker.record("k", "WorkerCrashed", now=1.0)
    assert breaker.quarantined("k", now=5.0)
    # Cooldown elapsed: half-open — strikes forgotten, one probe runs.
    assert not breaker.quarantined("k", now=11.0)
    assert breaker.strikes("k") == 0
    # Fresh failures walk back to the threshold and re-open.
    breaker.record("k", "WorkerCrashed", now=12.0)
    assert not breaker.quarantined("k", now=12.0)
    breaker.record("k", "WorkerCrashed", now=13.0)
    assert breaker.quarantined("k", now=14.0)


def test_breaker_half_open_recloses_after_clean_probe():
    """Half-open -> re-close: once the cooldown half-opens the breaker,
    a clean probe (no fresh strike) leaves it closed for good — the
    next failure starts a fresh walk to the threshold rather than
    snapping the breaker back open."""
    breaker = QuarantineBreaker(
        QuarantinePolicy(threshold=3, cooldown_s=10.0))
    for moment in (0.0, 1.0, 2.0):
        breaker.record("k", "WorkerCrashed", now=moment)
    assert breaker.quarantined("k", now=5.0)
    assert not breaker.quarantined("k", now=12.0)     # half-open
    # The probe attempt succeeded: nothing recorded.  Closed state is
    # stable — later checks stay closed and the strike slate is clean.
    assert not breaker.quarantined("k", now=60.0)
    assert breaker.strikes("k") == 0
    assert breaker.open_keys == frozenset()
    # One fresh failure is a first strike again, not a re-open.
    assert not breaker.record("k", "WorkerCrashed", now=61.0)
    assert not breaker.quarantined("k", now=61.0)
    assert breaker.strikes("k") == 1


def test_breaker_half_open_reopens_at_threshold_repeatedly():
    """Half-open -> re-open: after the cooldown, threshold fresh
    strikes re-open the breaker — and the half-open/re-open cycle
    repeats on every later cooldown expiry."""
    breaker = QuarantineBreaker(
        QuarantinePolicy(threshold=2, cooldown_s=10.0))
    breaker.record("k", "WorkerCrashed", now=0.0)
    opened = breaker.record("k", "WallTimeout", now=1.0)
    assert opened and breaker.quarantined("k", now=2.0)
    assert not breaker.quarantined("k", now=11.5)     # half-open #1
    breaker.record("k", "WorkerCrashed", now=12.0)
    assert not breaker.quarantined("k", now=12.0)     # one strike short
    assert breaker.record("k", "WorkerCrashed", now=13.0)
    assert breaker.quarantined("k", now=14.0)         # re-opened
    assert breaker.open_keys == frozenset({"k"})
    assert not breaker.quarantined("k", now=23.5)     # half-open #2
    breaker.record("k", "WorkerCrashed", now=24.0)
    breaker.record("k", "WorkerCrashed", now=25.0)
    assert breaker.quarantined("k", now=25.0)         # re-opened again


def test_poison_query_quarantined_batchmates_bit_identical():
    """The ISSUE 6 acceptance gate: one query that murders every
    worker it touches is struck out after ``threshold`` kills and
    failed with kind="poisoned"; its batchmates complete bit-identical
    to the fault-free reference, and the crash count is bounded by the
    threshold — the poison query cannot starve the batch."""
    batch = [
        ("nrev", "run(20, R)"),              # the poison slot
        ("facts", "colour(C)"),
        ("nrev", "run(10, R)"),
        ("facts", "colour(C)"),
    ]
    with QueryService(PROGRAMS, workers=0) as reference_service:
        reference = reference_service.run_many(batch)
    # kill_slots pins every kill to slot 0; its batchmates run clean.
    chaos = ChaosPolicy(seed=3, kill_rate=1.0, kill_window=(500, 2_000),
                        max_kills_per_slot=10, kill_slots=(0,))
    with QueryService(PROGRAMS, workers=2,
                      quarantine=QuarantinePolicy(threshold=2)) as service:
        results = service.run_many(
            batch, chaos=chaos,
            retry=RetryPolicy(max_attempts=6, base_delay_s=0.01))
        health = service.health()

        assert results[0].error is not None
        assert results[0].error.kind == POISONED
        assert "quarantined" in results[0].error.message
        assert results[0].error.attempts == 2    # struck out, not retried on
        for want, got in zip(reference[1:], results[1:]):
            assert got.ok, got.error
            assert got.solutions == want.solutions
            assert got.stats == want.stats
        assert health.crashes == 2, "strikes bounded by the threshold"
        assert health.retries == 1               # one retry, then struck out
        assert health.quarantines == 1
        assert health.quarantined_keys == 1

        # Resubmitting the poison query is rejected without dispatch.
        again = service.run(("nrev", "run(20, R)"))
        assert again.error.kind == POISONED
        assert again.error.attempts == 0
        assert service.health().quarantines == 2
        assert service.health().crashes == 2     # no worker paid for it


# -- crash-loop supervision --------------------------------------------------

def test_supervisor_policy_backoff_monotone_and_capped():
    policy = SupervisorPolicy(backoff_base_s=0.05, backoff_multiplier=2.0,
                              backoff_max_s=0.4)
    delays = [policy.backoff_s(n) for n in range(1, 10)]
    assert delays[0] == pytest.approx(0.05)
    assert all(a <= b for a, b in zip(delays, delays[1:]))
    assert all(d <= 0.4 for d in delays)
    assert delays[-1] == pytest.approx(0.4)
    with pytest.raises(ValueError):
        SupervisorPolicy(backoff_multiplier=0.5)
    with pytest.raises(ValueError):
        SupervisorPolicy(max_respawns=-1)


def test_worker_supervisor_budget_and_retirement():
    supervisor = WorkerSupervisor(SupervisorPolicy(
        max_respawns=2, backoff_base_s=0.1, backoff_multiplier=2.0,
        backoff_max_s=1.0))
    assert supervisor.on_death(0) == pytest.approx(0.1)
    assert supervisor.on_death(0) == pytest.approx(0.2)
    assert supervisor.on_death(0) is None        # budget spent: retired
    assert supervisor.retired(0)
    assert supervisor.on_death(0) is None        # stays retired
    assert supervisor.respawns(0) == 2
    assert not supervisor.retired(1)             # budgets are per slot
    assert supervisor.on_death(1) == pytest.approx(0.1)
    assert supervisor.retired_count == 1


def test_pool_collapse_degrades_to_local_fallback():
    """The second ISSUE 6 acceptance gate: chaos kills every attempt,
    the supervisor retires the only worker immediately, and the
    service degrades to the in-process fallback — remaining work is
    served correctly and the degraded state is visible in health."""
    batch = [
        ("nrev", "run(20, R)"),
        ("facts", "colour(C)"),
        ("nrev", "run(10, R)"),
    ]
    with QueryService(PROGRAMS, workers=0) as reference_service:
        reference = reference_service.run_many(batch)
    chaos = ChaosPolicy(seed=7, kill_rate=1.0, kill_window=(500, 2_000),
                        max_kills_per_slot=10)
    with QueryService(PROGRAMS, workers=1,
                      supervisor=SupervisorPolicy(max_respawns=0)) as service:
        results = service.run_many(
            batch, chaos=chaos,
            retry=RetryPolicy(max_attempts=4, base_delay_s=0.01))
        health = service.health()
        for want, got in zip(reference, results):
            assert got.ok, got.error
            assert got.solutions == want.solutions
            assert got.stats == want.stats
        assert health.degraded
        assert health.workers_retired == 1
        assert health.workers_alive == 0
        assert health.local_fallbacks == len(batch)
        assert health.crashes == 1               # one death retired the pool
        # Still serving (degraded) after the collapse.
        assert service.run(("facts", "colour(C)")).ok
        assert service.health().degraded


def test_degraded_fallback_lets_keyboard_interrupt_through(monkeypatch):
    """The fallback runs in the caller's own process, so a Ctrl-C
    there interrupts the caller (as on ``workers=0``) instead of
    becoming one slot's error."""
    from repro.serve.service import EnginePool

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    chaos = ChaosPolicy(seed=7, kill_rate=1.0, kill_window=(500, 2_000),
                        max_kills_per_slot=10)
    with QueryService(PROGRAMS, workers=1,
                      supervisor=SupervisorPolicy(max_respawns=0)) as service:
        # Workers are spawned, so the patch reaches only the parent.
        monkeypatch.setattr(EnginePool, "run", interrupted)
        with pytest.raises(KeyboardInterrupt):
            service.run_many(
                [("nrev", "run(20, R)")], chaos=chaos,
                retry=RetryPolicy(max_attempts=4, base_delay_s=0.01))
        assert service.health().degraded


def test_supervised_respawn_backs_off_then_recovers():
    """Within budget, a killed worker is respawned after the
    supervisor's backoff and finishes the batch — no degradation."""
    chaos = ChaosPolicy(seed=3, kill_rate=1.0, kill_window=(500, 2_000),
                        max_kills_per_slot=1)
    with QueryService(PROGRAMS, workers=1,
                      supervisor=SupervisorPolicy(
                          max_respawns=3, backoff_base_s=0.02,
                          backoff_max_s=0.1)) as service:
        results = service.run_many(
            [("nrev", "run(20, R)")], chaos=chaos,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.01))
        health = service.health()
    assert results[0].ok, results[0].error
    assert health.crashes == 1 and health.respawns == 1
    assert not health.degraded and health.workers_retired == 0


# -- priority-aware shedding -------------------------------------------------

def test_shedding_is_by_priority_and_age_not_fifo():
    """Capacity 2 (one worker + queue depth 1), four slots: the seed
    shed the FIFO tail; now the lowest-priority youngest go, wherever
    they sit in the batch."""
    batch = [("facts", "colour(C)")] * 4
    with QueryService(PROGRAMS, workers=1, max_queue_depth=1) as service:
        results = service.run_many(batch, priorities=[3, 0, 2, 1])
        health = service.health()
    assert results[1].ok                  # priority 0: most important
    assert results[3].ok                  # priority 1
    assert results[2].error.kind == "Shed"
    assert results[0].error.kind == "Shed"
    assert "priority-3" in results[0].error.message
    assert health.sheds == 2
    assert [r.index for r in results] == [0, 1, 2, 3]


def test_priority_ties_shed_youngest_first():
    batch = [("facts", "colour(C)")] * 4
    with QueryService(PROGRAMS, workers=1, max_queue_depth=1) as service:
        results = service.run_many(batch, priorities=[0, 0, 0, 0])
    assert results[0].ok and results[1].ok        # oldest two survive
    assert results[2].error.kind == "Shed"
    assert results[3].error.kind == "Shed"


def test_priorities_length_must_match():
    with QueryService(PROGRAMS, workers=0) as service:
        with pytest.raises(ValueError):
            service.run_many([("facts", "colour(C)")], priorities=[0, 1])


# -- lifecycle hardening -----------------------------------------------------

def test_close_is_idempotent_and_del_safe():
    service = QueryService(PROGRAMS, workers=1)
    assert service.run(("facts", "colour(C)")).ok
    service.close()
    service.close()                       # double close: no-op, no raise
    assert service.health().workers_alive == 0
    service.__del__()                     # del after close: no raise
    # __del__ on a never-finished __init__ (validation raised before
    # _closed was assigned) must also be safe.
    husk = QueryService.__new__(QueryService)
    husk.__del__()
