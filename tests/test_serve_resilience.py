"""Resilient serving (ISSUE 5): worker death mid-batch, retry with
deterministic backoff, resume-from-checkpoint after a crash, admission
control, batch deadlines, health counters, and the end-to-end chaos
invariant over the PLM corpus — a chaos-ridden batch returns solutions
and statuses bit-identical to the fault-free reference with no slot
lost or duplicated."""

import threading
import time

from repro.bench.programs import SUITE
from repro.serve import (
    ChaosPolicy, QueryService, RetryPolicy, ServiceHealth,
    verify_chaos_invariant,
)

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

#: short-to-medium PLM suite programs (the long ones add minutes of
#: wall time without new coverage).
CORPUS = ["con1", "nrev1", "qs4", "times10", "divide10", "log10", "ops8"]


# -- worker death ------------------------------------------------------------

def test_mid_batch_worker_death_fails_one_slot_only():
    """Kill the worker while it serves slot 0; without a retry policy
    the slot fails WorkerCrashed, the respawned worker completes the
    rest of the batch, and input order is preserved."""
    with QueryService(PROGRAMS, workers=1) as service:
        assert service.run(("facts", "colour(C)")).ok    # worker is up

        def assassin():
            time.sleep(0.5)          # the loop query is now inflight
            service._processes[0].terminate()

        killer = threading.Thread(target=assassin, daemon=True)
        killer.start()
        results = service.run_many([
            ("loop", "loop"),        # no cycle budget: runs until killed
            ("facts", "colour(C)"),
            ("nrev", "run(10, R)"),
        ])
        killer.join()
        health = service.health()
    assert [r.index for r in results] == [0, 1, 2]
    assert not results[0].ok
    assert results[0].error.kind == "WorkerCrashed"
    assert results[0].error.transient
    assert results[1].ok and results[2].ok
    assert health.crashes == 1 and health.respawns == 1
    assert health.retries == 0        # no policy: the failure is final


def test_retry_policy_recovers_killed_slots():
    """With a retry policy, a chaos kill on every slot's first attempt
    is invisible in the results: attempt 2 runs clean and matches the
    fault-free reference bit for bit."""
    batch = [("nrev", "run(20, R)"), ("nrev", "run(15, R)")]
    with QueryService(PROGRAMS, workers=0) as reference:
        expected = reference.run_many(batch)
    chaos = ChaosPolicy(seed=3, kill_rate=1.0, kill_window=(500, 2_000),
                        max_kills_per_slot=1)
    with QueryService(PROGRAMS, workers=2) as service:
        results = service.run_many(
            batch, chaos=chaos,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.01))
        health = service.health()
    for want, got in zip(expected, results):
        assert got.ok
        assert got.solutions == want.solutions
        assert got.stats == want.stats
    assert health.crashes == len(batch)
    assert health.retries == len(batch)
    assert health.completed >= len(batch)


def test_crashed_slot_resumes_from_checkpoint():
    """With checkpointing on, the retry after a kill resumes from the
    last shipped checkpoint instead of starting over — and still
    produces the uninterrupted run's exact solutions and RunStats."""
    batch = [("nrev", "run(30, R)")]
    with QueryService(PROGRAMS, workers=0) as reference:
        expected = reference.run_many(batch)[0]
    assert expected.stats.cycles > 10_000    # room for several slices
    chaos = ChaosPolicy(seed=5, kill_rate=1.0,
                        kill_window=(8_000, 12_000), max_kills_per_slot=1)
    with QueryService(PROGRAMS, workers=1, checkpoint_every=2_000) as service:
        result = service.run_many(
            batch, chaos=chaos,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.01))[0]
        health = service.health()
    assert result.ok
    assert result.solutions == expected.solutions
    assert result.stats == expected.stats
    assert health.crashes == 1
    assert health.resumes == 1, "the retry must resume, not restart"
    assert health.checkpoints_received >= 4


# -- retry backoff -----------------------------------------------------------

def test_retry_delay_monotone_in_attempt():
    """The delay sequence for any slot never decreases with the
    attempt number — including across the cap boundary, where the seed
    policy's pre-jitter cap could order attempt 5 before attempt 4."""
    for seed in range(5):
        policy = RetryPolicy(base_delay_s=0.05, multiplier=2.0,
                             max_delay_s=0.4, jitter=0.25, seed=seed)
        for index in range(8):
            delays = [policy.delay_s(index, attempt)
                      for attempt in range(1, 12)]
            assert all(a <= b for a, b in zip(delays, delays[1:])), \
                f"non-monotone for seed {seed} slot {index}: {delays}"


def test_retry_delay_capped_at_max():
    policy = RetryPolicy(base_delay_s=0.05, multiplier=2.0,
                         max_delay_s=0.4, jitter=0.25)
    assert all(policy.delay_s(index, attempt) <= 0.4
               for index in range(8) for attempt in range(1, 20))
    assert policy.delay_s(0, 15) == 0.4      # deep attempts pin the cap


def test_retry_delay_deterministic_for_fixed_seed():
    first = RetryPolicy(seed=42)
    second = RetryPolicy(seed=42)
    other = RetryPolicy(seed=43)
    grid = [(index, attempt)
            for index in range(6) for attempt in range(1, 6)]
    assert ([first.delay_s(i, a) for i, a in grid]
            == [second.delay_s(i, a) for i, a in grid])
    assert ([first.delay_s(i, a) for i, a in grid]
            != [other.delay_s(i, a) for i, a in grid])


# -- admission control and deadlines -----------------------------------------

def test_admission_control_sheds_beyond_capacity():
    batch = [("facts", "colour(C)")] * 5
    with QueryService(PROGRAMS, workers=1, max_queue_depth=1) as service:
        results = service.run_many(batch)
        health = service.health()
    admitted = [r for r in results if r.ok]
    shed = [r for r in results if not r.ok]
    assert len(admitted) == 2                # workers + max_queue_depth
    assert len(shed) == 3
    for result in shed:
        assert result.error.kind == "Shed"
        assert result.error.transient        # resubmitting later is fine
        assert result.error.attempts == 0    # never dispatched
    assert health.sheds == 3
    assert [r.index for r in results] == list(range(5))


def test_batch_deadline_bounds_the_whole_batch():
    with QueryService(PROGRAMS, workers=1) as service:
        started = time.monotonic()
        results = service.run_many([
            ("loop", "loop"),                # would run forever
            ("facts", "colour(C)"),          # starves behind it
        ], deadline_s=1.0)
        elapsed = time.monotonic() - started
    assert elapsed < 10.0                    # bounded, not poll-forever
    assert results[0].error.kind == "DeadlineExceeded"
    assert results[0].error.transient
    assert results[1].error.kind == "DeadlineExceeded"
    assert results[1].error.attempts == 0    # never dispatched
    # The pool survives a batch expiry.
    with QueryService(PROGRAMS, workers=1) as service:
        assert service.run(("facts", "colour(C)")).ok


def test_health_snapshot_shape():
    with QueryService(PROGRAMS, workers=2) as service:
        assert service.run(("facts", "colour(C)")).ok
        health = service.health()
        assert isinstance(health, ServiceHealth)
        assert health.workers == 2
        assert health.workers_alive == 2
        assert health.completed == 1
        assert health.queue_depth == 0 and health.inflight == 0
        # Both workers heralded at startup; ages are fresh.
        assert set(health.heartbeat_age_s) <= {0, 1}
        assert all(age >= 0.0 for age in health.heartbeat_age_s.values())


def _counter_fields(health: ServiceHealth) -> dict:
    return {name: getattr(health, name)
            for name in ("respawns", "retries", "resumes", "sheds",
                         "timeouts", "crashes", "completed", "failed",
                         "checkpoints_received", "quarantines",
                         "deadline_abandons", "local_fallbacks",
                         "workers_retired", "migrations",
                         "leases_expired")}


def test_session_counters_monotonic_across_session_traffic():
    """The session-layer lifetime counters (migrations,
    leases_expired) obey the same monotonicity contract as the
    service's own, across mixed session traffic including forced
    lease expiries."""
    from repro.serve import LeasePolicy, SessionService
    clock = [0.0]
    with SessionService(PROGRAMS, workers=0,
                        lease=LeasePolicy(ttl_s=30.0),
                        clock=lambda: clock[0]) as service:
        snapshots = [_counter_fields(service.health())]
        first = service.open("facts", "colour(C)")
        service.next_solution(first)
        snapshots.append(_counter_fields(service.health()))
        second = service.open("facts", "colour(C)")
        service.expire_lease(second)
        service.reap()
        snapshots.append(_counter_fields(service.health()))
        service.expire_lease(first)
        service.reap()
        snapshots.append(_counter_fields(service.health()))
    for before, after in zip(snapshots, snapshots[1:]):
        for name, value in before.items():
            assert after[name] >= value, \
                f"counter {name} went backwards: {value} -> {after[name]}"
    assert snapshots[-1]["leases_expired"] == 2


def test_health_counters_are_monotonic_across_batches():
    """Every ServiceHealth lifetime counter only ever advances — a
    snapshot taken after more work dominates one taken before, field
    by field, and the events of each phase land in their counters."""
    chaos = ChaosPolicy(seed=3, kill_rate=1.0, kill_window=(500, 2_000),
                        max_kills_per_slot=1)
    with QueryService(PROGRAMS, workers=1, max_queue_depth=1) as service:
        snapshots = [_counter_fields(service.health())]
        assert service.run(("facts", "colour(C)")).ok
        snapshots.append(_counter_fields(service.health()))
        service.run_many([("facts", "colour(C)")] * 4)     # sheds 2
        snapshots.append(_counter_fields(service.health()))
        service.run(("loop", "loop"), timeout_s=0.4)       # abandons
        snapshots.append(_counter_fields(service.health()))
        service.run_many([("nrev", "run(20, R)")], chaos=chaos,
                         retry=RetryPolicy(max_attempts=3,
                                           base_delay_s=0.01))
        snapshots.append(_counter_fields(service.health()))
    for before, after in zip(snapshots, snapshots[1:]):
        for name, value in before.items():
            assert after[name] >= value, \
                f"counter {name} went backwards: {value} -> {after[name]}"
    final = snapshots[-1]
    assert final["completed"] >= 4
    assert final["sheds"] == 2
    assert final["timeouts"] == 1 and final["deadline_abandons"] == 1
    assert final["crashes"] == 1 and final["retries"] == 1
    assert final["respawns"] == 1


# -- the chaos invariant over the PLM corpus ---------------------------------

def test_chaos_invariant_over_plm_corpus():
    """The ISSUE 5 acceptance gate: seeded kills, delivery delays and
    injected machine faults change nothing observable — solutions and
    statuses bit-identical to the fault-free reference, every slot
    answered exactly once, and stats identical wherever no faults were
    injected into the simulation itself."""
    programs = {name: SUITE[name].source_pure for name in CORPUS}
    batch = [(name, SUITE[name].query_pure) for name in CORPUS]
    chaos = ChaosPolicy(seed=2026, kill_rate=0.6, kill_window=(400, 6_000),
                        max_kills_per_slot=1,
                        delay_rate=0.5, max_delay_s=0.02,
                        inject_rate=0.4, inject_horizon=6_000)
    report = verify_chaos_invariant(programs, batch, chaos,
                                    workers=2, checkpoint_every=1_500)
    assert report["ok"], report["mismatches"]
    assert report["slots"] == len(CORPUS)
    health = report["health"]
    assert health.crashes > 0, "the seed must actually kill workers"
    assert health.completed == len(CORPUS)


# -- soak accounting ---------------------------------------------------------

def test_disposition_ledger_exactly_once():
    """The soaks' exactly-once gate: a second disposal of one id is
    kept as a duplicate (the first kind stands) and fails the check,
    as does an expected id that was never disposed of."""
    from repro.serve.loadgen import DispositionLedger

    ledger = DispositionLedger()
    assert ledger.dispose(0, "ok") and ledger.dispose(1, "shed")
    assert ledger.exactly_once([0, 1])
    assert not ledger.exactly_once([0, 1, 2]), "missing id 2"
    assert not ledger.exactly_once([0]), "id 1 was not expected"
    assert not ledger.dispose(1, "expired")
    assert ledger.kinds == {0: "ok", 1: "shed"}
    assert ledger.duplicates == [(1, "expired")]
    assert not ledger.exactly_once([0, 1]), "duplicate disposal"
