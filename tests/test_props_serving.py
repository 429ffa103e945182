"""Cross-path differential property for the query service: one batch
served in-process, on a worker pool, on a collapsed (degraded) pool
and as drained ``run_steps`` session streams gives the same solutions,
``RunStats`` and error kinds on every path.

The batches mix the list programs of ``test_props_machine`` with a
builtin that raises a non-machine exception (``functor(T, foo, -1)``
raises ``ValueError``), a query that exhausts its cycle budget and an
unknown program.  The services are built once per module, so a
worker pool's warm machines serve many examples, as in production."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import (
    ChaosPolicy, QueryService, RetryPolicy, SupervisorPolicy,
)
from tests.test_props_machine import APPEND, NREV, QSORT, SMALL_INTS, plist

PROGRAMS = {"append": APPEND, "nrev": NREV, "qsort": QSORT,
            "loop": "loop :- loop."}

#: enough for every generated list query; the loop always exhausts it.
MAX_CYCLES = 20_000

LISTS = st.lists(SMALL_INTS, max_size=8)
SLOTS = st.one_of(
    LISTS.map(lambda xs: ("append", f"append(X, Y, {plist(xs)})")),
    LISTS.map(lambda xs: ("nrev", f"nrev({plist(xs)}, R)")),
    LISTS.map(lambda xs: ("qsort", f"qsort({plist(xs)}, R, [])")),
    st.sampled_from([("append", "functor(T, foo, -1)"),
                     ("loop", "loop"),
                     ("nosuch", "p")]),
)


@pytest.fixture(scope="module")
def services():
    local = QueryService(PROGRAMS, workers=0, all_solutions=True)
    pooled = QueryService(PROGRAMS, workers=1, all_solutions=True)
    collapsed = QueryService(PROGRAMS, workers=1, all_solutions=True,
                             supervisor=SupervisorPolicy(max_respawns=0))
    # Kill the only worker once; with no respawn budget the pool
    # collapses and every later batch runs on the degraded fallback.
    collapsed.run_many(
        [("loop", "loop")], max_cycles=MAX_CYCLES,
        chaos=ChaosPolicy(seed=7, kill_rate=1.0, kill_window=(500, 2_000)),
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.01))
    assert collapsed.health().degraded
    yield {"local": local, "pooled": pooled, "collapsed": collapsed}
    for service in (local, pooled, collapsed):
        service.close()


def signature(result):
    return (result.solutions, result.stats, result.output,
            result.error.kind if result.error is not None else None)


def drain(service, batch):
    """Stream every slot of ``batch`` to its end, one solution per
    ``run_steps`` round; returns the final result of each slot."""
    finals = [None] * len(batch)
    payloads = {index: None for index in range(len(batch))}
    while payloads:
        order = sorted(payloads)
        steps = [batch[index] + (payloads[index],) for index in order]
        for index, result in zip(order, service.run_steps(
                steps, max_cycles=MAX_CYCLES)):
            if result.paused:
                # Each step streams exactly one fresh solution.
                streamed = (len(finals[index].solutions)
                            if finals[index] is not None else 0)
                assert len(result.solutions) == streamed + 1
                payloads[index] = result.session_payload
            else:
                del payloads[index]
            finals[index] = result
    return finals


@given(st.lists(SLOTS, min_size=1, max_size=6))
@settings(max_examples=8, deadline=None)
def test_every_serving_path_agrees(services, batch):
    reference = services["local"].run_many(batch, max_cycles=MAX_CYCLES)
    want = [signature(result) for result in reference]
    for name in ("pooled", "collapsed"):
        got = services[name].run_many(batch, max_cycles=MAX_CYCLES)
        assert [signature(result) for result in got] == want, name
    for name in ("local", "pooled", "collapsed"):
        assert [signature(result) for result in drain(services[name],
                                                      batch)] == want, name
    assert services["collapsed"].health().degraded
