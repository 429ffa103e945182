"""Tests for the benchmark itself: seeded inputs, the output check,
the percentile helper and the layer self-time arithmetic."""

import copy

import pytest

from kcmbench import inputs, tracer
from kcmbench.oracle import Observation, Oracle, check
from kcmbench.stats import TooFewSamples, percentile
from repro.prolog.terms import Atom


def test_same_seed_same_inputs():
    assert inputs.oneshot_ops(7, 2) == inputs.oneshot_ops(7, 2)
    assert inputs.serve_batches(7, 50) == inputs.serve_batches(7, 50)
    assert inputs.session_waves(7, 20) == inputs.session_waves(7, 20)


def test_other_seed_other_inputs():
    assert inputs.oneshot_ops(7, 2) != inputs.oneshot_ops(8, 2)
    assert inputs.serve_batches(7, 50) != inputs.serve_batches(8, 50)
    assert inputs.session_waves(7, 20) != inputs.session_waves(8, 20)


def test_hash_seeds_follow_the_seed():
    seeds = inputs.hash_seeds(7, 3)
    assert seeds == inputs.hash_seeds(7, 3)
    assert seeds != inputs.hash_seeds(8, 3)
    assert len(set(seeds)) == 3
    assert all(1 <= seed < 1 << 32 for seed in seeds)


def test_oneshot_cycles_cover_every_program_and_slot():
    ops = inputs.oneshot_ops(3, 2)
    for start in (0, inputs.ONESHOT_CYCLE):
        cycle = ops[start:start + inputs.ONESHOT_CYCLE]
        for program in inputs.PROGRAMS:
            slots = sorted((op.kind, op.novel) for op in cycle
                           if op.program == program)
            assert slots == sorted(inputs.ONESHOT_SLOTS)
    novel = [op.query for op in ops if op.novel]
    assert len(set(novel)) == len(novel)
    assert not set(novel) & set(inputs.QUERIES.values())


def test_serve_batches_hold_every_program():
    for batch in inputs.serve_batches(5, 10):
        names = [name for name, _ in batch]
        assert set(names) == set(inputs.PROGRAMS)
        assert len(names) == len(inputs.PROGRAMS) + inputs.SERVE_EXTRA


@pytest.fixture(scope="module")
def con1():
    oracle = Oracle()
    source, query = inputs.PROGRAMS["con1"], inputs.QUERIES["con1"]
    ref = oracle.reference(source, query, False)
    return oracle, source, query, ref


def _observation(source, query, solutions, stats, **extra):
    return Observation("con1", source, query, False, solutions, stats,
                       **extra)


def test_check_accepts_the_reference(con1):
    oracle, source, query, ref = con1
    assert check(oracle, _observation(source, query, list(ref.solutions),
                                      copy.copy(ref.stats))) is None


def test_check_catches_a_cycle_count(con1):
    oracle, source, query, ref = con1
    stats = copy.copy(ref.stats)
    stats.cycles += 1
    problem = check(oracle, _observation(source, query, ref.solutions, stats))
    assert problem is not None and "cycles" in problem


def test_check_catches_a_solution(con1):
    oracle, source, query, ref = con1
    wrong = [dict(solution) for solution in ref.solutions]
    wrong[0][next(iter(wrong[0]))] = Atom("corrupted")
    problem = check(oracle, _observation(source, query, wrong, ref.stats))
    assert problem is not None and "solutions" in problem


def test_check_catches_a_streamed_answer(con1):
    oracle, source, query, ref = con1
    obs = _observation(source, query, ref.solutions, ref.stats,
                       streamed=[], stream_limit=1)
    assert check(oracle, obs) is not None


@pytest.mark.parametrize("q, enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, enough):
    assert percentile(list(range(enough)), q) == \
        sorted(range(enough))[-11]
    with pytest.raises(TooFewSamples):
        percentile(list(range(enough - 1)), q)


def test_self_times_add_up():
    spans = [["op", 0.0, 10.0, -1], ["a", 1.0, 6.0, 0], ["b", 2.0, 4.0, 1],
             ["a", 7.0, 8.0, 0]]
    totals = tracer.self_times(spans)
    assert totals["op"] == [4.0, 1]
    assert totals["a"] == [4.0, 2]
    assert totals["b"] == [2.0, 1]
    assert sum(seconds for seconds, _ in totals.values()) == 10.0
