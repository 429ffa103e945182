"""A dropped Machine is freed at once, by reference counting alone.

The lifetime tests run with the cycle collector disabled: if anything a
machine owns refers back to it (a bound method of the machine stored
on the machine, a closure over it, a function left in its own
globals), the machine, its MemorySystem and its data store outlive
the caller's last reference and pile up until the next collector
pass.  Also pinned here: the per-process superop compile memo and the
lazily materialized page tables that make cold machines cheap.
"""

import gc
import weakref

import pytest

from repro.api import compile_and_load, run_query
from repro.core import superops
from repro.core.machine import Machine
from repro.serve.cache import ImageCache
from repro.serve.engine import Engine, EngineSnapshot
from repro.serve.service import EnginePool

APPEND = ("append([], L, L).\n"
          "append([H|T], L, [H|R]) :- append(T, L, R).\n")
QUERY = "append([1,2,3], [4,5], R)"
COLORS = "color(red). color(green). color(blue).\n"


@pytest.fixture
def no_cycle_collector():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def refs_to(machine):
    return (weakref.ref(machine), weakref.ref(machine.memory),
            weakref.ref(machine.memory.store))


def assert_freed(refs):
    assert [ref() is None for ref in refs] == [True] * len(refs)


@pytest.mark.usefixtures("no_cycle_collector")
class TestDroppedMachineIsFreed:
    @pytest.mark.parametrize("fast_path", [True, False])
    def test_run_query_result(self, fast_path):
        result = run_query(APPEND, QUERY,
                           machine=Machine(fast_path=fast_path))
        assert result.solutions
        refs = refs_to(result.machine)
        del result
        assert_freed(refs)

    def test_recovery_run(self):
        result = run_query(APPEND, QUERY, recovery=True)
        assert result.solutions
        refs = refs_to(result.machine)
        del result
        assert_freed(refs)

    def test_engine_lifecycle(self):
        cache = ImageCache()
        engine = Engine(COLORS, "color(C)", cache=cache)
        assert engine.next_solution() is not None
        payload = engine.pause().to_bytes()
        refs = refs_to(engine._machine)
        del engine
        assert_freed(refs)

        resumed = Engine.resume(EngineSnapshot.from_bytes(payload),
                                cache=cache)
        while resumed.next_solution() is not None:
            pass
        assert resumed.streamed == 3
        refs = refs_to(resumed._machine)
        del resumed
        assert_freed(refs)

    def test_engine_pool_eviction(self):
        cache = ImageCache()
        pool = EnginePool(max_machines=1)
        first = cache.get(APPEND, QUERY)
        machine, _, _ = pool.run("first", first, {})
        refs = refs_to(machine)
        del machine
        pool.run("second", cache.get(COLORS, "color(C)"), {})
        assert_freed(refs)


class TestColdMachineCosts:
    def test_second_machine_compiles_no_superops(self):
        cache = ImageCache()
        image = cache.get(APPEND, QUERY)
        first = Machine(symbols=image.symbols)
        image.install(first)
        first.run(image.entry)
        before = superops._compile_block.cache_info()

        second = Machine(symbols=image.symbols)
        image.install(second)
        second.run(image.entry)
        after = superops._compile_block.cache_info()
        assert after.hits > before.hits      # the second machine fused
        assert after.misses == before.misses
        assert second.stats.cycles == first.stats.cycles

    def test_blocks_fuse_on_first_entry_only(self):
        machine = compile_and_load(APPEND, QUERY, use_cache=False)
        machine.run(machine.image.entry)
        kinds = [entry[4].__name__ for entry in machine._predecoded.entries
                 if entry is not None and entry[4] is not None]
        # Blocks that ran hold their fused closure; the others still
        # hold their stub and never paid for generation or compile().
        assert "_superop" in kinds
        assert "fuse_on_entry" in kinds

    def test_machine_materializes_no_page_table_entries(self):
        mmu = Machine().memory.mmu
        assert not mmu.data_table and not mmu.code_table
