"""Seeded workload inputs.

Every input is a pure function of the seed and is generated before any
timing starts.  The seed changes only the order of operations and the
values of generated query arguments: each workload's composition (how
many operations of each kind, how often each program appears) is fixed,
so runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.bench.programs import SUITE, SUITE_ORDER

#: the 14 pure PLM programs (Table 3 variants, I/O removed).
PROGRAMS: Dict[str, str] = {name: SUITE[name].source_pure
                            for name in SUITE_ORDER}
QUERIES: Dict[str, str] = {name: SUITE[name].query_pure
                           for name in SUITE_ORDER}

#: multi-solution session corpus (the one ``benchmarks/bench_sessions.py``
#: soaks): queens and mutest stream several answers, the others open and
#: finish within one or two steps.
SESSION_PROGRAMS = ["queens", "mutest", "query", "nrev1", "divide10", "con1"]

#: what one ``oneshot`` cycle does with each program, as (kind, novel)
#: rows: five cached run_query calls, one on a novel query, and one
#: Engine lifecycle each on the suite query and on a novel one.  A row
#: gives every program the same slot; the costly rows are spread out so
#: that any few consecutive rows carry nearly the cycle's mix.
ONESHOT_SLOTS = (("query", False), ("engine", False), ("query", False),
                 ("query", True), ("query", False), ("engine", True),
                 ("query", False), ("query", False))

#: operations in one ``oneshot`` cycle (every program, every slot).
ONESHOT_CYCLE = len(SUITE_ORDER) * len(ONESHOT_SLOTS)

#: ``serve``: every batch holds each program once plus this many
#: seeded repeats (so same-image queries also share a batch).
SERVE_EXTRA = 2

#: ``sessions``: each program opens this many sessions per wave.
SESSION_COPIES = 2


@dataclass(frozen=True)
class Op:
    """One ``oneshot`` operation."""

    kind: str           # "query" (run_query) or "engine" (Engine lifecycle)
    program: str        # corpus program name
    query: str
    novel: bool         # query text generated for this run (cache miss)


def _atoms(rng: random.Random, n: int) -> List[str]:
    return [f"k{rng.randrange(10 ** 6)}" for _ in range(n)]


def _ints(rng: random.Random, n: int, top: int = 100) -> List[str]:
    return [str(rng.randrange(top)) for _ in range(n)]


def _list(items: List[str]) -> str:
    return "[" + ",".join(items) + "]"


def _chain(op: str, n: int, rng: random.Random) -> str:
    """A left-nested ``x op x op ...`` expression of ``n`` operands, one
    of them a generated integer constant."""
    operands = ["x"] * n
    operands[rng.randrange(1, n)] = str(rng.randrange(2, 10 ** 6))
    expr = operands[0]
    for operand in operands[1:]:
        expr = f"({expr}{op}{operand})"
    return expr


def _palindrome(rng: random.Random) -> str:
    half = _atoms(rng, 12)
    return _list(half + _atoms(rng, 1) + half[::-1])


def _nested_log(rng: random.Random) -> str:
    expr = f"(x+{rng.randrange(2, 10 ** 6)})"
    for _ in range(10):
        expr = f"log({expr})"
    return expr


#: per program, a generator of query texts over the program's own
#: predicates, close in cost to the suite query.  A few bind a generated
#: constant only to make the text new.
NOVEL: Dict[str, Callable[[random.Random], str]] = {
    "con1": lambda r: f"concat({_list(_atoms(r, 3))}, {_list(_atoms(r, 2))}, L)",
    "con6": lambda r: (f"concat({_list(_atoms(r, 5))}, [f], L1), "
                       f"concat({_list(_atoms(r, 5))}, [f], L2)"),
    "divide10": lambda r: f"d({_chain('/', 10, r)}, x, D)",
    "hanoi": lambda r: (f"move({r.randint(7, 8)}, l{r.randrange(10 ** 6)}, "
                        f"c{r.randrange(10 ** 6)}, r{r.randrange(10 ** 6)})"),
    "log10": lambda r: f"d({_nested_log(r)}, x, D)",
    "mutest": lambda r: (f"derive(6, [m, i], [m, u, i, i, u]), "
                         f"X = {r.randrange(10 ** 6)}"),
    "nrev1": lambda r: f"nrev({_list(_ints(r, r.randint(25, 35)))}, R)",
    "ops8": lambda r: (f"d((x + {r.randrange(2, 10 ** 6)}) * "
                       f"((x ^ 2 + 2) * (x ^ 3 + 3)), x, D)"),
    "palin25": lambda r: f"palin({_palindrome(r)})",
    "pri2": lambda r: f"primes({r.randint(70, 90)}, Ps), X = {r.randrange(10 ** 6)}",
    "qs4": lambda r: f"qsort({_list(_ints(r, 50))}, R, [])",
    "queens": lambda r: f"queens({_list(r.sample('123456', 6))}, [], Qs)",
    "query": lambda r: (f"query(C1, D1, C2, D2), "
                        f"D1 < {r.randrange(10 ** 6, 10 ** 7)}, fail"),
    "times10": lambda r: f"d({_chain('*', 10, r)}, x, D)",
}


def oneshot_ops(seed: int, cycles: int) -> List[Op]:
    """``cycles`` oneshot cycles of :data:`ONESHOT_CYCLE` operations:
    one row per slot, each row visiting the programs in a seeded order.

    Novel queries are unique within the list, so each one misses the
    image cache exactly once per process.
    """
    rng = random.Random(seed)
    seen = set(QUERIES.values())
    ops: List[Op] = []
    for _ in range(cycles):
        for kind, novel in ONESHOT_SLOTS:
            order = list(SUITE_ORDER)
            rng.shuffle(order)
            for program in order:
                query = QUERIES[program]
                while novel and query in seen:
                    query = NOVEL[program](rng)
                seen.add(query)
                ops.append(Op(kind, program, query, novel))
    return ops


def serve_batches(seed: int, count: int) -> List[List[Tuple[str, str]]]:
    """``count`` run_many batches: every corpus program once plus
    :data:`SERVE_EXTRA` seeded repeats, in seeded order."""
    rng = random.Random(seed)
    batches = []
    for _ in range(count):
        names = list(SUITE_ORDER) + [rng.choice(SUITE_ORDER)
                                     for _ in range(SERVE_EXTRA)]
        rng.shuffle(names)
        batches.append([(name, QUERIES[name]) for name in names])
    return batches


@dataclass(frozen=True)
class Wave:
    """One ``sessions`` wave: sessions opened together and stepped in a
    seeded order until all of them have drained."""

    programs: Tuple[str, ...]       # one entry per session
    picks: Tuple[int, ...]          # step k advances live[picks[k] % len(live)]


def session_waves(seed: int, count: int) -> List[Wave]:
    rng = random.Random(seed)
    waves = []
    for _ in range(count):
        programs = SESSION_PROGRAMS * SESSION_COPIES
        rng.shuffle(programs)
        # A wave never takes more steps than this (at most five per
        # session in this corpus); spare picks are never read.
        picks = tuple(rng.randrange(1 << 30)
                      for _ in range(8 * len(programs)))
        waves.append(Wave(tuple(programs), picks))
    return waves


def hash_seeds(seed: int, shards: int) -> List[int]:
    """The ``PYTHONHASHSEED`` of each of a run's ``shards`` shard
    processes: fixed by the run's seed, different from run to run."""
    rng = random.Random(f"hash-seeds-{seed}")
    return [rng.randrange(1, 1 << 32) for _ in range(shards)]
