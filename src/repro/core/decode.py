"""Decoding heap words back into source-level terms.

Used by the ``'$answer'`` escape (solution collection), by real-I/O
``write/1`` and by tests.  Decoding is a *host-side* operation — the
workstation reading KCM memory over the VME interface (figure 1) — so
it reads the functional store directly and costs no simulated cycles.
"""

from __future__ import annotations

from typing import Dict

from repro.core.tags import Type
from repro.core.word import Word
from repro.prolog.terms import Atom, Float, Int, Struct, Term, Var

#: Safety bound against decoding cyclic or runaway structures.
MAX_DECODE_CELLS = 1_000_000


def decode_word(machine, word: Word,
                names: "Dict[int, str] | None" = None) -> Term:
    """Convert a tagged heap word into a :mod:`repro.prolog.terms` term.

    Unbound variables decode to :class:`Var` named ``_<address>`` (or
    via the optional ``names`` map keyed by cell address).
    """
    store = machine.memory.store
    symbols = machine.symbols
    read = store.read

    def walk(w: Word, budget: list) -> Term:
        # Dereference without simulated cycle cost — but charge the
        # host-side budget per hop: a REF loop longer than one cell
        # (a->b->a) never hits the direct self-reference test below and
        # would otherwise spin forever.
        while w.type is Type.REF:
            budget[0] -= 1
            if budget[0] < 0:
                raise ValueError("term too large to decode (cyclic?)")
            cell = read(w.value)
            if cell.type is Type.REF and cell.value == w.value:
                if names and w.value in names:
                    return Var(names[w.value])
                return Var(f"_{w.value}")
            w = cell
        budget[0] -= 1
        if budget[0] < 0:
            raise ValueError("term too large to decode (cyclic?)")
        t = w.type
        if t is Type.INT:
            return Int(int(w.value))
        if t is Type.FLOAT:
            return Float(float(w.value))
        if t is Type.ATOM:
            return Atom(symbols.atom_name(int(w.value)))
        if t is Type.NIL:
            return Atom("[]")
        if t is Type.LIST:
            # Iterate down the spine: benchmark answers are thousands
            # of elements long, far beyond the Python recursion limit.
            heads = []
            while True:
                heads.append(walk(read(w.value), budget))
                budget[0] -= 1
                if budget[0] < 0:
                    raise ValueError("term too large to decode (cyclic?)")
                tail = read(w.value + 1)
                # Same per-hop budget charge as above: a cyclic tail
                # REF chain must error out, not hang the host.
                while tail.type is Type.REF:
                    budget[0] -= 1
                    if budget[0] < 0:
                        raise ValueError(
                            "term too large to decode (cyclic?)")
                    cell = read(tail.value)
                    if cell.type is Type.REF and cell.value == tail.value:
                        break
                    tail = cell
                if tail.type is not Type.LIST:
                    break
                w = tail
            result = walk(tail, budget)
            for head in reversed(heads):
                result = Struct(".", (head, result))
            return result
        if t is Type.STRUCT:
            functor = read(w.value)
            name, arity = symbols.functor_key(int(functor.value))
            args = tuple(walk(read(w.value + 1 + i), budget)
                         for i in range(arity))
            return Struct(name, args)
        raise ValueError(f"cannot decode word of type {t.name}")

    try:
        return walk(word, [MAX_DECODE_CELLS])
    finally:
        # walk refers to itself through its closure cell; emptying the
        # cell breaks that cycle so the store is freed by refcounting.
        del walk


def encode_term(machine, term: Term) -> Word:
    """Build ``term`` on the machine's heap; returns the root word.

    The inverse of :func:`decode_word`, used by tests and the query
    harness to preload arguments.  Variables sharing a name share one
    fresh heap cell.
    """
    cache: Dict[str, Word] = {}

    def build(t: Term) -> Word:
        if isinstance(t, Int):
            from repro.core.word import make_int
            return make_int(t.value)
        if isinstance(t, Float):
            from repro.core.word import make_float
            return make_float(t.value)
        if isinstance(t, Atom):
            return machine.symbols.atom_word(t.name)
        if isinstance(t, Var):
            if t.name not in cache:
                cache[t.name] = machine.new_heap_var()
            return cache[t.name]
        if isinstance(t, Struct):
            from repro.core.word import make_functor, make_list, make_struct
            args = [build(a) for a in t.args]
            if t.name == "." and len(args) == 2:
                address = machine.h
                machine.heap_push(args[0])
                machine.heap_push(args[1])
                return make_list(address)
            findex = machine.symbols.functor_index(t.name, t.arity)
            address = machine.heap_push(make_functor(findex))
            for arg in args:
                machine.heap_push(arg)
            return make_struct(address)
        raise TypeError(f"cannot encode {t!r}")

    try:
        return build(term)
    finally:
        del build   # break the self-referencing closure cycle (see above)
