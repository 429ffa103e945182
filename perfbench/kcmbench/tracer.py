"""Layer spans, recorded from outside the program.

The benchmark does not change the program to trace it.  It replaces
the public functions at each layer boundary with wrappers that record
a span (layer, start, end, parent) and call the original; uninstalling
puts the originals back.  Spans stay in memory; a layer's *self time*
is its span's duration minus the time covered by its child spans, so
self times of all layers plus the operation span's own self time (the
part no layer covers) add up to the operation time exactly.

Layer names follow the modules (``perfbench/README.md`` maps them onto
the ROADMAP ledger).  Predecode and superop fusion run inside the first
``Machine.run`` and are timed together as ``core.predecode``.

Service workers are separate processes.  :func:`traced_worker_main`
wraps the worker entry point, traces the machine layers inside the
worker and writes the spans to a file when the worker exits; the
parent reads them back with :func:`read_worker_spans`.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import pickle
import time
import types
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, start, end, parent index or -1)
Span = List

clock = time.perf_counter


class Tracer:
    """Records spans for the layer wrappers it installs."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._stack.pop()

    def _wrap(self, fn: Callable, layer: str,
              measure: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if measure is not None:
                measure(tracer.counts, result)
            return result

        return wrapper

    # -- installing wrappers ---------------------------------------------------

    def patch(self, owner, attr: str, layer: str,
              measure: Optional[Callable] = None) -> None:
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, layer, measure))
        else:
            new = self._wrap(raw, layer, measure)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        self.enabled = False
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def _count_snapshot(counts: Counter, payload: bytes) -> None:
    counts["snapshot_bytes"] += len(payload)
    counts["snapshots"] += 1


def _pickle_proxy(tracer: Tracer) -> types.SimpleNamespace:
    """A stand-in for the ``pickle`` module inside
    :mod:`repro.serve.service`, whose ``dumps``/``loads`` are the
    session data plane's snapshot pickling."""
    proxy = types.SimpleNamespace(**{name: getattr(pickle, name)
                                     for name in dir(pickle)
                                     if not name.startswith("__")})
    proxy.dumps = tracer._wrap(pickle.dumps, "serve.engine.pickle",
                               _count_snapshot)
    proxy.loads = tracer._wrap(pickle.loads, "serve.engine.unpickle")
    return proxy


def machine_targets() -> list:
    """Wrappers for the layers a query crosses inside one process that
    executes it: construct, install, reset, predecode, execute,
    checkpoint capture/restore and snapshot pickling."""
    import repro.compiler.linker as linker
    import repro.core.machine as machine
    import repro.core.superops as superops
    import repro.core.traps as traps
    import repro.serve.service as service

    machine_cls = machine.Machine
    return [
        (linker.LinkedImage, "install", "compiler.linker.install"),
        (machine_cls, "__init__", "core.machine.construct"),
        (machine_cls, "reset_for_reuse", "core.machine.reset"),
        (machine_cls, "run", "core.machine.execute"),
        (machine_cls, "resume", "core.machine.execute"),
        (machine_cls, "run_sliced", "core.machine.execute"),
        (machine_cls, "resume_sliced", "core.machine.execute"),
        (machine, "predecode", "core.predecode"),
        (superops.SuperopFuser, "__init__", "core.predecode.fuser"),
        (traps.MachineCheckpoint, "capture", "core.traps.capture"),
        (traps.MachineCheckpoint, "restore", "core.traps.restore"),
        (service, "pickle", None),
    ]


def all_targets() -> list:
    """Every layer boundary the benchmark's workloads cross."""
    import repro.compiler.linker as linker
    import repro.serve.cache as cache
    import repro.serve.engine as engine
    import repro.serve.service as service
    import repro.serve.session as session

    return [
        (linker, "parse_program", "prolog.parser"),
        (linker, "parse_term", "prolog.parser"),
        (linker, "normalize_program", "compiler.normalize"),
        (linker, "group_program", "compiler.normalize"),
        (linker.Linker, "link", "compiler.linker.link"),
        (cache.ImageCache, "get", "serve.cache"),
        (engine.Engine, "__init__", "serve.engine"),
        (engine.Engine, "next_solution", "serve.engine"),
        (engine.Engine, "pause", "serve.engine"),
        (engine.EngineSnapshot, "to_bytes", "serve.engine.pickle",
         _count_snapshot),
        (engine.EngineSnapshot, "from_bytes", "serve.engine.unpickle"),
        (engine.EngineStore, "put", "serve.engine.store_put"),
        (engine.EngineStore, "get", "serve.engine.store_get"),
        (service.QueryService, "run_many", "serve.service"),
        (service.QueryService, "run_steps", "serve.service"),
        (session.SessionService, "advance", "serve.session"),
    ] + machine_targets()


def install(tracer: Tracer, targets: list) -> None:
    """Install ``targets``; a ``None`` layer marks the pickle module
    reference that :func:`_pickle_proxy` replaces."""
    for target in targets:
        owner, attr, layer = target[:3]
        if layer is None:
            tracer.replace(owner, attr, _pickle_proxy(tracer))
        else:
            tracer.patch(*target)


# -- self time -----------------------------------------------------------------

def self_times(spans: List[Span], since: float = float("-inf"),
               until: float = float("inf")) -> Dict[str, List[float]]:
    """``{layer: [self seconds, calls]}`` over the spans that started in
    ``[since, until)``; self time is computed over all spans first, so
    a child is subtracted from its parent whatever the window."""
    child = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for index, (layer, start, end, parent) in enumerate(spans):
        if since <= start < until:
            entry = totals[layer]
            entry[0] += end - start - child[index]
            entry[1] += 1
    return dict(totals)


# -- service workers -----------------------------------------------------------

def traced_worker_main(trace_dir: str, *args) -> None:
    """Service worker entry point with the machine layers traced.

    Installed in the parent as ``repro.serve.service._worker_main``
    (bound to ``trace_dir`` with :func:`functools.partial`), so spawn
    pickles it by reference and every worker runs it.  The worker's
    spans are written to ``trace_dir`` when its loop returns.
    """
    from repro.serve import service

    tracer = Tracer()
    install(tracer, machine_targets())
    tracer.enabled = True
    try:
        service._worker_main(*args)
    finally:
        tracer.uninstall()
        path = os.path.join(trace_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(tracer.spans, handle)


def read_worker_spans(trace_dir: str) -> List[List[Span]]:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "worker-*.json"))):
        with open(path) as handle:
            spans.append(json.load(handle))
    return spans
