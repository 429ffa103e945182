"""The three closed-loop workloads.

Each workload is one client process that sends its next operation when
the previous one returns:

- ``oneshot``: cold library calls (``run_query`` and ``Engine``
  lifecycles), each on a fresh machine;
- ``serve``: back-to-back ``QueryService.run_many`` batches on a warm
  spawn worker;
- ``sessions``: ``SessionService`` session steps through checkpoint,
  pickle, store and restore.

A run is split into shards (see ``perfbench/run.py``); each shard gets
a contiguous share of the run's inputs.  A shard times its set-up, then
runs the timed loop with tracing off for the end-to-end metrics.  With
``trace`` it sets up again with the layer wrappers installed and
replays the same inputs traced for the per-layer metrics.  Every
operation of every loop is checked against the seed loop afterwards.
"""

from __future__ import annotations

import functools
import os
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import run_query
from repro.core.predecode import PredecodedCode
from repro.serve import service as service_module
from repro.serve.cache import ImageCache, default_image_cache
from repro.serve.engine import Engine, EngineSnapshot, EngineStore
from repro.serve.overload import LeasePolicy
from repro.serve.service import QueryService
from repro.serve.session import DONE, SOLUTION, SessionService

from kcmbench import inputs
from kcmbench import tracer as tr
from kcmbench.oracle import Observation

#: ``oneshot`` set-ups (``import repro`` in a fresh interpreter) timed
#: per shard; ``serve`` and ``sessions`` time one set-up per shard.
#: ``setup_s`` is the median over all shards.
IMPORT_PROBES = 2

#: spawn workers behind ``serve``: one, on the client's CPU
#: (:func:`pin_to_one_cpu`).  The client waits while its worker runs,
#: so the pair needs one core, like the other workloads.  Two workers
#: kept both cores of the 2-core reference VM busy, and their runs
#: spread wider than those of the other workloads.
SERVE_WORKERS = 1

#: ``sessions`` EngineStore budget: a paused checkpoint pickles to about
#: 300 KB, so two stay resident and the other paused sessions of a wave
#: spill to disk and wake on their next step.
STORE_BUDGET = 650_000

#: long enough that no lease expires during a run.
LEASE = LeasePolicy(ttl_s=3600.0)

#: a shard's loop runs past its share of the run time until it has
#: timed this many operations, so that the pooled samples of the two
#: shards always carry a p90 (which needs 100) even on a slow host.
MIN_OPS = 50

#: inputs generated per run (oneshot cycles, serve batches, session
#: waves): several times what the fastest run uses.
INPUT_COUNTS = {"oneshot": 12, "serve": 2000, "sessions": 400}

IMPORT_PROBE = ("import time; t = time.perf_counter(); import repro; "
                "print(time.perf_counter() - t)")

clock = tr.clock


class _Untraced:
    """Stands in for a :class:`~kcmbench.tracer.Tracer` when tracing is
    off, so the timed loops have one shape."""

    enabled = False
    spans: list = []
    counts: Counter = Counter()

    def open(self, layer: str) -> int:
        return -1

    def close(self, index: int) -> None:
        pass


@dataclass
class Phase:
    """What one timed loop observed."""

    latencies: List[float] = field(default_factory=list)  # s per operation
    units: int = 0              # queries (oneshot, serve) or steps (sessions)
    inferences: int = 0         # simulated inferences completed
    cycles: int = 0             # simulated cycles completed
    elapsed: float = 0.0
    observations: List[Observation] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: per-workload extras for the per-layer metrics
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.latencies)


@dataclass
class Run:
    """One shard's measurements."""

    setup_s: List[float]        # every set-up timed
    phase: Phase                # the untraced timed loop
    rss_mb: float
    traced: Optional[Phase] = None


def peak_rss_mb(workers: int = 0) -> float:
    """Peak resident set of this process, plus ``workers`` times the
    largest peak among its ended child processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * children) / 1024.0


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts from now on, on
    one CPU, so that a client and a worker that take turns switch on
    that CPU instead of waking each other on another one.  Unpinned, a
    ``serve`` run with one worker ranged over 40 to 68 queries/s within
    minutes on the reference VM.  A no-op where the platform cannot pin."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _shard_inputs(items: list, shard: int, shards: int, period: int) -> list:
    """The run's inputs from this shard's offset on: shards start evenly
    spaced over the first ``period`` items.  For ``oneshot`` the period
    is one cycle, so the shards together cover its slot rows about
    equally however far each one gets in its share of the run time."""
    return items[shard * period // shards:]


# -- oneshot -------------------------------------------------------------------

def _import_seconds(root: str) -> float:
    """One fresh interpreter's ``import repro``, timed inside it."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                          env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _oneshot_op(op: inputs.Op):
    """One cold library call; returns (observation, query result)."""
    source = inputs.PROGRAMS[op.program]
    if op.kind == "query":
        result = run_query(source, op.query)
        return Observation(op.program, source, op.query, False,
                           result.solutions, result.stats), result
    engine = Engine(source, op.query)
    first = engine.next_solution()
    blob = engine.pause().to_bytes()
    resumed = Engine.resume(EngineSnapshot.from_bytes(blob))
    while resumed.next_solution() is not None:
        pass
    return Observation(op.program, source, op.query, True,
                       resumed.solutions, resumed.stats,
                       streamed=[first] if first is not None else [],
                       stream_limit=1), None


def _warm_rerun(result) -> Tuple[float, int]:
    """Rerun a finished ``run_query`` on its own (now warm) machine;
    returns (seconds, inferences)."""
    machine, image = result.machine, result.image
    machine.reset_for_reuse()
    started = clock()
    stats = machine.run(image.entry,
                        answer_names=image.query_variable_names)
    return clock() - started, stats.inferences


def _oneshot_loop(ops: List[inputs.Op], seconds: float, tracer) -> Phase:
    phase = Phase()
    cache = default_image_cache()
    cache.clear()
    translations = PredecodedCode.translations_performed
    taxes, warm_seconds, warm_inferences = [], 0.0, 0
    tracer.counts.clear()
    start = clock()
    deadline = start + seconds
    for op in ops:
        first_span = len(tracer.spans)
        began = clock()
        root = tracer.open("op")
        try:
            obs, result = _oneshot_op(op)
        except Exception as err:   # recorded as a failed operation
            obs, result = None, None
            phase.errors.append(f"{op.program} {op.query!r}: "
                                f"{type(err).__name__}: {err}")
        finally:
            tracer.close(root)
        ended = clock()
        phase.latencies.append(ended - began)
        if obs is not None:
            phase.observations.append(obs)
            phase.units += 1
            phase.inferences += obs.stats.inferences
            phase.cycles += obs.stats.cycles
        if tracer.enabled and result is not None:
            # First-run tax: this op's Machine.run against a warm rerun
            # of the same query, measured untraced and outside the op.
            first_run = [span for span in tracer.spans[first_span:]
                         if span[0] == "core.machine.execute"][-1]
            tracer.enabled = False
            warm, inferences = _warm_rerun(result)
            tracer.enabled = True
            taxes.append(first_run[2] - first_run[1] - warm)
            warm_seconds += warm
            warm_inferences += inferences
        if ended >= deadline and phase.ops >= MIN_OPS:
            break
    else:
        raise RuntimeError("oneshot inputs ran out before the run time")
    phase.elapsed = ended - start
    phase.extra.update(
        window=(start, ended), hits=cache.stats.hits,
        misses=cache.stats.misses,
        translations=PredecodedCode.translations_performed - translations)
    if taxes:
        phase.extra.update(first_run_tax=sum(taxes) / len(taxes),
                           warm_klips=warm_inferences / warm_seconds / 1e3)
    return phase


def run_oneshot(seed: int, seconds: float, trace: bool, shard: int,
                shards: int, root: str, scratch: str) -> Run:
    ops = _shard_inputs(inputs.oneshot_ops(seed, INPUT_COUNTS["oneshot"]),
                        shard, shards, inputs.ONESHOT_CYCLE)
    setup = [_import_seconds(root) for _ in range(IMPORT_PROBES)]
    phase = _oneshot_loop(ops, seconds, _Untraced())
    rss = peak_rss_mb()
    traced = None
    if trace:
        tracer = tr.Tracer()
        tr.install(tracer, tr.all_targets())
        try:
            tracer.enabled = True
            traced = _oneshot_loop(ops, seconds, tracer)
        finally:
            tracer.uninstall()
        traced.extra["tracer"] = tracer
    return Run(setup, phase, rss, traced)


# -- serve ---------------------------------------------------------------------

def _serve_build(tracer=None, trace_dir: Optional[str] = None):
    """Start the service and warm it: every image compiled in the
    parent, shipped, and run on a machine in each worker."""
    if trace_dir is not None:
        tracer.replace(service_module, "_worker_main", functools.partial(
            tr.traced_worker_main, trace_dir))
    service = QueryService(inputs.PROGRAMS, workers=SERVE_WORKERS,
                           cache=ImageCache())
    warm = [(name, inputs.QUERIES[name]) for name in inputs.PROGRAMS]
    for rotation in range(2 * SERVE_WORKERS):
        batch = warm[rotation:] + warm[:rotation]
        for result in service.run_many(batch):
            if not result.ok:
                service.close()
                raise RuntimeError(f"warm-up failed: {result.error}")
    return service


def _serve_loop(service: QueryService, batches, seconds: float,
                tracer) -> Phase:
    phase = Phase()
    health = service.health()
    hits, misses = service.cache.stats.hits, service.cache.stats.misses
    busy, dispatch = 0.0, 0.0
    tracer.counts.clear()
    start = clock()
    deadline = start + seconds
    for batch in batches:
        began = clock()
        root = tracer.open("op")
        try:
            results = service.run_many(batch)
        finally:
            tracer.close(root)
        ended = clock()
        phase.latencies.append(ended - began)
        engine = 0.0
        for (name, query), result in zip(batch, results):
            if not result.ok:
                phase.errors.append(f"{name} {query!r}: {result.error}")
                continue
            engine += result.host_seconds
            phase.units += 1
            phase.inferences += result.stats.inferences
            phase.cycles += result.stats.cycles
            phase.observations.append(Observation(
                name, inputs.PROGRAMS[name], query, False,
                result.solutions, result.stats))
        busy += engine
        dispatch += (ended - began) - engine / SERVE_WORKERS
        if ended >= deadline and phase.ops >= MIN_OPS:
            break
    else:
        raise RuntimeError("serve inputs ran out before the run time")
    phase.elapsed = ended - start
    after = service.health()
    phase.extra.update(
        window=(start, ended),
        busy_frac=busy / (SERVE_WORKERS * phase.elapsed),
        dispatch=dispatch / phase.ops,
        retries=after.retries - health.retries,
        respawns=after.respawns - health.respawns,
        hits=service.cache.stats.hits - hits,
        misses=service.cache.stats.misses - misses)
    return phase


def run_serve(seed: int, seconds: float, trace: bool, shard: int,
              shards: int, root: str, scratch: str) -> Run:
    batches = _shard_inputs(inputs.serve_batches(seed, INPUT_COUNTS["serve"]),
                            shard, shards, INPUT_COUNTS["serve"])
    pin_to_one_cpu()
    started = clock()
    service = _serve_build()
    setup = [clock() - started]
    try:
        phase = _serve_loop(service, batches, seconds, _Untraced())
    finally:
        service.close()
    rss = peak_rss_mb(SERVE_WORKERS)
    traced = None
    if trace:
        trace_dir = os.path.join(scratch, "workers")
        os.makedirs(trace_dir)
        tracer = tr.Tracer()
        tr.install(tracer, tr.all_targets())
        try:
            tracer.enabled = True
            service = _serve_build(tracer, trace_dir)
            try:
                traced = _serve_loop(service, batches, seconds, tracer)
            finally:
                service.close()
        finally:
            tracer.uninstall()
        traced.extra["tracer"] = tracer
        traced.extra["worker_spans"] = tr.read_worker_spans(trace_dir)
    return Run(setup, phase, rss, traced)


# -- sessions ------------------------------------------------------------------

def _sessions_build(store_dir: str) -> SessionService:
    """Open the service and warm it: one drained session per program
    compiles every image and leaves a warm pooled machine for each."""
    programs = {name: inputs.PROGRAMS[name]
                for name in inputs.SESSION_PROGRAMS}
    store = EngineStore(budget_bytes=STORE_BUDGET, directory=store_dir)
    service = SessionService(programs, workers=0, lease=LEASE, store=store,
                             cache=ImageCache())
    for name in inputs.SESSION_PROGRAMS:
        outcome = service.drain(service.open(name, inputs.QUERIES[name]))
        if outcome.status != DONE:
            service.close()
            raise RuntimeError(f"warm-up session {name}: {outcome.status}")
    return service


def _sessions_loop(service: SessionService, waves, seconds: float,
                   tracer) -> Phase:
    phase = Phase()
    store, cache = service.store, service.service.cache
    spills, wakes = store.spills, store.wakes
    hits, misses = cache.stats.hits, cache.stats.misses
    migrations = service.counters["migrations"]
    translations = PredecodedCode.translations_performed
    tracer.counts.clear()
    start = clock()
    deadline = start + seconds
    for wave in waves:
        sessions = {service.open(name, inputs.QUERIES[name]): name
                    for name in wave.programs}
        streamed: Dict[str, list] = {sid: [] for sid in sessions}
        live = list(sessions)
        picks = iter(wave.picks)
        while live:
            sid = live[next(picks) % len(live)]
            began = clock()
            root = tracer.open("op")
            try:
                outcome = service.advance([sid])[0]
            finally:
                tracer.close(root)
            ended = clock()
            phase.latencies.append(ended - began)
            phase.units += 1
            name = sessions[sid]
            if outcome.status == SOLUTION:
                streamed[sid].append(outcome.solution)
                continue
            live.remove(sid)
            if outcome.status != DONE:
                phase.errors.append(f"{name}: step {outcome.status} "
                                    f"{outcome.error}")
                continue
            phase.inferences += outcome.stats.inferences
            phase.cycles += outcome.stats.cycles
            phase.observations.append(Observation(
                name, inputs.PROGRAMS[name], inputs.QUERIES[name], True,
                outcome.solutions, outcome.stats, streamed=streamed[sid]))
        if ended >= deadline and phase.ops >= MIN_OPS:
            break
    else:
        raise RuntimeError("sessions inputs ran out before the run time")
    phase.elapsed = ended - start
    phase.extra.update(
        window=(start, ended),
        spills=store.spills - spills, wakes=store.wakes - wakes,
        migrations=service.counters["migrations"] - migrations,
        hits=cache.stats.hits - hits, misses=cache.stats.misses - misses,
        translations=PredecodedCode.translations_performed - translations)
    return phase


def run_sessions(seed: int, seconds: float, trace: bool, shard: int,
                 shards: int, root: str, scratch: str) -> Run:
    waves = _shard_inputs(inputs.session_waves(seed, INPUT_COUNTS["sessions"]),
                          shard, shards, INPUT_COUNTS["sessions"])
    store_dir = os.path.join(scratch, "store")
    os.makedirs(store_dir)
    started = clock()
    service = _sessions_build(store_dir)
    setup = [clock() - started]
    try:
        phase = _sessions_loop(service, waves, seconds, _Untraced())
    finally:
        service.close()
    rss = peak_rss_mb()
    traced = None
    if trace:
        tracer = tr.Tracer()
        tr.install(tracer, tr.all_targets())
        try:
            tracer.enabled = True
            service = _sessions_build(store_dir)
            try:
                traced = _sessions_loop(service, waves, seconds, tracer)
            finally:
                service.close()
        finally:
            tracer.uninstall()
        traced.extra["tracer"] = tracer
    return Run(setup, phase, rss, traced)
