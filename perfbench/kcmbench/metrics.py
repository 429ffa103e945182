"""End-to-end and per-layer metrics from the timed loops.

End-to-end metrics pool the untraced loops of all shards.  Per-layer
metrics come from each shard's traced loop and are averaged over the
shards: every ``*_ms`` layer metric is the layer's self time per
workload operation (one call, one batch or one session step), so in
each process the layer metrics plus ``workload.unattributed_ms`` add up
to ``workload.op_ms``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

from kcmbench import tracer as tr
from kcmbench.stats import median, percentile

Metrics = Dict[str, Tuple[float, str]]

#: layer metric -> the span layers whose self time it sums.
LAYER_MS = {
    "prolog.parser.parse_ms": ("prolog.parser",),
    "compiler.normalize.normalize_ms": ("compiler.normalize",),
    "compiler.linker.link_ms": ("compiler.linker.link",),
    "compiler.linker.install_ms": ("compiler.linker.install",),
    "serve.cache.get_ms": ("serve.cache",),
    "core.machine.construct_ms": ("core.machine.construct",),
    "core.machine.reset_ms": ("core.machine.reset",),
    "core.machine.execute_ms": ("core.machine.execute",),
    "core.predecode.predecode_ms": ("core.predecode",
                                    "core.predecode.fuser"),
    "core.traps.capture_ms": ("core.traps.capture",),
    "core.traps.restore_ms": ("core.traps.restore",),
    "serve.engine.engine_ms": ("serve.engine",),
    "serve.engine.pickle_ms": ("serve.engine.pickle",),
    "serve.engine.unpickle_ms": ("serve.engine.unpickle",),
    "serve.engine.store_put_ms": ("serve.engine.store_put",),
    "serve.engine.store_get_ms": ("serve.engine.store_get",),
    "serve.service.service_ms": ("serve.service",),
    "serve.session.step_ms": ("serve.session",),
}

#: the compile pipeline, priced once per set-up in ``setup.compile_ms``.
COMPILE_LAYERS = ("prolog.parser", "compiler.normalize",
                  "compiler.linker.link")

#: operation span recorded by the timed loops around each operation.
ROOT = "op"


def pooled_end_to_end(shards: List[dict]) -> Metrics:
    """End-to-end metrics over the pooled samples of all shards."""
    latencies = [value for shard in shards for value in shard["latencies"]]
    elapsed = sum(shard["elapsed"] for shard in shards)
    return {
        "setup_s": (median([value for shard in shards
                            for value in shard["setup_s"]]), "s"),
        "ops_per_s": (sum(shard["units"] for shard in shards) / elapsed,
                      "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "host_klips": (sum(shard["inferences"] for shard in shards)
                       / elapsed / 1e3, "klips"),
        "peak_rss_mb": (median([shard["rss_mb"] for shard in shards]), "MB"),
    }


def mean_layers(shards: List[dict]) -> Metrics:
    """Per-layer metrics averaged over the shards."""
    names = shards[0]["layers"]
    return {name: (sum(shard["layers"][name][0] for shard in shards)
                   / len(shards), unit)
            for name, (_, unit) in names.items()}


def _merge(into: dict, totals: dict) -> None:
    for layer, (seconds, calls) in totals.items():
        into[layer][0] += seconds
        into[layer][1] += calls


def per_layer(untraced, traced, workers: int) -> Metrics:
    """Per-layer metrics of one traced loop.

    ``workers`` is the service's worker count when the machine layers
    ran in worker processes (``serve``); their self times are added to
    the layer metrics but not to the layer sum, which accounts for this
    process only.
    """
    extra = traced.extra
    ops = traced.ops
    since, until = extra["window"]
    spans = extra["tracer"].spans
    local = tr.self_times(spans, since, until + 1e-9)
    setup = tr.self_times(spans, until=since)
    combined = defaultdict(lambda: [0.0, 0])
    _merge(combined, local)
    for worker in extra.get("worker_spans", ()):
        _merge(combined, tr.self_times(worker, since, until + 1e-9))
    counts = extra["tracer"].counts

    def ms(layers) -> float:
        return sum(combined[layer][0] for layer in layers) * 1e3 / ops

    metrics: Metrics = {name: (ms(layers), "ms")
                        for name, layers in LAYER_MS.items()}
    execute_s = combined["core.machine.execute"][0]
    warm_klips = extra.get("warm_klips")
    if warm_klips is None:
        warm_klips = traced.inferences / execute_s / 1e3 if execute_s else 0.0
    translations = (combined["core.predecode"][1] if workers
                    else extra["translations"])
    lookups = extra["hits"] + extra["misses"]
    root_s, _ = local.get(ROOT, (0.0, 0))
    layers_s = sum(seconds for layer, (seconds, _) in local.items()
                   if layer != ROOT)
    op_s = sum(end - start for layer, start, end, _ in spans
               if layer == ROOT and since <= start <= until)
    metrics.update({
        "serve.cache.hit_ratio": (
            extra["hits"] / lookups if lookups else 0.0, "fraction"),
        "core.machine.host_klips": (warm_klips, "klips"),
        "core.machine.sim_cycles": (traced.cycles / ops, "count"),
        "core.predecode.first_run_tax_ms": (
            extra.get("first_run_tax", 0.0) * 1e3, "ms"),
        "core.predecode.translations_per_op": (translations / ops, "count"),
        "serve.engine.snapshot_bytes": (
            counts["snapshot_bytes"] / counts["snapshots"]
            if counts["snapshots"] else 0.0, "bytes"),
        "serve.engine.spills_per_step": (extra.get("spills", 0) / ops,
                                         "count"),
        "serve.engine.wakes_per_step": (extra.get("wakes", 0) / ops,
                                        "count"),
        "serve.service.engine_busy_frac": (extra.get("busy_frac", 0.0),
                                           "fraction"),
        "serve.service.dispatch_ms": (extra.get("dispatch", 0.0) * 1e3,
                                      "ms"),
        "serve.service.retries": (extra.get("retries", 0), "count"),
        "serve.service.respawns": (extra.get("respawns", 0), "count"),
        "serve.session.migrations": (extra.get("migrations", 0), "count"),
        "workload.op_ms": (op_s * 1e3 / ops, "ms"),
        "workload.layer_self_ms": (layers_s * 1e3 / ops, "ms"),
        "workload.unattributed_ms": (root_s * 1e3 / ops, "ms"),
        "workload.trace_overhead": (
            percentile(traced.latencies, 50)
            / percentile(untraced.latencies, 50), "ratio"),
        "setup.compile_ms": (
            sum(setup.get(layer, (0.0, 0))[0] for layer in COMPILE_LAYERS)
            * 1e3, "ms"),
    })
    return metrics
