"""Per-layer measurement from outside: wrap public functions, read spans.

:func:`instrument` wraps the public entry points of each ``repro`` layer
with :class:`~common.Tracer` spans for the duration of a traced run; the
wrappers are removed again by ``tracer.unwrap_all()``.  The functions
below turn the recorded spans into the per-layer metrics named in
``BENCHMARK.json``.  Nothing here edits the program: every layer is timed
at the boundary the program already exposes.

Every traced run prints every per-layer metric.  Where a workload's own
traffic never reaches a layer, a fixed probe from this file exercises it
(see :func:`write_path_probe`, :func:`parallel_probe`, :func:`net_metrics`),
so a value always comes from a measurement, never a placeholder.
"""

from __future__ import annotations

import random
import time

from common import GateFailure, fresh_edges, median

#: The write-path probe for workloads whose traffic has no writes:
#: write_mix's dataset and ε, so one mutation costs ~130 ms, not ~1 s.
PROBE_DATASET = "HepTh"
PROBE_EPSILON = 0.1
PROBE_MUTATIONS = 4
#: The probe mutation that also re-freezes (so recovery replays a
#: checkpoint plus a tail).
PROBE_REFREEZE_AT = 1
#: Reads per differential socket timing probe.
NET_PROBES = 300
#: Requests per ``ParallelExecutor.run`` call in the executor probe.
PARALLEL_BATCH = 8

#: Index query methods timed as ``sling.query.<method>``.
_INDEX_METHODS = ("single_source", "single_pair", "top_k")


class Counter:
    """A call counter installed in place of a module-level function."""

    def __init__(self, owner, attribute: str) -> None:
        self.calls = 0
        self._owner = owner
        self._attribute = attribute
        self._original = getattr(owner, attribute)
        original = self._original

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        setattr(owner, attribute, counted)

    def restore(self) -> None:
        setattr(self._owner, self._attribute, self._original)


def instrument(tracer):
    """Wrap every layer boundary the per-layer metrics read.

    Returns the ``push_frontier`` call counter (a counter, not spans, so
    the kernel's own timing is not inflated by ~50 spans per query).
    """
    from repro.engine import backends
    from repro.graphs import datasets
    from repro.service import mutations, parallel, service, wal
    from repro.sling import dynamic, index, single_source, storage

    tracer.wrap(datasets, "load_dataset", "graphs.load")

    def build_stats(record, args, result) -> None:
        stats = result.build_statistics
        record.update(
            correction_s=stats.correction_seconds,
            push_s=stats.hitting_seconds,
            pack_s=stats.extra.get("pack_seconds", 0.0),
            entries=stats.num_hitting_entries,
            index_bytes=result.index_size_bytes(),
        )

    tracer.wrap(index.SlingIndex, "build", "sling.build", after=build_stats)
    for cls in (index.SlingIndex, storage.DiskBackedIndex, dynamic.DynamicSlingIndex):
        for method in _INDEX_METHODS:
            tracer.wrap(cls, method, f"sling.query.{method}")

    def repair_stats(record, args, result) -> None:
        record.update(affected_targets=result.affected_targets)

    tracer.wrap(dynamic.DynamicSlingIndex, "mutate", "sling.dynamic.mutate",
                after=repair_stats)
    tracer.wrap(dynamic.DynamicSlingIndex, "refreeze", "sling.dynamic.refreeze")
    for cls in (backends.SlingBackend, backends.DiskSlingBackend):
        for method in ("single_source", "single_pair"):
            tracer.wrap(cls, method, "engine.backend")

    def request_kind(args) -> dict:
        return {"kind": args[1].kind}

    def request_outcome(record, args, result) -> None:
        record.update(cache_hit=result.cache_hit, ok=result.ok)

    tracer.wrap(service.SimRankService, "execute", "service.execute",
                before=request_kind, after=request_outcome)
    tracer.wrap(parallel.ParallelExecutor, "run", "service.parallel.run")
    tracer.wrap(wal.MutationWAL, "append", "service.wal.append")

    def replay_count(record, args, result) -> None:
        record.update(replayed=result["replayed"])

    tracer.wrap(mutations, "recover_session", "service.mutations.recover",
                after=replay_count)
    return Counter(single_source, "push_frontier")


def _ms(values) -> float:
    return median(values) * 1000.0


def build_metrics(tracer, phase: str) -> dict:
    """``graphs.load_s`` and ``sling.build.*`` from one phase's spans,
    summed over every dataset built in it."""
    loads = [s for s in tracer.named("graphs.load")
             if tracer.inherited(s, "phase") == phase]
    builds = [s for s in tracer.named("sling.build")
              if tracer.inherited(s, "phase") == phase]
    if not builds:
        return {}
    total = sum(s["end"] - s["start"] for s in builds)
    return {
        "graphs.load_s": sum(s["end"] - s["start"] for s in loads),
        "sling.build.correction_s": sum(s["correction_s"] for s in builds),
        "sling.build.push_s": sum(s["push_s"] for s in builds),
        "sling.build.pack_s": sum(s["pack_s"] for s in builds),
        "sling.build.total_s": total,
        "sling.build.entries": sum(s["entries"] for s in builds),
        "sling.index_mb": sum(s["index_bytes"] for s in builds) / 2**20,
    }


def build_phase_share(metrics: dict) -> float:
    """(correction + push + pack) / outside-timed build."""
    phases = (
        metrics["sling.build.correction_s"]
        + metrics["sling.build.push_s"]
        + metrics["sling.build.pack_s"]
    )
    return phases / metrics["sling.build.total_s"]


def query_metrics(tracer, push_calls: int) -> dict:
    """``sling.query.*``, ``engine.backend_ms`` and ``service.execute_us``.

    Index time per request kind is the duration of the outermost index
    span under a ``service.execute`` span of that kind (the engine answers
    ``top_k`` by ranking a single-source vector, so a ``top_k`` request's
    index time is that vector's computation).
    """
    per_kind: dict[str, list[float]] = {}
    sources = 0
    for span in tracer.spans:
        name = span["name"]
        if not name.startswith("sling.query."):
            continue
        if name == "sling.query.single_source":
            sources += 1
        kind = tracer.inherited(span, "kind")
        enclosing = tracer.parent(span)
        if kind is None or (
            enclosing is not None and enclosing["name"].startswith("sling.query.")
        ):
            continue
        per_kind.setdefault(kind, []).append(span["end"] - span["start"])
    out = {}
    for kind in ("single_source", "top_k", "single_pair"):
        if per_kind.get(kind):
            out[f"sling.query.{kind}_ms"] = _ms(per_kind[kind])
    if sources:
        out["sling.query.push_frontier_calls"] = push_calls / sources
    backend = tracer.durations("engine.backend")
    if backend:
        out["engine.backend_ms"] = _ms(backend)
    hits = tracer.durations("service.execute", cache_hit=True)
    if hits:
        out["service.execute_us"] = median(hits) * 1e6
    return out


def engine_metrics(totals: dict) -> dict:
    """``engine.*`` counters from a service's (or router's) stats totals."""
    return {
        "engine.hit_rate": float(totals["cache_hit_rate"]),
        "engine.evictions": float(totals["cache_evictions"]),
        "engine.invalidations": float(totals["cache_invalidations"]),
    }


def _in_phase(tracer, name: str, phase: str) -> list[dict]:
    return [s for s in tracer.named(name) if tracer.inherited(s, "phase") == phase]


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def dynamic_metrics(tracer, phase: str) -> dict:
    """``sling.dynamic.*`` and ``service.wal.append_ms`` from one phase."""
    repairs = _in_phase(tracer, "sling.dynamic.mutate", phase)
    refreezes = _in_phase(tracer, "sling.dynamic.refreeze", phase)
    appends = _in_phase(tracer, "service.wal.append", phase)
    if not (repairs and refreezes and appends):
        raise GateFailure(f"{phase}: the write path was not exercised")
    return {
        "sling.dynamic.repair_ms": _ms([_duration(s) for s in repairs]),
        "sling.dynamic.affected_targets": median(
            [s["affected_targets"] for s in repairs]
        ),
        "sling.dynamic.refreeze_s": median([_duration(s) for s in refreezes]),
        "service.wal.append_ms": _ms([_duration(s) for s in appends]),
    }


def recovery_metrics(tracer, phase: str) -> dict:
    """``service.mutations.*`` from the one WAL recovery of ``phase``."""
    (span,) = _in_phase(tracer, "service.mutations.recover", phase)
    return {
        "service.mutations.replay_s": _duration(span),
        "service.mutations.replayed": span["replayed"],
    }


def write_path_probe(ctx, work_dir) -> dict:
    """Exercise the write path in-process for a workload whose traffic has
    no writes: ``PROBE_MUTATIONS`` fixed single-edge mutates (WAL append,
    dynamic repair, one re-freeze) on a WAL-backed service, then a fresh
    service recovers from that WAL.  Returns the ``sling.dynamic.*``,
    ``service.wal.append_ms`` and ``service.mutations.*`` metrics."""
    from repro.engine import BackendConfig
    from repro.service import ServiceConfig, SimRankService
    from repro.service.control import MutateRequest

    def service():
        return SimRankService(ServiceConfig(
            scale=ctx.scale, seed=0, wal_dir=str(work_dir),
            backend_config=BackendConfig(epsilon=PROBE_EPSILON),
        ))

    live = service()
    try:
        with ctx.tracer.span("phase", phase="probe.write"):
            graph = live.open_dataset(PROBE_DATASET).graph
            edges = fresh_edges(random.Random(0), graph, PROBE_MUTATIONS)
            for number, edge in enumerate(edges):
                result = live.execute_request(MutateRequest(
                    dataset=PROBE_DATASET, add=(edge,),
                    refreeze=number == PROBE_REFREEZE_AT,
                    mutation_id=f"probe-{number}",
                ))
                ctx.phases.record("probe", result.ok,
                                  result.error and result.error.code)
                if not result.ok:
                    raise GateFailure(f"probe mutate failed: {result.error}")
    finally:
        live.close_all()
    recovered = service()
    try:
        with ctx.tracer.span("phase", phase="probe.recover"):
            recovered.open_dataset(PROBE_DATASET)
    finally:
        recovered.close_all()
    metrics = dynamic_metrics(ctx.tracer, "probe.write")
    metrics.update(recovery_metrics(ctx.tracer, "probe.recover"))
    return metrics


def parallel_metrics(tracer, workers: int, phase: str) -> dict:
    """Executor busy share and submit-to-start gap of the
    ``ParallelExecutor.run`` calls made in ``phase``."""
    busy = 0.0
    wall = 0.0
    waits = []
    executes = tracer.named("service.execute")
    for run in _in_phase(tracer, "service.parallel.run", phase):
        wall += _duration(run)
        for span in executes:
            if run["start"] <= span["start"] <= run["end"]:
                busy += _duration(span)
                waits.append(span["start"] - run["start"])
    if not waits:
        raise GateFailure(f"{phase}: no executor work was traced")
    return {
        "service.parallel.efficiency": busy / (workers * wall),
        "service.parallel.queue_wait_ms": median(waits) * 1000.0,
    }


def parallel_probe(ctx, service, queries, workers: int = 2) -> dict:
    """Run ``queries`` through ``ParallelExecutor(workers)`` in batches of
    ``PARALLEL_BATCH`` (for workloads that never call the executor)."""
    from repro.service import ParallelExecutor

    executor = ParallelExecutor(service, workers=workers)
    try:
        with ctx.tracer.span("phase", phase="probe.parallel"):
            for start in range(0, len(queries), PARALLEL_BATCH):
                for result in executor.run(queries[start:start + PARALLEL_BATCH]):
                    ctx.phases.record("probe", result.ok,
                                      result.error and result.error.code)
    finally:
        executor.close()
    return parallel_metrics(ctx.tracer, workers, "probe.parallel")


def net_metrics(router, worker: int, hot_query) -> dict:
    """Differential socket timing against a live router and its worker
    ``worker``, which must hold ``hot_query`` in its cache: worker ``ping``
    p50, direct cached read minus ping, routed read minus direct read."""
    from repro.service import SimRankClient
    from repro.service.control import PingRequest

    direct = SimRankClient(address=router.worker_address(worker), timeout=60)
    via = SimRankClient(address=router.address, timeout=60)
    try:
        for client in (direct, via):
            result = client.execute(hot_query)
            if not result.ok:
                raise GateFailure(f"net probe failed: {result.error}")
        pings, direct_reads, routed_reads = [], [], []
        for _ in range(NET_PROBES):
            start = time.perf_counter()
            direct.execute(PingRequest())
            pings.append(time.perf_counter() - start)
            start = time.perf_counter()
            direct.execute(hot_query)
            direct_reads.append(time.perf_counter() - start)
            start = time.perf_counter()
            via.execute(hot_query)
            routed_reads.append(time.perf_counter() - start)
    finally:
        direct.close()
        via.close()
    transport = _ms(pings)
    worker_ms = _ms(direct_reads)
    return {
        "service.net.transport_ms": transport,
        "service.net.worker_ms": worker_ms - transport,
        "service.net.router_hop_ms": _ms(routed_reads) - worker_ms,
    }


def drill_metrics(ready_s: float, drill) -> dict:
    """``service.net.{spawn_ready_s,detect_s,unavailable}`` from a router's
    launch-to-hello time and one :func:`common.crash_drill` result."""
    _recovered, detect, unavailable = drill
    return {
        "service.net.spawn_ready_s": ready_s,
        "service.net.detect_s": detect,
        "service.net.unavailable": float(unavailable),
    }


def wire_metrics(events, results) -> dict:
    """``encode_result`` / ``decode_envelope`` p50 on the workload's own
    request and response messages."""
    from repro.service.wire import decode_envelope, encode_result

    decode, encode = [], []
    for event, result in zip(events, results):
        payload = event.to_wire()
        start = time.perf_counter()
        decode_envelope(payload)
        decode.append(time.perf_counter() - start)
        start = time.perf_counter()
        encode_result(result)
        encode.append(time.perf_counter() - start)
    return {
        "service.wire.decode_us": median(decode) * 1e6,
        "service.wire.encode_us": median(encode) * 1e6,
    }


def client_overhead_us(service, queries, rounds: int = 5) -> float:
    """p50 of ``SimRankClient.in_process(service).execute`` minus p50 of a
    direct ``service.execute`` on the same (cached) queries."""
    from repro.service.client import SimRankClient

    client = SimRankClient.in_process(service)
    direct, wrapped = [], []
    for _ in range(rounds):
        for query in queries:
            start = time.perf_counter()
            service.execute(query)
            direct.append(time.perf_counter() - start)
            start = time.perf_counter()
            client.execute(query)
            wrapped.append(time.perf_counter() - start)
    client.close()
    return (median(wrapped) - median(direct)) * 1e6


def overhead_pct(untraced: float, traced: float) -> float:
    """Tracing overhead on one end-to-end number, in percent."""
    return (traced - untraced) / untraced * 100.0

