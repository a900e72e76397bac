"""``write_mix``: writes beside reads through ``repro router --wal-dir``.

One closed-loop connection replays a seeded stream over the HepTh stand-in
(ε=0.1) in which about one event in ten is a single-edge ``mutate``
(fsync'd to the WAL before its ack).  After the timed phase the benchmark
brings the WAL to a fixed shape — one re-freezing compaction whose
checkpoint holds exactly ``CHECKPOINT_EDGES`` fixed edges, then ``TAIL``
fixed single-edge mutations — reads a few probe answers, and SIGKILLs the
owning worker once.  The recovered worker must answer every probe within
``eps_stale`` of its pre-crash value.  The recovery time (kill to the first
good answer) is printed beside the metrics; the router runs with a
``HEALTH_INTERVAL`` of 0.2 s, so detection adds almost nothing, and it is
reported on its own as ``service.net.detect_s`` by a traced run.

``throughput_qps`` counts reads and writes; with one write in ten at
~130 ms each, the writes take most of the timed phase, so the write path
(dynamic repair, WAL fsync, invalidation) sets it.  ``read_p50_ms`` and
``read_p95_ms`` are the reads between the writes.

The stream itself carries no re-freeze: a ~2 s re-freeze inside the timed
window would take the time of ~15 writes away from the write percentiles,
and the number landing in a run would depend on host speed.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import time

import layers
from common import (
    WORK,
    GateFailure,
    Router,
    check_answer,
    closed_loop,
    crash_drill,
    fresh_edges,
    median,
    percentile,
    stream_hash,
    tail_samples,
    truth_matrix,
)

NAME = "write_mix"
DATASET = "HepTh"
EPSILON = 0.1
WORKER = 0
HEALTH_INTERVAL = 0.2
MUTATION_FRACTION = 0.1
#: The timed stream holds one mutate in every ``WRITE_EVERY`` events.
WRITE_EVERY = 10
WARMUP_EVENTS = 100
#: Generated events: ~25 times what a 20 s timed phase replays today, so a
#: much faster write path still finds the stream long enough.
STREAM_EVENTS = 50000
#: Edges the pre-crash compaction leaves in the checkpoint.
CHECKPOINT_EDGES = 2
#: Single-edge mutations acknowledged after the checkpoint.
TAIL = 4
#: Seed of the drill's checkpoint edges, tail edges and probe nodes: fixed,
#: so every run's recovery replays identical work whatever its stream.
DRILL_SEED = 0
PROBE_NODES = 3
#: Pause between recovery probes, so probing does not compete for the CPU
#: the recovering worker needs.
PROBE_PAUSE = 0.025
GATE_READS = 8
SETUP_REPEATS = 3
#: Replayed reads the traced run re-runs through ``ParallelExecutor``.
PARALLEL_PROBE = 200


def _code(result):
    return result.error.code if result.error else None


def _setup(ctx):
    from repro.service import SimRankClient, TopKQuery

    shutil.rmtree(WORK / NAME, ignore_errors=True)
    wal_dir = WORK / NAME / "wal"
    started = time.perf_counter()
    router = Router(NAME, [
        "--scale", str(ctx.scale), "--epsilon", str(EPSILON), "--seed", "0",
        "--wal-dir", str(wal_dir.relative_to(WORK.parent)),
        "--pin", f"{DATASET}={WORKER}",
        "--health-interval", str(HEALTH_INTERVAL),
    ])
    try:
        router.wait_listening()
        ready = time.perf_counter() - router.launched
        client = SimRankClient(address=router.address, timeout=120)
        result = client.execute(TopKQuery(DATASET, node=0, k=10))
        ctx.phases.record("setup", result.ok, _code(result))
        if not result.ok:
            raise GateFailure(f"first query failed: {result.error}")
    except BaseException:
        router.stop()
        raise
    return router, client, time.perf_counter() - started, ready


class Writes:
    """Client-side record of acknowledged mutations, in ack order, and the
    graph they describe."""

    def __init__(self, base) -> None:
        self.base = base
        self.graph = base
        self.acked: list[str] = []
        self.since_refreeze = 0
        self.eps_stale = 0.0

    def note(self, request, result) -> None:
        if not result.ok:
            return
        self.acked.append(request.mutation_id)
        self.graph = self.graph.with_edges(list(request.add), list(request.remove))
        self.eps_stale = float(result.value["epsilon_stale"])
        self.since_refreeze = 0 if result.value.get("refrozen") else (
            self.since_refreeze + 1
        )


def _stream(ctx, num_nodes: int):
    from repro.evaluation.traffic import TrafficPattern, generate_traffic

    events = generate_traffic({DATASET: num_nodes}, TrafficPattern(
        num_queries=STREAM_EVENTS, seed=ctx.seed,
        mutation_fraction=MUTATION_FRACTION, mutation_batch=1,
    ))
    # Lay the generated reads and mutates out as exactly one mutate in every
    # WRITE_EVERY events (each keeps its order): a stream whose writes come
    # in clumps would make the share of the timed phase spent writing, and
    # so every figure, depend on the seed.
    reads = [event for event in events if event.kind != "mutate"]
    mutates = [event for event in events if event.kind == "mutate"]
    rounds = min(len(reads) // (WRITE_EVERY - 1), len(mutates))
    laid_out = []
    for number in range(rounds):
        laid_out += reads[number * (WRITE_EVERY - 1):(number + 1) * (WRITE_EVERY - 1)]
        laid_out.append(mutates[number])
    # Every mutate carries an idempotency token derived from its position,
    # so the WAL can be checked for each acknowledged id.
    laid_out = [
        dataclasses.replace(
            event,
            index=index,
            query=dataclasses.replace(
                event.query, mutation_id=f"wm-{ctx.seed}-{index}"
            ) if event.kind == "mutate" else event.query,
        )
        for index, event in enumerate(laid_out)
    ]
    ctx.streams[NAME] = stream_hash(laid_out)
    return laid_out


def _shape_wal(ctx, client, writes, rng):
    """Compact to ``base + D`` with a re-freeze (so the checkpoint holds
    exactly the drill's edges D), then acknowledge ``TAIL`` single-edge
    mutations.  Returns ``(sorted D, requests sent)``."""
    from repro.service.control import MutateRequest

    checkpoint = set(fresh_edges(rng, writes.base, CHECKPOINT_EDGES))
    tail = fresh_edges(rng, writes.base, TAIL, avoid=checkpoint)
    target = set(writes.base.edges()) | checkpoint
    now = set(writes.graph.edges())
    requests = [MutateRequest(
        dataset=DATASET,
        add=tuple(sorted(target - now)),
        remove=tuple(sorted(now - target)),
        refreeze=True,
        mutation_id=f"wm-{ctx.seed}-compact",
    )] + [
        MutateRequest(dataset=DATASET, add=(edge,),
                      mutation_id=f"wm-{ctx.seed}-tail-{number}")
        for number, edge in enumerate(tail, start=1)
    ]
    for request in requests:
        result = client.execute(request)
        ctx.phases.record("pre-crash", result.ok, _code(result))
        if not result.ok:
            raise GateFailure(f"pre-crash mutate failed: {result.error}")
        writes.note(request, result)
    return sorted(checkpoint), requests


def _match(before, after, tolerance: float, node: int) -> None:
    worst = max(abs(a - b) for a, b in zip(before, after))
    if len(before) != len(after) or worst > tolerance + 1e-12:
        raise GateFailure(
            f"{NAME}: post-recovery single_source({node}) differs from the "
            f"pre-crash answer by {worst:.4g} > eps_stale {tolerance:.4g}"
        )


def _check_wal(copy_dir, writes, checkpoint) -> int:
    """Every acked id survives; the tail holds exactly the acks since the
    checkpoint; the checkpoint holds exactly the drill's edges."""
    from repro.service.wal import MutationWAL

    with MutationWAL(copy_dir, DATASET) as wal:
        missing = [mid for mid in writes.acked if not wal.known(mid)]
        if missing:
            raise GateFailure(f"{NAME}: {len(missing)} acked mutation(s) lost")
        if len(wal.records) != writes.since_refreeze:
            raise GateFailure(
                f"{NAME}: WAL tail has {len(wal.records)} records, "
                f"{writes.since_refreeze} acks since the checkpoint"
            )
        stored = sorted(tuple(edge) for edge in wal.checkpoint_payload["added"])
        if stored != checkpoint or wal.checkpoint_payload["removed"]:
            raise GateFailure(f"{NAME}: checkpoint is not the compacted delta")
        return len(wal.records) + 1


def _gate_reads(ctx, client, writes, events, rng) -> None:
    """Seeded served reads (post-recovery) vs truth on the mutated graph."""
    truth = truth_matrix(writes.graph)
    tolerance = max(EPSILON, writes.eps_stale) + 1e-9
    reads = [e for e in events if e.kind in ("single_source", "top_k")]
    for event in rng.sample(reads, GATE_READS):
        result = client.execute(event.query)
        ctx.phases.record("gate", result.ok, _code(result))
        if not result.ok:
            raise GateFailure(f"{NAME}: gate read failed: {result.error}")
        check_answer(event.kind, event.query.node, result.value, truth,
                     tolerance, NAME)


def _summarise(ctx, samples, wall, phase: str) -> dict:
    """Throughput and read percentiles over the whole phase; the write
    percentiles go to the notes."""
    writes = []
    for sample in samples:
        ctx.phases.record(phase, sample.result.ok, _code(sample.result))
        if sample.event.kind == "mutate":
            writes.append(sample.latency * 1000.0)
    reads = [s.latency * 1000.0 for s in samples if s.event.kind != "mutate"]
    hits = sum(1 for s in samples if s.event.kind != "mutate" and s.result.cache_hit)
    ctx.notes[f"{phase}.reads"] = len(reads)
    ctx.notes[f"{phase}.read_hit_share"] = round(hits / max(1, len(reads)), 4)
    ctx.notes[f"{phase}.writes"] = len(writes)
    if len(writes) < 2 or len(reads) < 2:
        raise GateFailure(f"{NAME}: only {len(writes)} writes in {phase}")
    ctx.notes[f"{phase}.beyond_read_p95"] = tail_samples(reads, 95)
    ctx.notes[f"{phase}.write_p50_p90_ms"] = [
        round(percentile(writes, q), 3) for q in (50, 90)
    ]

    return {
        "throughput_qps": len(samples) / wall,
        "read_p50_ms": percentile(reads, 50),
        "read_p95_ms": percentile(reads, 95),
    }


def _in_process_layers(ctx, requests, copy_dir) -> dict:
    """Replay the same requests in-process with every layer wrapped, then
    recover a fresh service from a copy of the crashed worker's WAL."""
    from repro.engine import BackendConfig
    from repro.evaluation.traffic import TrafficEvent
    from repro.service import ServiceConfig, SimRankService

    def service(wal_dir):
        return SimRankService(ServiceConfig(
            scale=ctx.scale, seed=0, wal_dir=str(wal_dir),
            backend_config=BackendConfig(epsilon=EPSILON),
        ))

    replica = service(WORK / NAME / "replay-wal")
    try:
        results = []
        with ctx.tracer.span("phase", phase="replay"):
            for request in requests:
                results.append(replica.execute_request(request))
        metrics = layers.build_metrics(ctx.tracer, "replay")
        ctx.check_build_phases(metrics)
        metrics.update(layers.dynamic_metrics(ctx.tracer, "replay"))
        metrics.update(layers.query_metrics(ctx.tracer, ctx.push_calls))
        reads = [(request, result) for request, result in zip(requests, results)
                 if request.kind != "mutate"]
        metrics.update(layers.wire_metrics(
            [TrafficEvent(index=i, phase="steady", query=request)
             for i, (request, _) in enumerate(reads)],
            [result for _, result in reads],
        ))
        hot = [request for request, result in reads if result.cache_hit][-50:]
        metrics["service.client.overhead_us"] = layers.client_overhead_us(
            replica, hot
        )
        metrics.update(layers.parallel_probe(
            ctx, replica, [request for request, _ in reads][-PARALLEL_PROBE:]
        ))
    finally:
        replica.close_all()
    recovered = service(copy_dir)
    try:
        with ctx.tracer.span("phase", phase="recover"):
            recovered.open_dataset(DATASET)
    finally:
        recovered.close_all()
    metrics.update(layers.recovery_metrics(ctx.tracer, "recover"))
    return metrics


def run(ctx) -> dict:
    from repro.graphs import datasets
    from repro.service import SingleSourceQuery

    repeats = ctx.repeats(SETUP_REPEATS)
    setups = []
    for attempt in range(repeats):
        phase = "setup" if attempt == repeats - 1 else "setup-repeat"
        with ctx.tracer.span("phase", phase=phase):
            router, client, seconds, ready = _setup(ctx)
        setups.append(seconds)
        if attempt < repeats - 1:
            router.note_cpu(ctx.host)
            router.stop(client)
    try:
        base = datasets.load_dataset(DATASET, scale=ctx.scale, seed=0)
        writes = Writes(base)
        events = _stream(ctx, base.num_nodes)

        def track(event, result):
            if event.kind == "mutate":
                writes.note(event.query, result)

        warm, timed = events[:WARMUP_EVENTS], events[WARMUP_EVENTS:]
        samples, _ = closed_loop([client], warm, float("inf"), on_result=track)
        for sample in samples:
            ctx.phases.record("warmup", sample.result.ok, _code(sample.result))
        if ctx.trace:
            samples, wall = closed_loop([client], timed, ctx.seconds / 2,
                                        on_result=track)
            plain = _summarise(ctx, samples, wall, "timed")
            executed = WARMUP_EVENTS + len(samples)
            with ctx.tracer.span("phase", phase="timed-traced"):
                traced_samples, wall = closed_loop(
                    [client], events[executed:], ctx.seconds / 2,
                    on_result=track, tracer=ctx.tracer,
                )
            traced = _summarise(ctx, traced_samples, wall, "timed-traced")
            executed += len(traced_samples)
            metrics = {"trace.overhead_pct": (
                traced["read_p50_ms"] - plain["read_p50_ms"]
            ) / plain["read_p50_ms"] * 100.0}
            stats = client.stats()["totals"]
        else:
            samples, wall = closed_loop([client], timed, ctx.seconds,
                                        on_result=track)
            metrics = _summarise(ctx, samples, wall, "timed")
            executed = WARMUP_EVENTS + len(samples)

        drill = random.Random(DRILL_SEED)
        checkpoint, shaped = _shape_wal(ctx, client, writes, drill)
        probe_nodes = drill.sample(range(base.num_nodes), PROBE_NODES)
        probes = []
        for node in probe_nodes:
            result = client.execute(SingleSourceQuery(DATASET, node=node))
            ctx.phases.record("pre-crash", result.ok, _code(result))
            if not result.ok:
                raise GateFailure(f"pre-crash probe failed: {result.error}")
            probes.append((node, result.value, writes.eps_stale))
        rss = router.rss_mb()

        node, before, tolerance = probes[0]
        hot = SingleSourceQuery(DATASET, node=node)
        drill_result = crash_drill(
            ctx, router, client, WORKER, hot,
            lambda value: _match(before, value, tolerance, node),
            pause=PROBE_PAUSE,
        )
        ctx.notes["recovery_s"] = round(drill_result[0], 4)
        for node, before, tolerance in probes[1:]:
            result = client.execute(SingleSourceQuery(DATASET, node=node))
            ctx.phases.record("gate", result.ok, _code(result))
            if not result.ok:
                raise GateFailure(f"post-recovery probe failed: {result.error}")
            _match(before, result.value, tolerance, node)
        copy_dir = WORK / NAME / "wal-copy"
        shutil.copytree(WORK / NAME / "wal", copy_dir)
        replayed = _check_wal(copy_dir, writes, checkpoint)
        ctx.notes["wal.replayed_records"] = replayed
        ctx.notes["acked_mutations"] = len(writes.acked)
        _gate_reads(ctx, client, writes, events[:executed], random.Random(ctx.seed))
        if ctx.trace:
            metrics.update(layers.net_metrics(router, WORKER, hot))
        router.note_cpu(ctx.host)
    finally:
        router.stop(client)

    if ctx.trace:
        requests = [e.query for e in events[:executed]] + shaped
        metrics.update(_in_process_layers(ctx, requests, copy_dir))
        metrics.update(layers.engine_metrics(stats))
        metrics.update(layers.drill_metrics(ready, drill_result))
        return metrics
    metrics["setup_s"] = median(setups)
    metrics["rss_mb"] = rss
    ctx.notes["setup_runs_s"] = [round(s, 3) for s in setups]
    return metrics
