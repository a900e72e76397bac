"""``cold_batch``: in-process ``SimRankService`` + ``ParallelExecutor``.

The code path ``repro batch --workers 2`` runs, on the Enron stand-in
(n=1600, ε=0.025).  Every source is queried at most once, in a seeded
permutation (70% ``top_k`` with k=10, 30% ``single_source``), so the
default cache is on but never reused and the kernels do nearly all of
the work.  The load is closed-loop: the next batch is submitted only
after the previous one has been answered, and a request's read latency is
its batch's round trip (the caller gets every answer of a batch at once).

The traffic has no sockets, pairs or writes, so a traced run measures
those layers with probes after the timed phase: seeded ``single_pair``
reads, a two-worker router that mmaps the run's own Enron index (socket
timing and one crash drill), and the write-path probe of :mod:`layers`.
"""

from __future__ import annotations

import random
import resource
import time

import layers
from common import (
    WORK,
    GateFailure,
    Router,
    Sample,
    check_answer,
    crash_drill,
    median,
    percentile,
    reference_value,
    stream_hash,
    tail_samples,
    truth_matrix,
)

NAME = "cold_batch"
DATASET = "Enron"
EPSILON = 0.025
WORKERS = 2
#: Requests per ``ParallelExecutor.run`` call (one closed-loop step):
#: small enough that a 20 s run has ~14 batches beyond its p95.
BATCH = 4
TOP_K_SHARE = 0.7
K = 10
#: Node answered by the set-up query; left out of the timed stream so no
#: source is ever queried twice.
SETUP_NODE = 0
GATE_READS = 12
SETUP_REPEATS = 2
#: Seeded ``single_pair`` reads of the traced run's pair probe.
PAIR_PROBE = 50
#: Health-check period of the traced run's probe router.
HEALTH_INTERVAL = 0.2


def _setup(ctx):
    from repro.engine import BackendConfig
    from repro.service import ParallelExecutor, ServiceConfig, SimRankService, TopKQuery

    started = time.perf_counter()
    service = SimRankService(ServiceConfig(
        scale=ctx.scale, seed=0, backend_config=BackendConfig(epsilon=EPSILON)
    ))
    executor = ParallelExecutor(service, workers=WORKERS)
    (result,) = executor.run([TopKQuery(DATASET, node=SETUP_NODE, k=K)])
    ctx.phases.record("setup", result.ok, result.error and result.error.code)
    if not result.ok:
        raise GateFailure(f"first query failed: {result.error}")
    return service, executor, time.perf_counter() - started


def _stream(ctx, num_nodes: int):
    """The seeded cold stream: a permutation of every other node."""
    from repro.evaluation.traffic import TrafficEvent
    from repro.service import SingleSourceQuery, TopKQuery

    rng = random.Random(ctx.seed)
    nodes = [node for node in range(num_nodes) if node != SETUP_NODE]
    rng.shuffle(nodes)
    events = []
    for index, node in enumerate(nodes):
        if rng.random() < TOP_K_SHARE:
            query = TopKQuery(DATASET, node=node, k=K)
        else:
            query = SingleSourceQuery(DATASET, node=node)
        events.append(TrafficEvent(index=index, phase="steady", query=query))
    ctx.streams[NAME] = stream_hash(events)
    return events


def _timed(ctx, service, executor, events, seconds: float, phase: str,
           position: int = 0):
    """Closed loop of ``BATCH``-sized ``run`` calls for ``seconds`` from
    ``events[position]``; returns ``(samples, wall, next_position)``.

    Should a fast program answer every source, the stream starts over on
    an emptied cache, so no answer is ever served from the cache."""
    samples = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        if position + BATCH > len(events):
            service.open_dataset(DATASET).engine().clear_cache()
            ctx.notes["stream_restarts"] = ctx.notes.get("stream_restarts", 0) + 1
            position = 0
        batch = events[position:position + BATCH]
        submitted = time.perf_counter()
        results = executor.run([event.query for event in batch])
        done = time.perf_counter()
        for event, result in zip(batch, results):
            ctx.phases.record(phase, result.ok, result.error and result.error.code)
            samples.append(Sample(event, result, done - submitted, done - started))
        position += BATCH
    return samples, time.perf_counter() - started, position


def _summarise(ctx, samples, phase: str) -> dict:
    """Throughput and read percentiles over the whole phase."""
    latencies = [sample.latency * 1000.0 for sample in samples]
    ctx.notes[f"{phase}.samples"] = len(samples)
    ctx.notes[f"{phase}.batches_beyond_p95"] = tail_samples(latencies, 95) // BATCH
    return {
        "throughput_qps": len(samples) / samples[-1].done,
        "read_p50_ms": percentile(latencies, 50),
        "read_p95_ms": percentile(latencies, 95),
    }


def _gate(ctx, service, answered) -> None:
    """Seeded served answers vs power-method truth (within ε) and vs the
    same index queried directly, bypassing executor and cache (exactly)."""
    session = service.open_dataset(DATASET)
    index = session.engine().backend.index
    truth = truth_matrix(session.graph)
    rng = random.Random(ctx.seed)
    for event, result, *_ in rng.sample(answered, min(GATE_READS, len(answered))):
        ctx.phases.record("gate", result.ok)
        node = event.query.node
        check_answer(event.kind, node, result.value, truth, EPSILON + 1e-9, NAME)
        if result.value != reference_value(event.kind, node, index, K):
            raise GateFailure(
                f"{NAME}: served {event.kind}({node}) differs from the index "
                "queried directly"
            )


def _pair_probe(ctx, service, num_nodes: int) -> None:
    """Seeded ``single_pair`` reads (the cold stream has none)."""
    from repro.service import SinglePairQuery

    rng = random.Random(ctx.seed)
    with ctx.tracer.span("phase", phase="probe.pairs"):
        for _ in range(PAIR_PROBE):
            u, v = rng.sample(range(num_nodes), 2)
            result = service.execute(SinglePairQuery(DATASET, node_u=u, node_v=v))
            ctx.phases.record("probe", result.ok, result.error and result.error.code)


def _net_probe(ctx, service) -> dict:
    """Save the run's index, serve it from a two-worker router (mmap), time
    the socket layers against it and kill its worker once."""
    from repro.service import SimRankClient, TopKQuery
    from repro.sling import save_index

    index_dir = WORK / NAME / "index"
    save_index(service.open_dataset(DATASET).engine().backend.index,
               index_dir / DATASET)
    router = Router(NAME, [
        "--scale", str(ctx.scale), "--epsilon", str(EPSILON), "--seed", "0",
        "--index-dir", str(index_dir.relative_to(WORK.parent)),
        "--pin", f"{DATASET}=0", "--health-interval", str(HEALTH_INTERVAL),
    ])
    client = None
    try:
        router.wait_listening()
        ready = time.perf_counter() - router.launched
        client = SimRankClient(address=router.address, timeout=120)
        hot = TopKQuery(DATASET, node=SETUP_NODE, k=K)
        first = client.execute(hot)
        ctx.phases.record("probe", first.ok, first.error and first.error.code)
        if not first.ok:
            raise GateFailure(f"probe router failed: {first.error}")
        metrics = layers.net_metrics(router, 0, hot)

        def same(value):
            if value != first.value:
                raise GateFailure(f"{NAME}: answer changed across a restart")

        metrics.update(layers.drill_metrics(
            ready, crash_drill(ctx, router, client, 0, hot, same)
        ))
        router.note_cpu(ctx.host)
    finally:
        router.stop(client)
    return metrics


def _traced(ctx, service, executor, events) -> tuple[dict, list]:
    """Half the timed phase untraced, half traced, then the probes.
    Returns ``(metrics, answered samples)``."""
    ctx.uninstrument()
    plain, _wall, position = _timed(ctx, service, executor, events,
                                    ctx.seconds / 2, "timed")
    untraced = _summarise(ctx, plain, "timed")
    ctx.instrument()
    with ctx.tracer.span("phase", phase="timed-traced"):
        traced, _wall, _ = _timed(ctx, service, executor, events,
                                  ctx.seconds / 2, "timed-traced", position)
    answered = plain + traced
    metrics = layers.build_metrics(ctx.tracer, "setup")
    ctx.check_build_phases(metrics)
    metrics.update(layers.engine_metrics(service.statistics()["totals"]))
    metrics.update(layers.parallel_metrics(ctx.tracer, WORKERS, "timed-traced"))
    metrics["trace.overhead_pct"] = -layers.overhead_pct(
        untraced["throughput_qps"],
        _summarise(ctx, traced, "timed-traced")["throughput_qps"],
    )
    pushes = ctx.push_calls
    _pair_probe(ctx, service, service.open_dataset(DATASET).num_nodes)
    # The latest answered sources are still cached: a hit path for the
    # client layer.
    hot = [sample.event.query for sample in traced[-50:]]
    metrics["service.client.overhead_us"] = layers.client_overhead_us(service, hot)
    metrics.update(layers.query_metrics(ctx.tracer, pushes))
    metrics.update(layers.wire_metrics(
        [s.event for s in answered], [s.result for s in answered]
    ))
    metrics.update(_net_probe(ctx, service))
    metrics.update(layers.write_path_probe(ctx, WORK / NAME / "probe-wal"))
    return metrics, answered


def run(ctx) -> dict:
    repeats = ctx.repeats(SETUP_REPEATS)
    setups = []
    for attempt in range(repeats):
        if attempt:
            executor.close()
            service.close_all()
        phase = "setup" if attempt == repeats - 1 else "setup-repeat"
        with ctx.tracer.span("phase", phase=phase):
            service, executor, seconds = _setup(ctx)
        setups.append(seconds)
    try:
        events = _stream(ctx, service.open_dataset(DATASET).num_nodes)
        if ctx.trace:
            metrics, answered = _traced(ctx, service, executor, events)
        else:
            answered, _wall, _ = _timed(ctx, service, executor, events,
                                        ctx.seconds, "timed")
            metrics = _summarise(ctx, answered, "timed")
            metrics["rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            metrics["setup_s"] = median(setups)
            ctx.notes["setup_runs_s"] = [round(s, 3) for s in setups]
        _gate(ctx, service, answered)
    finally:
        executor.close()
        service.close_all()
    return metrics
