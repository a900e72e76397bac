"""Shared plumbing for the perfbench workloads.

Everything here is the benchmark's own code: it drives the ``repro``
package only through its public functions, classes and the ``repro``
command line, and times those calls from outside.

* :class:`Tracer` records spans (name, start, end, parent) in memory and
  writes them out once at the end of a traced run.
* :class:`Phases` keeps attempted / ok / failed-by-error-code counts for
  every phase of a workload.
* :class:`Router` launches ``repro router``, finds its worker processes,
  and stops all of them.
* The ``/proc`` helpers read guest steal ticks, per-process CPU seconds
  and peak RSS, so a slow-host run is visible beside its numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

#: The checkout the benchmark runs in; every file it touches lives below.
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Scratch space, wiped at the start and end of every run.
WORK = ROOT / ".perfbench_work"
#: Trace files from ``--trace 1`` runs (kept for inspection).
OUT = ROOT / ".perfbench_out"

#: Named second seed that any later performance claim must also hold on.
HELD_OUT_SEED = 7919

#: Every metric the benchmark prints, with its unit (``BENCHMARK.json``
#: lists the same names and units; the self-test checks they agree).  Every
#: workload prints every end-to-end metric untraced and every per-layer
#: metric traced.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "graphs.load_s": "s",
    "sling.build.correction_s": "s",
    "sling.build.push_s": "s",
    "sling.build.pack_s": "s",
    "sling.build.total_s": "s",
    "sling.build.entries": "count",
    "sling.index_mb": "MiB",
    "sling.query.single_source_ms": "ms",
    "sling.query.top_k_ms": "ms",
    "sling.query.single_pair_ms": "ms",
    "sling.query.push_frontier_calls": "count",
    "sling.dynamic.repair_ms": "ms",
    "sling.dynamic.affected_targets": "count",
    "sling.dynamic.refreeze_s": "s",
    "engine.hit_rate": "ratio",
    "engine.evictions": "count",
    "engine.invalidations": "count",
    "engine.backend_ms": "ms",
    "service.execute_us": "us",
    "service.parallel.efficiency": "ratio",
    "service.parallel.queue_wait_ms": "ms",
    "service.wire.encode_us": "us",
    "service.wire.decode_us": "us",
    "service.wal.append_ms": "ms",
    "service.mutations.replay_s": "s",
    "service.mutations.replayed": "count",
    "service.net.transport_ms": "ms",
    "service.net.worker_ms": "ms",
    "service.net.router_hop_ms": "ms",
    "service.net.spawn_ready_s": "s",
    "service.net.detect_s": "s",
    "service.net.unavailable": "count",
    "service.client.overhead_us": "us",
    "trace.overhead_pct": "%",
}


class GateFailure(Exception):
    """A correctness gate did not hold: the run reports failure, not numbers."""


def subprocess_env() -> dict:
    """Environment for every child process: the checkout's ``src`` on the
    path and temporary files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), env["PYTHONPATH"]] if env.get("PYTHONPATH") else [str(SRC)]
    )
    env["TMPDIR"] = str(WORK / "tmp")
    env.pop("REPRO_FAULT_SLOW_MS", None)
    env.pop("REPRO_WAL_FAIL_AFTER_BYTES", None)
    return env


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    if len(values) == 0:
        raise GateFailure(f"no samples for percentile {q}")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


def tail_samples(values, q: float) -> int:
    """How many samples lie strictly beyond percentile ``q``."""
    cut = percentile(values, q)
    return int(sum(1 for value in values if value > cut))


def stream_hash(events) -> str:
    """Short SHA-256 of a generated request stream's wire form."""
    digest = hashlib.sha256()
    for event in events:
        digest.update(json.dumps(event.to_wire(), sort_keys=True).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------------- #
class Tracer:
    """In-memory spans with parent links; a disabled tracer records nothing.

    Spans nest per thread: a span opened while another is open on the same
    thread records that one as its parent and adds its duration to the
    parent's ``child_s``, so a layer's self time is ``end - start -
    child_s``.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._restore: list = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._next += 1
            span_id = self._next
        record = {
            "id": span_id,
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "child_s": 0.0,
            **attrs,
        }
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()
            if stack:
                stack[-1]["child_s"] += record["end"] - record["start"]
            with self._lock:
                self.spans.append(record)

    def wrap(self, owner, attribute: str, name: str, *, before=None,
             after=None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper until
        :meth:`unwrap_all`.  ``before(args)`` returns attributes recorded
        when the span opens; ``after(record, args, result)`` may add more
        once the call returns."""
        original = getattr(owner, attribute)
        in_dict = attribute in vars(owner)
        tracer = self

        def wrapper(*args, **kwargs):
            attrs = before(args) if before is not None else {}
            with tracer.span(name, **attrs) as record:
                result = original(*args, **kwargs)
                if after is not None and record is not None:
                    after(record, args, result)
                return result

        setattr(owner, attribute, wrapper)
        self._restore.append((owner, attribute, original, in_dict))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attribute, original, in_dict = self._restore.pop()
            if in_dict:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def named(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    def durations(self, name: str, **match) -> list[float]:
        """Durations (seconds) of spans called ``name`` whose attributes
        equal ``match``."""
        return [
            span["end"] - span["start"]
            for span in self.named(name)
            if all(span.get(key) == value for key, value in match.items())
        ]

    def parent(self, span: dict) -> dict | None:
        """The span that caused ``span`` (``None`` for a root)."""
        index = getattr(self, "_by_id", None)
        if index is None or len(index) != len(self.spans):
            index = self._by_id = {s["id"]: s for s in self.spans}
        return index.get(span["parent"])

    def inherited(self, span: dict, key: str):
        """The nearest value of attribute ``key`` on ``span`` or an ancestor."""
        while span is not None:
            if key in span:
                return span[key]
            span = self.parent(span)
        return None

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, default=str) + "\n")


# --------------------------------------------------------------------------- #
# Failure accounting
# --------------------------------------------------------------------------- #
class Phases:
    """attempted / ok / failed-by-error-code per phase of one workload.

    ``expected`` error codes of a phase (``unavailable`` while a worker
    recovers) are reported under that phase but not counted as failures.
    """

    def __init__(self) -> None:
        self._phases: dict[str, dict] = {}
        self._lock = threading.Lock()

    def record(self, phase: str, ok: bool, code: str | None = None) -> None:
        with self._lock:
            entry = self._phases.setdefault(
                phase, {"attempted": 0, "ok": 0, "failed": {}, "expected": {}}
            )
            entry["attempted"] += 1
            if ok:
                entry["ok"] += 1
            else:
                key = code or "error"
                entry["failed"][key] = entry["failed"].get(key, 0) + 1

    def expect(self, phase: str, code: str) -> None:
        """Move ``code`` failures of ``phase`` to its expected column."""
        with self._lock:
            entry = self._phases.get(phase)
            if entry and code in entry["failed"]:
                entry["expected"][code] = entry["failed"].pop(code)

    def attempted(self) -> int:
        return sum(entry["attempted"] for entry in self._phases.values())

    def failed(self) -> int:
        return sum(
            sum(entry["failed"].values()) for entry in self._phases.values()
        )

    def as_dict(self) -> dict:
        return json.loads(json.dumps(self._phases))


# --------------------------------------------------------------------------- #
# Host noise
# --------------------------------------------------------------------------- #
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def host_steal_ticks() -> int:
    """Guest steal ticks summed over all CPUs (``/proc/stat``)."""
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("cpu "):
                fields = line.split()
                return int(fields[8]) if len(fields) > 8 else 0
    return 0


def process_cpu_seconds(pid: int) -> float | None:
    """User + system CPU seconds of a live process, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def process_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise GateFailure(f"no VmHWM for pid {pid}")


def self_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


class HostRecord:
    """Wall time, steal ticks and CPU seconds per process over one run."""

    def __init__(self) -> None:
        self.start_wall = time.perf_counter()
        self.start_steal = host_steal_ticks()
        self.cpu: dict[str, float] = {}

    def note_cpu(self, label: str, seconds: float | None) -> None:
        if seconds is not None:
            self.cpu[label] = round(self.cpu.get(label, 0.0) + seconds, 3)

    def as_dict(self) -> dict:
        self.note_cpu("benchmark", self_cpu_seconds())
        return {
            "wall_s": round(time.perf_counter() - self.start_wall, 3),
            "steal_ticks": host_steal_ticks() - self.start_steal,
            "clk_tck": _CLK_TCK,
            "cpu_s": self.cpu,
            "nproc": os.cpu_count(),
        }


# --------------------------------------------------------------------------- #
# The router under test
# --------------------------------------------------------------------------- #
def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
                out.extend(int(child) for child in fh.read().split())
        except OSError:
            continue
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


class Router:
    """One ``repro router`` process plus its workers, inside :data:`WORK`.

    Listens on a Unix socket; the workers' sockets live in ``run_dir`` so
    the benchmark can reach a worker directly for differential timing.
    """

    def __init__(self, name: str, args: list[str], *, workers: int = 2) -> None:
        self.dir = WORK / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.socket = self.dir / "router.sock"
        self.run_dir = self.dir / "run"
        self.workers = workers
        self.log_path = self.dir / "router.log"
        self._log = open(self.log_path, "wb")
        command = [
            sys.executable, "-m", "repro.cli", "router",
            "--workers", str(workers),
            "--unix", os.path.relpath(self.socket, ROOT),
            "--run-dir", os.path.relpath(self.run_dir, ROOT),
            *args,
        ]
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=subprocess_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self._known_workers: set[int] = set()

    @property
    def address(self) -> str:
        return "unix:" + os.path.relpath(self.socket, ROOT)

    def worker_address(self, index: int) -> str:
        return "unix:" + os.path.relpath(
            self.run_dir / f"worker-{index}.sock", ROOT
        )

    def wait_listening(self, timeout: float = 120.0) -> None:
        """Block until the router announces its socket (workers are ready)."""
        line = [None]

        def read() -> None:
            line[0] = self.process.stdout.readline()

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout)
        if not line[0] or b'"listening"' not in line[0]:
            raise GateFailure(
                f"router did not announce within {timeout:.0f}s: "
                f"{self.log_path.read_text(errors='replace')[-800:]}"
            )

    def worker_pid(self, index: int) -> int | None:
        """Live pid of worker ``index`` (matched by its socket path)."""
        marker = f"worker-{index}.sock".encode()
        for child in _children(self.process.pid):
            try:
                with open(f"/proc/{child}/cmdline", "rb") as fh:
                    cmdline = fh.read()
            except OSError:
                continue
            if marker in cmdline and _alive(child):
                self._known_workers.add(child)
                return child
        return None

    def serving_pids(self) -> list[int]:
        pids = [self.process.pid]
        for index in range(self.workers):
            pid = self.worker_pid(index)
            if pid is not None:
                pids.append(pid)
        return pids

    def rss_mb(self) -> float:
        """Peak RSS summed over the router and its live workers."""
        return sum(process_hwm_mb(pid) for pid in self.serving_pids())

    def note_cpu(self, host: "HostRecord") -> None:
        """Add the CPU seconds of the router and its live workers to the
        host record, one entry per process role."""
        host.note_cpu("router", process_cpu_seconds(self.process.pid))
        for index in range(self.workers):
            pid = self.worker_pid(index)
            if pid is not None:
                host.note_cpu(f"worker-{index}", process_cpu_seconds(pid))

    def stop(self, client=None) -> None:
        """Shut the router down (``shutdown`` request, then signals) and
        make sure no worker it ever had is left running."""
        for index in range(self.workers):
            self.worker_pid(index)
        if client is not None and self.process.poll() is None:
            try:
                client.shutdown()
            except Exception:  # noqa: BLE001 - fall through to signals
                pass
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        for pid in self._known_workers:
            deadline = time.monotonic() + 10
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
                while _alive(pid) and time.monotonic() < deadline + 5:
                    time.sleep(0.02)
        self.process.stdout.close()
        self._log.close()


def wait_gone(pid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.005)


def crash_drill(ctx, router, client, worker: int, query, check,
                pause: float = 0.025):
    """SIGKILL worker ``worker`` and read ``query`` every ``pause`` seconds
    until it answers ok; ``check(value)`` then gates the answer.

    Returns ``(recovered_s, detect_s, unavailable)``: kill to first good
    answer, kill to the replacement pid seen, and ``unavailable`` answers
    in between (expected in the ``recovery`` phase, not failures)."""
    victim = router.worker_pid(worker)
    if victim is None:
        raise GateFailure(f"worker {worker} not found")
    ctx.host.note_cpu(f"worker-{worker} (killed)", process_cpu_seconds(victim))
    killed = time.perf_counter()
    os.kill(victim, signal.SIGKILL)
    detect = None
    unavailable = 0
    deadline = killed + 120.0
    while True:
        if detect is None:
            pid = router.worker_pid(worker)
            if pid is not None and pid != victim:
                detect = time.perf_counter() - killed
        result = client.execute(query)
        code = result.error.code if result.error else None
        ctx.phases.record("recovery", result.ok, code)
        if result.ok:
            recovered = time.perf_counter() - killed
            check(result.value)
            break
        unavailable += 1
        if time.perf_counter() > deadline:
            raise GateFailure(f"worker {worker} did not recover within 120 s")
        time.sleep(pause)
    wait_gone(victim)
    ctx.phases.expect("recovery", "unavailable")
    return recovered, recovered if detect is None else detect, unavailable


# --------------------------------------------------------------------------- #
# Closed-loop load
# --------------------------------------------------------------------------- #
class Sample(NamedTuple):
    """One answered request of a closed loop."""

    event: object
    result: object
    #: Client-observed latency, seconds.
    latency: float
    #: Completion time, seconds since the loop started.
    done: float


def closed_loop(clients, events, seconds: float, *, on_result=None,
                tracer=None):
    """Replay ``events`` in order over ``clients`` (one thread per client,
    each waiting for its answer before taking the next event) for
    ``seconds``.  Returns ``(samples, wall_seconds)`` with one
    :class:`Sample` per answered request.  With a ``tracer`` every request
    is also recorded as a ``client.request`` span."""
    lock = threading.Lock()
    cursor = [0]
    samples: list[list] = [[] for _ in clients]

    def run(slot: int) -> None:
        client = clients[slot]
        out = samples[slot]
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(events) or time.perf_counter() >= stop_at:
                return
            event = events[index]
            start = time.perf_counter()
            if tracer is None:
                result = client.execute(event.query)
            else:
                with tracer.span("client.request", kind=event.kind):
                    result = client.execute(event.query)
            done = time.perf_counter()
            out.append(Sample(event, result, done - start, done - started))
            if on_result is not None:
                on_result(event, result)

    threads = [
        threading.Thread(target=run, args=(slot,), daemon=True)
        for slot in range(len(clients))
    ]
    started = time.perf_counter()
    stop_at = started + seconds
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if cursor[0] >= len(events) and seconds != float("inf"):
        raise GateFailure("request stream exhausted before the timed phase ended")
    return [sample for chunk in samples for sample in chunk], wall


def fresh_edges(rng, graph, count: int, avoid=()) -> list[tuple[int, int]]:
    """``count`` distinct edges absent from ``graph`` and ``avoid``."""
    edges: list[tuple[int, int]] = []
    while len(edges) < count:
        u, v = rng.randrange(graph.num_nodes), rng.randrange(graph.num_nodes)
        if u != v and not graph.has_edge(u, v) and (u, v) not in avoid \
                and (u, v) not in edges:
            edges.append((u, v))
    return edges


# --------------------------------------------------------------------------- #
# Correctness against power-method truth
# --------------------------------------------------------------------------- #
def truth_matrix(graph) -> np.ndarray:
    """All-pairs SimRank by the power method, to ~1e-9."""
    from repro.baselines import PowerMethod

    return PowerMethod(graph, c=0.6, num_iterations=40).build().all_pairs()


def check_answer(kind: str, node: int, value, truth: np.ndarray, tolerance: float,
                 label: str) -> None:
    """Raise :class:`GateFailure` unless a served ``single_source`` vector
    or ``top_k`` list is within ``tolerance`` of ``truth``."""
    row = truth[int(node)]
    if kind == "single_source":
        served = np.asarray(value, dtype=np.float64)
        if served.shape != row.shape:
            raise GateFailure(f"{label}: vector of shape {served.shape}")
        error = float(np.max(np.abs(served - row)))
    elif kind == "top_k":
        if not value:
            raise GateFailure(f"{label}: empty top-k")
        error = max(abs(item["score"] - row[item["node"]]) for item in value)
        scores = [item["score"] for item in value]
        if scores != sorted(scores, reverse=True) or any(
            item["node"] == node for item in value
        ):
            raise GateFailure(f"{label}: top-k not ranked or contains the source")
    else:
        raise GateFailure(f"{label}: unexpected kind {kind}")
    if not error <= tolerance:
        raise GateFailure(
            f"{label}: {kind}({node}) error {error:.4g} exceeds {tolerance:.4g}"
        )


def reference_value(kind: str, node: int, index, k: int):
    """The wire-form answer an in-process index gives to one read."""
    if kind == "single_source":
        return index.single_source(int(node)).tolist()
    return [
        {"rank": rank, "node": int(target), "score": float(score)}
        for rank, (target, score) in enumerate(index.top_k(int(node), k), start=1)
    ]
