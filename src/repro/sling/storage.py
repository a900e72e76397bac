"""Index persistence and out-of-core construction (Section 5.4).

The paper notes that SLING does not need the whole index in main memory:

* only the ``n`` correction factors must stay resident; the per-node hitting
  sets ``H(v)`` can live on disk and be fetched with O(1) I/O per query,
* during construction the per-target residual sets ``R_k`` can be streamed to
  disk and an external sort by source node then produces the per-source sets.

This module implements both sides on top of the packed columnar store of
:mod:`repro.sling.packed`:

* :func:`save_index` / :func:`load_index` — the store's flat arrays are
  written as individual ``.npy`` files (format version 2) and loaded back
  with ``np.load(..., mmap_mode="r")``: **no dict round-trip**, so loading is
  O(1)-ish in index size and queries fault in only the pages they slice,
* :class:`DiskBackedIndex` — the mmap load plus an I/O counter, answering
  every query through the shared :class:`~repro.sling.queries.SlingQueries`
  surface (two column slices per pair query),
* :func:`out_of_core_build` — Algorithm 2 with a bounded in-memory buffer:
  records are spilled to sorted run files and merged straight into the packed
  store, mimicking the Figure-10 experiment where the memory buffer is varied
  from 256 MB down.

Version-1 directories (one compressed ``sling_data.npz``) are still readable;
their columns are re-sorted into the packed key order at load time.
"""

from __future__ import annotations

import heapq
import json
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..exceptions import ParameterError, StorageError
from ..graphs import DiGraph
from .correction import estimate_all_correction_factors
from .hitting import reverse_push
from .index import SlingIndex
from .packed import PackedHittingStore, QueryView
from .parameters import SlingParameters
from .queries import SlingQueries
from .walks import SqrtCWalker

__all__ = [
    "save_index",
    "load_index",
    "has_saved_index",
    "DiskBackedIndex",
    "out_of_core_build",
    "OutOfCoreBuildReport",
]

_META_FILE = "sling_meta.json"
#: Version-1 archive (kept readable for old index directories).
_LEGACY_DATA_FILE = "sling_data.npz"
_CORRECTIONS_FILE = "sling_corrections.npy"
_REDUCED_FILE = "sling_reduced.npy"
#: Current on-disk format: per-column ``.npy`` files, memory-mappable.
FORMAT_VERSION = 2
#: On-disk size of one hitting-probability record: source, level, target, value.
_RECORD_STRUCT = struct.Struct("<iiif")
RECORD_BYTES = _RECORD_STRUCT.size


# --------------------------------------------------------------------------- #
# Save / load
# --------------------------------------------------------------------------- #
def save_index(index: SlingIndex, directory: str | Path) -> Path:
    """Serialize a built index to ``directory`` (created if missing).

    The packed store's columns are written directly as uncompressed ``.npy``
    files — the on-disk layout *is* the query-time layout, which is what
    makes the zero-copy ``mmap`` load possible.
    """
    if not index.is_built:
        raise StorageError("cannot save an index that has not been built")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    index.packed_store.save(directory)
    np.save(directory / _CORRECTIONS_FILE, index.correction_factors)
    reduced = (
        index._reduced
        if index._reduced is not None
        else np.zeros(index.graph.num_nodes, dtype=bool)
    )
    np.save(directory / _REDUCED_FILE, reduced)
    params = index.parameters
    meta = {
        "format_version": FORMAT_VERSION,
        "num_nodes": index.graph.num_nodes,
        "num_edges": index.graph.num_edges,
        "c": params.c,
        "epsilon": params.epsilon,
        "delta": params.delta,
        "epsilon_d": params.epsilon_d,
        "theta": params.theta,
        "delta_d": params.delta_d,
        "reduce_space": index._reduced is not None,
        "enhance_accuracy": index._enhancer is not None,
    }
    (directory / _META_FILE).write_text(json.dumps(meta, indent=2), encoding="utf-8")
    return directory


def has_saved_index(directory: str | Path) -> bool:
    """Whether ``directory`` holds a saved index (its metadata file exists).

    The cheap existence probe used to decide between attaching to a prebuilt
    index (``BackendConfig.reuse_saved_index``, the worker-pool path) and
    building one; actual loading still validates the graph shape.
    """
    return (Path(directory) / _META_FILE).exists()


def _read_meta(directory: Path) -> dict:
    meta_path = directory / _META_FILE
    if not meta_path.exists():
        raise StorageError(f"no SLING index metadata found at {meta_path}")
    try:
        return json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise StorageError(f"corrupt index metadata at {meta_path}: {exc}") from exc


def _params_from_meta(meta: dict) -> SlingParameters:
    return SlingParameters(
        c=meta["c"],
        epsilon=meta["epsilon"],
        delta=meta["delta"],
        epsilon_d=meta["epsilon_d"],
        theta=meta["theta"],
        delta_d=meta["delta_d"],
    )


def _load_arrays(
    directory: Path, meta: dict, *, mmap_mode: str | None
) -> tuple[np.ndarray, PackedHittingStore, np.ndarray]:
    """Read ``(corrections, store, reduced)`` for either format version."""
    version = int(meta.get("format_version", 1))
    if version >= 2:
        corrections_path = directory / _CORRECTIONS_FILE
        if not corrections_path.exists():
            raise StorageError(f"missing correction factors at {corrections_path}")
        corrections = np.load(corrections_path)
        store = PackedHittingStore.load(directory, mmap_mode=mmap_mode)
        reduced = np.load(directory / _REDUCED_FILE)
        return corrections, store, np.asarray(reduced, dtype=bool)
    # Version 1: one compressed npz with node-grouped but key-unsorted columns.
    data_path = directory / _LEGACY_DATA_FILE
    if not data_path.exists():
        raise StorageError(f"missing packed index data at {data_path}")
    data = np.load(data_path)
    store = PackedHittingStore.from_columns(
        data["offsets"], data["levels"], data["targets"], data["values"]
    )
    reduced = data["reduced"]
    if reduced.shape[0] == 0:
        reduced = np.zeros(store.num_nodes, dtype=bool)
    return data["corrections"], store, np.asarray(reduced, dtype=bool)


def load_index(
    directory: str | Path, graph: DiGraph, *, mmap_mode: str | None = "r"
) -> SlingIndex:
    """Load a previously saved index and attach it to ``graph``.

    With the default ``mmap_mode="r"`` the packed columns are memory-mapped,
    not read: the load touches only file headers plus the ``8n`` bytes of
    correction factors, and subsequent queries slice pages in on demand.
    Pass ``mmap_mode=None`` to read everything eagerly into RAM.

    The graph must be the one the index was built on (node and edge counts are
    verified); loading against a different graph raises :class:`StorageError`.
    """
    directory = Path(directory)
    meta = _read_meta(directory)
    if meta["num_nodes"] != graph.num_nodes or meta["num_edges"] != graph.num_edges:
        raise StorageError(
            "graph mismatch: the index was built on a graph with "
            f"n={meta['num_nodes']}, m={meta['num_edges']} but the supplied graph "
            f"has n={graph.num_nodes}, m={graph.num_edges}"
        )
    corrections, store, reduced = _load_arrays(directory, meta, mmap_mode=mmap_mode)
    index = SlingIndex(
        graph,
        parameters=_params_from_meta(meta),
        reduce_space=meta["reduce_space"],
        enhance_accuracy=meta["enhance_accuracy"],
    )
    index._corrections = corrections
    index._store = store
    if meta["reduce_space"]:
        from .optimizations import SpaceReduction

        index._space_reduction = SpaceReduction(theta=index.parameters.theta)
        index._reduced = reduced
    if meta["enhance_accuracy"]:
        from .optimizations import AccuracyEnhancer

        enhancer = AccuracyEnhancer(
            graph, index.parameters.epsilon, index.parameters.sqrt_c
        )
        # Marks are selected from the store in canonical key order, exactly
        # as SlingIndex.build does — a loaded index answers queries
        # bitwise-identically to the index that was saved.
        enhancer.mark_all_packed(store)
        index._enhancer = enhancer
    return index


# --------------------------------------------------------------------------- #
# Disk-backed query processing
# --------------------------------------------------------------------------- #
class DiskBackedIndex(SlingQueries):
    """Answer SimRank queries while keeping hitting sets on disk.

    The serving state is exactly :func:`load_index` with ``mmap_mode="r"``:
    only the correction factors (8 bytes per node) are read into memory and
    the packed columns stay memory-mapped, so every single-pair query slices
    exactly two per-node segments out of them — the constant-I/O argument of
    Section 5.4.  Queries come from :class:`SlingQueries` over the loaded
    index's composed views, so the space-reduction reconstruction and the
    ``H*`` overlay apply here exactly as in memory (reconstruction needs only
    the graph) and answers are bitwise identical to the saved index's.  The
    one addition is the per-view I/O counter.
    """

    def __init__(self, directory: str | Path, graph: DiGraph) -> None:
        self._index = load_index(directory, graph, mmap_mode="r")
        self._reads = 0
        # The packed arrays are read-only at query time, so concurrent queries
        # are safe; only this I/O counter is mutable and needs the lock.
        self._reads_lock = threading.Lock()

    @property
    def graph(self) -> DiGraph:
        """The graph the stored index is attached to."""
        return self._index.graph

    @property
    def corrections(self) -> np.ndarray:
        """The resident correction factors ``d̃_k``."""
        return self._index.correction_factors

    @property
    def parameters(self) -> SlingParameters:
        """The parameter set the stored index was built with."""
        return self._index.parameters

    @property
    def packed_store(self) -> PackedHittingStore:
        """The memory-mapped packed store backing all queries."""
        return self._index.packed_store

    @property
    def num_set_reads(self) -> int:
        """Number of hitting sets fetched so far (I/O accounting)."""
        return self._reads

    def _serving(self) -> "DiskBackedIndex":
        return self

    def view(self, node: int) -> QueryView:
        """One node's composed view, counted as one hitting-set read."""
        view = self._index.view(node)
        with self._reads_lock:
            self._reads += 1
        return view

    def level_bounds(self, node: int) -> dict[int, float]:
        """Store-metadata pruning bounds; computing the store stats faults
        every column in once, after which bounded queries touch only the
        levels the truncated cascade actually replays."""
        return self._index.level_bounds(node)


# --------------------------------------------------------------------------- #
# Out-of-core construction
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class OutOfCoreBuildReport:
    """Outcome of an out-of-core build (the Figure-10 measurement unit)."""

    directory: Path
    buffer_bytes: int
    num_records: int
    num_spill_runs: int
    elapsed_seconds: float
    correction_seconds: float
    push_seconds: float
    merge_seconds: float


def _spill_run(records: list[tuple[int, int, int, float]], run_path: Path) -> None:
    """Sort a buffer by source node and write it as a binary run file."""
    records.sort(key=lambda record: record[0])
    with open(run_path, "wb") as handle:
        for record in records:
            handle.write(_RECORD_STRUCT.pack(*record))


def _iter_run(run_path: Path):
    with open(run_path, "rb") as handle:
        while True:
            chunk = handle.read(RECORD_BYTES)
            if not chunk:
                break
            yield _RECORD_STRUCT.unpack(chunk)


def out_of_core_build(
    graph: DiGraph,
    params: SlingParameters,
    work_directory: str | Path,
    *,
    buffer_bytes: int = 256 * 1024 * 1024,
    seed: int | None = None,
) -> OutOfCoreBuildReport:
    """Build a SLING index with a bounded in-memory record buffer.

    The correction factors are computed in memory (they need only
    ``8n`` bytes); the hitting-probability records produced by the reverse
    pushes are buffered, spilled to sorted run files whenever the buffer
    exceeds ``buffer_bytes``, and finally merged with a k-way external merge
    **directly into the packed columnar store** of :func:`save_index` — the
    merged stream never materialises per-node dicts.

    Returns an :class:`OutOfCoreBuildReport`; the finished index can then be
    queried via :class:`DiskBackedIndex` or loaded with :func:`load_index`.
    """
    if buffer_bytes < RECORD_BYTES:
        raise ParameterError(
            f"buffer_bytes must be at least {RECORD_BYTES}, got {buffer_bytes}"
        )
    work_directory = Path(work_directory)
    work_directory.mkdir(parents=True, exist_ok=True)
    runs_directory = work_directory / "runs"
    runs_directory.mkdir(exist_ok=True)

    start_total = time.perf_counter()

    start = time.perf_counter()
    walker = SqrtCWalker(graph, params.c, seed=seed)
    corrections = estimate_all_correction_factors(
        walker, params.epsilon_d, params.delta_d, adaptive=True
    )
    correction_seconds = time.perf_counter() - start

    max_buffer_records = max(1, buffer_bytes // RECORD_BYTES)
    buffer: list[tuple[int, int, int, float]] = []
    run_paths: list[Path] = []
    num_records = 0

    start = time.perf_counter()
    scratch = np.zeros(graph.num_nodes, dtype=np.float64)
    for target in graph.nodes():
        per_level = reverse_push(
            graph, target, params.sqrt_c, params.theta, scratch=scratch
        )
        for level, entries in per_level.items():
            for source, value in entries.items():
                buffer.append((source, level, target, float(value)))
                num_records += 1
                if len(buffer) >= max_buffer_records:
                    run_path = runs_directory / f"run_{len(run_paths):06d}.bin"
                    _spill_run(buffer, run_path)
                    run_paths.append(run_path)
                    buffer = []
    if buffer:
        run_path = runs_directory / f"run_{len(run_paths):06d}.bin"
        _spill_run(buffer, run_path)
        run_paths.append(run_path)
        buffer = []
    push_seconds = time.perf_counter() - start

    start = time.perf_counter()
    merged = heapq.merge(
        *[_iter_run(path) for path in run_paths], key=lambda record: record[0]
    )
    sources = np.empty(num_records, dtype=np.int64)
    levels = np.empty(num_records, dtype=np.int32)
    targets = np.empty(num_records, dtype=np.int32)
    values = np.empty(num_records, dtype=np.float64)
    for cursor, (source, level, target, value) in enumerate(merged):
        sources[cursor] = source
        levels[cursor] = level
        targets[cursor] = target
        values[cursor] = value
    store = PackedHittingStore.from_records(
        graph.num_nodes, sources, levels, targets, values
    )
    merge_seconds = time.perf_counter() - start

    index = SlingIndex(graph, parameters=params, seed=seed)
    index._corrections = corrections
    index._store = store
    save_index(index, work_directory / "index")

    for path in run_paths:
        path.unlink(missing_ok=True)

    return OutOfCoreBuildReport(
        directory=work_directory / "index",
        buffer_bytes=buffer_bytes,
        num_records=num_records,
        num_spill_runs=len(run_paths),
        elapsed_seconds=time.perf_counter() - start_total,
        correction_seconds=correction_seconds,
        push_seconds=push_seconds,
        merge_seconds=merge_seconds,
    )
