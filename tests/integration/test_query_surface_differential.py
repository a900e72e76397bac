"""Differential suite: every SLING entry point under every optimization flag.

One saved index per flag combination (plain / reduce_space /
enhance_accuracy / both) is served through each entry point — the
in-memory :class:`SlingIndex`, :func:`load_index` (mmap),
:class:`DiskBackedIndex`, a ``SimRankService`` session on ``index_dir``,
real ``repro router --index-dir`` and ``repro serve --index-dir``
subprocesses, and a clean :class:`DynamicSlingIndex`.  Every answer must be
bitwise equal to the in-memory index's, and every single-pair and
single-source score must be within ε of power-method ground truth
(Theorem 1).

The suite runs at ε = 0.1 on the HepTh stand-in: there the Section-5.3
``H*`` overlay generates entries that change answers (at ε = 0.05 it
generates none on graphs this small, and the enhance_accuracy cells would
compare equal things), and serving the reduce_space index without the
Algorithm-5 reconstruction misses truth by ~0.16.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import PowerMethod
from repro.engine import BackendConfig
from repro.graphs import datasets
from repro.service import (
    ServiceConfig,
    SimRankClient,
    SimRankService,
    SinglePairQuery,
    SingleSourceQuery,
    TopKQuery,
)
from repro.sling import (
    DiskBackedIndex,
    DynamicSlingIndex,
    SlingIndex,
    load_index,
    save_index,
)

DATASET, SCALE, SEED = "HepTh", 0.05, 0
EPS = 0.1
K = 5
SOURCES = (0, 13, 22, 42)
#: Canonical (u <= v) pairs: the engine answers ``s(u, v)`` as ``s(min, max)``.
PAIRS = ((0, 1), (0, 12), (3, 14), (7, 7), (13, 42), (20, 44))
METHODS = ("local_push", "cascade", "pairwise")
TOP_K_MODES = ("exact", "bounded")
FLAGS = {
    "plain": (False, False),
    "reduce_space": (True, False),
    "enhance_accuracy": (False, True),
    "both": (True, True),
}
SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


def load_graph():
    return datasets.load_dataset(DATASET, scale=SCALE, seed=SEED)


def power_truth(graph) -> np.ndarray:
    return PowerMethod(graph, num_iterations=40).build().all_pairs()


@pytest.fixture(scope="module")
def graph():
    return load_graph()


@pytest.fixture(scope="module")
def truth(graph):
    return power_truth(graph)


@pytest.fixture(scope="module")
def saved(graph, tmp_path_factory):
    """``flags -> (reference SlingIndex, index root holding it as DATASET)``."""
    built: dict[str, tuple[SlingIndex, Path]] = {}

    def get(flags: str) -> tuple[SlingIndex, Path]:
        if flags not in built:
            reduce_space, enhance_accuracy = FLAGS[flags]
            index = SlingIndex(
                graph, epsilon=EPS, seed=SEED,
                reduce_space=reduce_space, enhance_accuracy=enhance_accuracy,
            ).build()
            root = tmp_path_factory.mktemp(flags)
            save_index(index, root / DATASET)
            built[flags] = (index, root)
        return built[flags]

    return get


# --------------------------------------------------------------------------- #
# Probing one entry point
# --------------------------------------------------------------------------- #
def collect(pair, source, top_k, *, methods=METHODS, modes=TOP_K_MODES) -> dict:
    """Every probe answer of one entry point, keyed by probe."""
    answers: dict = {}
    for u, v in PAIRS:
        answers["pair", u, v] = float(pair(u, v))
    for node in SOURCES:
        for method in methods:
            answers["source", node, method] = np.asarray(
                source(node, method), dtype=np.float64
            )
        for mode in modes:
            answers["top_k", node, mode] = [
                (int(target), float(score)) for target, score in top_k(node, mode)
            ]
    return answers


def collect_index(index, **kwargs) -> dict:
    return collect(
        index.single_pair,
        lambda node, method: index.single_source(node, method=method),
        lambda node, mode: index.top_k(
            node, K, method="bounded" if mode == "bounded" else "local_push"
        ),
        **kwargs,
    )


def assert_cell(answers: dict, reference: dict, truth: np.ndarray) -> None:
    """Within ε of ground truth, and bitwise equal to the reference."""
    for key, value in answers.items():
        if key[0] == "pair":
            assert abs(value - truth[key[1], key[2]]) <= EPS, key
        elif key[0] == "source":
            assert np.abs(value - truth[key[1]]).max() <= EPS, key
    for key, value in answers.items():
        if key[0] == "source":
            assert np.array_equal(value, reference[key]), key
        else:
            assert value == reference[key], key


# --------------------------------------------------------------------------- #
# In-process entry points
# --------------------------------------------------------------------------- #
def service_answers(root: Path) -> dict:
    """Probe a ``SimRankService`` session that mmaps the saved index.

    The data plane answers single_pair, local_push single_source (and
    cascade under ``degrade=True``) and exact top_k; pairwise and bounded
    are read from the same session's backend adapter, the bounded one from
    a session configured with ``sling_topk_mode="bounded"``.
    """

    def make(mode: str) -> SimRankService:
        return SimRankService(ServiceConfig(
            scale=SCALE, seed=SEED, index_dir=str(root), cache_size=0,
            backend_config=BackendConfig(
                epsilon=EPS, seed=SEED, sling_topk_mode=mode
            ),
        ))

    exact, bounded = make("exact"), make("bounded")
    backend = exact.open_dataset(DATASET).engine().backend
    bounded_backend = bounded.open_dataset(DATASET).engine().backend
    assert backend.name == bounded_backend.name == "sling-disk"

    def ok(result):
        assert result.ok, result.error
        return result

    def source(node, method):
        if method == "pairwise":
            return backend.single_source(node, method=method)
        degrade = method == "cascade"
        result = ok(exact.execute(
            SingleSourceQuery(DATASET, node=node), degrade=degrade
        ))
        assert result.degraded is degrade
        return result.value

    def top_k(node, mode):
        if mode == "bounded":
            return bounded_backend.top_k(node, K)
        value = ok(exact.execute(TopKQuery(DATASET, node=node, k=K))).value
        return [(entry["node"], entry["score"]) for entry in value]

    try:
        return collect(
            lambda u, v: ok(exact.execute(SinglePairQuery(DATASET, u, v))).value,
            source,
            top_k,
        )
    finally:
        exact.close_all()
        bounded.close_all()


ENTRY_POINTS = {
    "sling_index": lambda graph, index, root: collect_index(index),
    "load_index": lambda graph, index, root: collect_index(
        load_index(root / DATASET, graph, mmap_mode="r")
    ),
    "disk_backed": lambda graph, index, root: collect_index(
        DiskBackedIndex(root / DATASET, graph)
    ),
    "service_index_dir": lambda graph, index, root: service_answers(root),
}


@pytest.mark.parametrize("flags", list(FLAGS))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_point_matches_sling_index_and_truth(graph, truth, saved, entry, flags):
    index, root = saved(flags)
    answers = ENTRY_POINTS[entry](graph, index, root)
    assert_cell(answers, collect_index(index), truth)


def test_optimized_cells_differ_from_plain(saved):
    """Guard against a vacuous suite: each optimization changes some probed
    answer, so a surface that skipped its overlay could not pass."""
    plain = collect_index(saved("plain")[0])
    for flags in ("reduce_space", "enhance_accuracy", "both"):
        optimized = collect_index(saved(flags)[0])
        assert any(
            not np.array_equal(optimized[key], plain[key])
            for key in plain if key[0] == "source"
        ), flags


def test_clean_dynamic_index_before_and_after_refreeze(graph, truth, saved):
    index, _root = saved("plain")
    dynamic = DynamicSlingIndex(graph, epsilon=EPS, seed=SEED).build()
    assert_cell(collect_index(dynamic), collect_index(index), truth)

    dynamic.mutate(added=[(0, 20)], removed=[next(graph.edges())])
    assert dynamic.is_dirty
    assert dynamic.refreeze()
    assert not dynamic.is_dirty
    mutated = dynamic.graph
    rebuilt = SlingIndex(mutated, epsilon=EPS, seed=SEED).build()
    assert_cell(
        collect_index(dynamic), collect_index(rebuilt), power_truth(mutated)
    )


# --------------------------------------------------------------------------- #
# Subprocess entry points
# --------------------------------------------------------------------------- #
def wire_answers(client: SimRankClient) -> dict:
    """single_pair, single_source and top_k through the wire."""
    return collect(
        lambda u, v: client.single_pair(DATASET, u, v),
        lambda node, method: client.single_source(DATASET, node),
        lambda node, mode: [
            (entry["node"], entry["score"])
            for entry in client.top_k(DATASET, node, K)
        ],
        methods=("local_push",),
        modes=("exact",),
    )


def test_router_index_dir_reduce_space(truth, saved, tmp_path):
    """A real ``repro router --index-dir`` serving the reduce_space index.

    The wire's single_source request is the local_push kernel and its top_k
    the exact ranking; the other kernels are covered in process above.
    """
    index, root = saved("reduce_space")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC_DIR, env.get("PYTHONPATH")])
    )
    socket_path = tmp_path / "router.sock"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "router",
            "--workers", "1",
            "--unix", str(socket_path),
            "--run-dir", str(tmp_path / "run"),
            "--scale", str(SCALE), "--epsilon", str(EPS), "--seed", str(SEED),
            "--cache-size", "0",
            "--index-dir", str(root),
        ],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        announce: list[bytes] = []
        reader = threading.Thread(
            target=lambda: announce.append(process.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(120)
        assert announce and b'"listening"' in announce[0], announce
        client = SimRankClient(address=f"unix:{socket_path}", timeout=120)
        try:
            answers = wire_answers(client)
        finally:
            client.shutdown()
            client.close()
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert_cell(answers, collect_index(index), truth)


def test_serve_index_dir_degrades_to_cascade(truth, saved):
    """``repro serve --index-dir --degrade-pending 1`` answers every
    single_source through the cascade kernel, stamped ``degraded``."""
    index, root = saved("reduce_space")
    client = SimRankClient.connect(
        scale=SCALE, epsilon=EPS, seed=SEED,
        extra_args=[
            "--index-dir", str(root), "--degrade-pending", "1",
            "--cache-size", "0",
        ],
    )
    try:
        for node in SOURCES:
            result = client.execute(SingleSourceQuery(DATASET, node=node))
            assert result.ok, result.error
            assert result.degraded is True
            assert np.array_equal(
                np.asarray(result.value), index.single_source(node, method="cascade")
            )
            assert np.abs(np.asarray(result.value) - truth[node]).max() <= EPS
    finally:
        client.close()
