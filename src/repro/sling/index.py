"""The SLING index (Sections 4-6 of the paper).

:class:`SlingIndex` ties together the building blocks of the other modules:

* correction factors ``d̃_k`` estimated by √c-walk sampling
  (:mod:`repro.sling.correction`, Algorithms 1 / 4),
* per-node hitting-probability sets ``H(v)`` built by reverse local push
  (:mod:`repro.sling.hitting`, Algorithm 2),
* the optional space-reduction and accuracy-enhancement optimizations
  (:mod:`repro.sling.optimizations`, Sections 5.2 / 5.3),

and serves the paper's query primitives through the shared
:class:`~repro.sling.queries.SlingQueries` surface:

* ``single_pair`` — Algorithm 3, ``O(1/ε)`` time,
* ``single_source`` — Algorithm 6 (local push), the level cascade, or the
  naive n-fold application of Algorithm 3.

Every returned score carries the Theorem-1 guarantee: additive error at most
``ε`` with probability at least ``1 - δ`` over the randomness of the build.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import IndexNotBuiltError, ParameterError
from ..graphs import DiGraph
from .correction import estimate_all_correction_factors
from .hitting import HittingProbabilitySet, build_hitting_sets, exact_near_hops
from .optimizations import AccuracyEnhancer, SpaceReduction
from .packed import PackedHittingStore, QueryView
from .parameters import SlingParameters
from .queries import SlingQueries, store_level_bounds
from .walks import SqrtCWalker

__all__ = ["SlingIndex", "BuildStatistics"]


@dataclass
class BuildStatistics:
    """Timings and size accounting collected while building the index."""

    correction_seconds: float = 0.0
    hitting_seconds: float = 0.0
    optimization_seconds: float = 0.0
    total_seconds: float = 0.0
    num_hitting_entries: int = 0
    num_reduced_nodes: int = 0
    workers: int = 1
    extra: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"build took {self.total_seconds:.3f}s "
            f"(corrections {self.correction_seconds:.3f}s, "
            f"hitting sets {self.hitting_seconds:.3f}s, "
            f"optimizations {self.optimization_seconds:.3f}s); "
            f"{self.num_hitting_entries} stored hitting probabilities, "
            f"{self.num_reduced_nodes} space-reduced nodes, "
            f"{self.workers} worker(s)"
        )


class SlingIndex(SlingQueries):
    """SimRank index with near-optimal query time and provable accuracy.

    Queries (``single_pair`` / ``single_source`` / ``top_k`` /
    ``top_k_bounded`` / ``all_pairs``) come from :class:`SlingQueries`; the
    index is its own serving snapshot.

    Parameters
    ----------
    graph:
        The directed input graph.
    c:
        SimRank decay factor (paper default ``0.6``).
    epsilon:
        Worst-case additive error of every returned SimRank score
        (paper default ``0.025``).
    delta:
        Failure probability of preprocessing; defaults to ``1/n`` as in the
        paper's experiments.
    seed:
        Seed for the √c-walk sampling used by the correction-factor
        estimators.
    adaptive_correction:
        Use Algorithm 4 (adaptive sampling, default) instead of Algorithm 1.
    reduce_space:
        Enable the Section-5.2 space reduction.
    enhance_accuracy:
        Enable the Section-5.3 accuracy enhancement.
    error_split:
        Fraction of the error budget assigned to correction factors (the rest
        goes to the hitting probabilities); see :class:`SlingParameters`.
    parameters:
        A fully resolved :class:`SlingParameters` instance; overrides
        ``c`` / ``epsilon`` / ``delta`` / ``error_split`` when given.

    Examples
    --------
    >>> from repro.graphs import generators
    >>> from repro.sling import SlingIndex
    >>> graph = generators.cycle(8)
    >>> index = SlingIndex(graph, epsilon=0.05, seed=7).build()
    >>> round(index.single_pair(0, 0), 3)
    1.0
    """

    def __init__(
        self,
        graph: DiGraph,
        *,
        c: float = 0.6,
        epsilon: float = 0.025,
        delta: float | None = None,
        seed: int | None = None,
        adaptive_correction: bool = True,
        reduce_space: bool = False,
        enhance_accuracy: bool = False,
        error_split: float = 0.5,
        parameters: SlingParameters | None = None,
    ) -> None:
        if graph.num_nodes == 0:
            raise ParameterError("cannot index an empty graph")
        self._graph = graph
        if parameters is None:
            parameters = SlingParameters.from_accuracy_target(
                num_nodes=graph.num_nodes,
                c=c,
                epsilon=epsilon,
                delta=delta,
                error_split=error_split,
            )
        self._params = parameters
        self._seed = seed
        self._adaptive_correction = adaptive_correction
        self._reduce_space = reduce_space
        self._enhance_accuracy = enhance_accuracy

        self._corrections: np.ndarray | None = None
        self._correction_max: float | None = None
        self._store: PackedHittingStore | None = None
        #: Lazy dict-based compatibility view of the packed store.
        self._hitting_sets: list[HittingProbabilitySet] | None = None
        self._reduced: np.ndarray | None = None
        self._space_reduction: SpaceReduction | None = None
        self._enhancer: AccuracyEnhancer | None = None
        self._build_stats: BuildStatistics | None = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> DiGraph:
        """The indexed graph."""
        return self._graph

    @property
    def parameters(self) -> SlingParameters:
        """The resolved parameter set (ε, θ, ε_d, ...)."""
        return self._params

    @property
    def is_built(self) -> bool:
        """Whether :meth:`build` has completed."""
        return self._corrections is not None and self._store is not None

    @property
    def build_statistics(self) -> BuildStatistics:
        """Timings and sizes from the last :meth:`build` call."""
        if self._build_stats is None:
            raise IndexNotBuiltError("SLING index")
        return self._build_stats

    @property
    def correction_factors(self) -> np.ndarray:
        """The estimated correction factors ``d̃_k`` as an ``(n,)`` array."""
        self._require_built()
        assert self._corrections is not None
        return self._corrections

    #: Serving-snapshot name of :attr:`correction_factors`.
    corrections = correction_factors

    @property
    def packed_store(self) -> PackedHittingStore:
        """The frozen columnar store all queries read (the real index)."""
        self._require_built()
        assert self._store is not None
        return self._store

    @property
    def hitting_sets(self) -> list[HittingProbabilitySet]:
        """Dict-based compatibility view of the stored sets ``H(v)``.

        Materialised lazily from :attr:`packed_store` on first access; it is
        a read-only snapshot — mutating the returned sets does not affect
        queries, which run on the packed columns.
        """
        self._require_built()
        if self._hitting_sets is None:
            self._hitting_sets = self.packed_store.to_hitting_sets()
        return self._hitting_sets

    def _require_built(self) -> None:
        if not self.is_built:
            raise IndexNotBuiltError("SLING index")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "built" if self.is_built else "not built"
        return (
            f"SlingIndex(n={self._graph.num_nodes}, m={self._graph.num_edges}, "
            f"epsilon={self._params.epsilon}, {status})"
        )

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def build(self, *, workers: int = 1) -> "SlingIndex":
        """Build the index: correction factors, hitting sets, optimizations.

        ``workers > 1`` parallelises both preprocessing phases over node
        ranges with a process pool (Section 5.4); results are identical to a
        sequential build up to the per-node sampling randomness.
        Returns ``self`` so construction can be chained.
        """
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        start_total = time.perf_counter()
        params = self._params

        if workers == 1:
            start = time.perf_counter()
            walker = SqrtCWalker(self._graph, params.c, seed=self._seed)
            corrections = estimate_all_correction_factors(
                walker,
                params.epsilon_d,
                params.delta_d,
                adaptive=self._adaptive_correction,
            )
            correction_seconds = time.perf_counter() - start

            start = time.perf_counter()
            hitting_sets = build_hitting_sets(
                self._graph, params.sqrt_c, params.theta
            )
            hitting_seconds = time.perf_counter() - start
        else:
            from .parallel import parallel_build

            corrections, hitting_sets, correction_seconds, hitting_seconds = (
                parallel_build(
                    self._graph,
                    params,
                    workers=workers,
                    seed=self._seed,
                    adaptive_correction=self._adaptive_correction,
                )
            )

        start = time.perf_counter()
        reduced = None
        num_reduced = 0
        if self._reduce_space:
            self._space_reduction = SpaceReduction(theta=params.theta)
            reduced = self._space_reduction.apply(self._graph, hitting_sets)
            num_reduced = int(reduced.sum())

        # Freeze the mutable build-time dicts into the packed columnar store;
        # everything downstream (queries, persistence, size accounting) reads
        # the flat arrays.
        start_pack = time.perf_counter()
        store = PackedHittingStore.from_hitting_sets(hitting_sets)
        pack_seconds = time.perf_counter() - start_pack

        enhancer = None
        if self._enhance_accuracy:
            enhancer = AccuracyEnhancer(self._graph, params.epsilon, params.sqrt_c)
            enhancer.mark_all_packed(store)
        optimization_seconds = time.perf_counter() - start

        self._corrections = corrections
        self._store = store
        self._hitting_sets = None  # compatibility view rematerialises lazily
        self._reduced = reduced
        self._enhancer = enhancer
        self._build_stats = BuildStatistics(
            correction_seconds=correction_seconds,
            hitting_seconds=hitting_seconds,
            optimization_seconds=optimization_seconds,
            total_seconds=time.perf_counter() - start_total,
            num_hitting_entries=store.num_entries,
            num_reduced_nodes=num_reduced,
            workers=workers,
            extra={"pack_seconds": pack_seconds},
        )
        return self

    # ------------------------------------------------------------------ #
    # Serving snapshot: query-time views (with optimizations applied)
    # ------------------------------------------------------------------ #
    def _serving(self) -> "SlingIndex":
        self._require_built()
        return self

    def view(self, node: int) -> QueryView:
        """The packed view actually used to answer a query from ``node``.

        Starts from a zero-copy slice of the store and composes, in order,
        the space-reduction reconstruction (exact step-0/1/2 values via
        Algorithm 5) and the accuracy enhancement ``H*(v)`` as small
        copy-on-write overlays — no dicts are rebuilt on the hot path.
        """
        self._require_built()
        node = int(node)
        self._graph.in_degree(node)  # validates the node id
        view = self.packed_store.node_view(node)
        if (
            self._reduced is not None
            and self._space_reduction is not None
            and self._reduced[node]
        ):
            exact = exact_near_hops(self._graph, node, self._params.sqrt_c)
            view = view.override(
                (level, target, value)
                for level, entries in exact.items()
                for target, value in entries.items()
            )
        if self._enhancer is not None:
            generated = self._enhancer.generated_entries(node, view.contains)
            if generated:
                view = view.override(
                    (level, target, value)
                    for (level, target), value in generated.items()
                )
        return view

    def level_bounds(self, node: int) -> dict[int, float]:
        """Store-metadata pruning bounds for the bounded top-k (see
        :func:`~repro.sling.queries.store_level_bounds`)."""
        if self._correction_max is None:
            self._correction_max = float(self.corrections.max(initial=0.0))
        return store_level_bounds(
            self.packed_store, node, self._params.sqrt_c, self._correction_max
        )

    def query_hitting_set(self, node: int) -> HittingProbabilitySet:
        """The hitting set actually used to answer a query from ``node``.

        Applies, in order, the space-reduction reconstruction (exact step-1/2
        values via Algorithm 5) and the accuracy enhancement ``H*(v)``.  This
        is the dict-based compatibility twin of :meth:`view`; the two
        compose identical entries (the parity suite asserts it).
        """
        self._require_built()
        node = int(node)
        self._graph.in_degree(node)  # validates the node id
        # Materialise only the requested node's set; the full hitting_sets
        # list is built lazily elsewhere and reused here once it exists.
        if self._hitting_sets is not None:
            effective = self._hitting_sets[node]
        else:
            effective = self.packed_store.hitting_set(node)
        if (
            self._reduced is not None
            and self._space_reduction is not None
            and self._reduced[node]
        ):
            effective = self._space_reduction.reconstruct(
                self._graph, node, effective, self._params.sqrt_c
            )
        if self._enhancer is not None:
            effective = self._enhancer.enhance(node, effective)
        return effective

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #
    def index_size_bytes(self) -> int:
        """Serialized index size: correction factors plus all stored HP entries.

        Matches the packed on-disk layout of :mod:`repro.sling.storage`
        (8 bytes per correction factor, 12 bytes per hitting-probability
        entry), which is the quantity Figure 4 of the paper reports.  O(1):
        read straight off the packed store's array lengths.
        """
        self._require_built()
        correction_bytes = 8 * self._graph.num_nodes
        return correction_bytes + self.packed_store.size_bytes()

    def resident_bytes(self) -> int:
        """Actual in-memory footprint of the built index's arrays.

        Correction factors plus every packed column (including the combined
        keys column).  For an index loaded with ``mmap_mode`` this counts the
        mapped extent, not resident pages.
        """
        self._require_built()
        assert self._corrections is not None
        return int(self._corrections.nbytes) + self.packed_store.nbytes

    def average_set_size(self) -> float:
        """Average number of stored hitting probabilities per node (O(1))."""
        self._require_built()
        store = self.packed_store
        if store.num_nodes == 0:
            return 0.0
        return store.num_entries / store.num_nodes
