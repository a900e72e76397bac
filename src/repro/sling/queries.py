"""The SLING query surface, written once for every index flavour.

:class:`SlingQueries` implements the paper's query primitives — Algorithm 3
(:meth:`~SlingQueries.single_pair`), Algorithm 6 and its variants
(:meth:`~SlingQueries.single_source`) and the rankings derived from them —
for the in-memory :class:`~repro.sling.index.SlingIndex`, the mmap-backed
:class:`~repro.sling.storage.DiskBackedIndex` and the mutating
:class:`~repro.sling.dynamic.DynamicSlingIndex`.  A class mixes it in and
implements one hook, ``_serving()``, returning a *serving snapshot* with:

* ``graph`` — the graph queries run on,
* ``corrections`` — the correction factors ``d̃_k`` as an ``(n,)`` array,
* ``parameters`` — the resolved :class:`~repro.sling.parameters.SlingParameters`,
* ``view(node)`` — the node's :class:`~repro.sling.packed.QueryView` with the
  Section-5.2 reconstruction and Section-5.3 ``H*`` overlays composed
  (raising for an invalid node id),
* ``level_bounds(node)`` — per-level residual-mass bounds for the bounded
  top-k, or ``None`` when the store metadata cannot be trusted; ``bounded``
  then falls back to the exact local-push ranking.

Every query reads exactly one snapshot, so an index that swaps its serving
state (the dynamic index) answers each query from one consistent state
without taking a lock, and every entry point carries the same Theorem-1
guarantee because it runs the same code over the same composed views.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError
from ..ranking import rank_top_k
from .packed import PackedHittingStore, intersect_views
from .single_source import (
    BoundedTopK,
    bounded_top_k,
    single_source_cascade,
    single_source_local_push,
)

__all__ = ["SlingQueries", "store_level_bounds"]

_KERNELS = {
    "local_push": single_source_local_push,
    "cascade": single_source_cascade,
}


def store_level_bounds(
    store: PackedHittingStore, node: int, sqrt_c: float, correction_max: float
) -> dict[int, float]:
    """Per-level residual-mass bounds from the packed store's metadata.

    ``B_ℓ = (√c)^ℓ · max_k h̃^(ℓ)(node, k) · max_j d̃_j`` — an upper bound on
    the per-query corrected frontier maximum that needs no column reads at
    query time (the store stats are computed once and cached).  Only
    consulted for levels above the overlay floor, where the raw store values
    are authoritative for every flag combination.
    """
    stat_levels, _totals, stat_maxima = store.node_level_stats(int(node))
    return {
        int(level): (sqrt_c ** int(level)) * float(maximum) * correction_max
        for level, maximum in zip(stat_levels, stat_maxima)
    }


def _single_source(snapshot, node: int, method: str) -> np.ndarray:
    params = snapshot.parameters
    if method == "pairwise":
        view_u = snapshot.view(node)
        scores = np.zeros(snapshot.graph.num_nodes, dtype=np.float64)
        for other in snapshot.graph.nodes():
            scores[other] = intersect_views(
                view_u, snapshot.view(other), snapshot.corrections
            )
        return scores
    kernel = _KERNELS.get(method)
    if kernel is None:
        raise ParameterError(
            f"unknown single-source method {method!r}; "
            "expected 'local_push', 'cascade' or 'pairwise'"
        )
    return kernel(
        snapshot.graph,
        snapshot.view(node),
        snapshot.corrections,
        params.sqrt_c,
        params.theta,
    )


class SlingQueries:
    """Mixin: every SLING query over the snapshot ``self._serving()`` returns."""

    def _serving(self):
        """The serving snapshot queries read (see the module docstring)."""
        raise NotImplementedError

    def single_pair(self, node_u: int, node_v: int) -> float:
        """Approximate SimRank ``s̃(u, v)`` with at most ``ε`` additive error.

        Algorithm 3 on the packed store: one sorted-key intersection of the
        two views' combined-key columns, then a single dot product with
        ``corrections[targets]``.
        """
        snapshot = self._serving()
        return intersect_views(
            snapshot.view(node_u), snapshot.view(node_v), snapshot.corrections
        )

    def single_source(self, node: int, *, method: str = "local_push") -> np.ndarray:
        """Approximate SimRank from ``node`` to every node, as a fresh ``(n,)``
        array.

        ``"local_push"`` runs Algorithm 6 (the default; bitwise-stable
        reference kernel); ``"cascade"`` runs the level-cascade kernel —
        ``max ℓ`` push steps instead of ``Σℓ``, several times faster and
        within the same ``ε`` guarantee (but not bitwise identical to the
        reference); ``"pairwise"`` applies Algorithm 3 once per node —
        asymptotically ``O(n/ε)`` but slower in practice, exactly as
        Figure 2 shows.
        """
        return _single_source(self._serving(), node, method)

    def top_k(
        self, node: int, k: int, *, method: str = "local_push",
        budget: float | None = None,
    ) -> list[tuple[int, float]]:
        """The ``k`` nodes most similar to ``node`` (excluding ``node`` itself).

        ``method`` accepts every :meth:`single_source` method plus
        ``"bounded"``, the pruned path of :meth:`top_k_bounded` (``budget``
        is only meaningful there).  ``single_source`` returns fresh storage,
        so the ranking consumes it directly — no defensive copy.
        """
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        if method == "bounded":
            return self.top_k_bounded(node, k, budget=budget).ranked
        return rank_top_k(self.single_source(node, method=method), int(node), k)

    def top_k_bounded(
        self, node: int, k: int, *, budget: float | None = None
    ) -> BoundedTopK:
        """Top-k via the truncated cascade with residual-mass pruning bounds.

        The cascade stops at the shallowest stored level whose undelivered
        tail (bounded per level by the snapshot's ``level_bounds``) fits
        ``budget``, and the truncated ranking is kept only when the k-th
        candidate's lower bound dominates that tail; otherwise the full
        cascade runs.  Returned scores are within ``tail_bound ≤ budget ≤ ε``
        of the full cascade's values, so the Theorem-1 additive guarantee
        degrades by at most the budget.  ``budget`` defaults to ``ε/4``,
        which on the benchmark workload keeps exact top-k set agreement
        while stopping 2-3x shallower than the full depth.

        When the snapshot has no trustworthy bounds (a dynamic index with
        outstanding deltas) the exact local-push ranking is returned
        instead, reported as an untruncated full-depth run.
        """
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        snapshot = self._serving()
        params = snapshot.parameters
        view = snapshot.view(node)
        level_bounds = snapshot.level_bounds(node)
        if level_bounds is None:
            scores = single_source_local_push(
                snapshot.graph, view, snapshot.corrections,
                params.sqrt_c, params.theta,
            )
            levels = view.level_segments()[0]
            stop_level = int(levels[-1]) if levels.shape[0] else -1
            return BoundedTopK(rank_top_k(scores, int(node), k), 0.0, stop_level, False)
        return bounded_top_k(
            snapshot.graph,
            view,
            snapshot.corrections,
            params.sqrt_c,
            params.theta,
            int(node),
            k,
            budget=params.epsilon / 4.0 if budget is None else budget,
            level_bounds=level_bounds,
        )

    def all_pairs(self, *, method: str = "local_push") -> np.ndarray:
        """All-pairs SimRank matrix, one single-source query per node.

        Intended for the accuracy experiments on small graphs (Figures 5-7);
        memory is Θ(n²).
        """
        graph = self._serving().graph
        matrix = np.zeros((graph.num_nodes, graph.num_nodes), dtype=np.float64)
        for node in graph.nodes():
            matrix[node] = self.single_source(node, method=method)
        return matrix
